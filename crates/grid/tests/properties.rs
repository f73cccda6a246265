//! Property-based tests for the grid substrate.

use proptest::prelude::*;
use tpl_design::RoutedNet;
use tpl_grid::{emit_wires, GridGraph, PinCoverage, VertexId};
use tpl_ispd::CaseParams;

fn small_grid() -> (tpl_design::Design, GridGraph) {
    let design = CaseParams::ispd18_like(1).scaled(0.4).generate();
    let grid = GridGraph::build(&design);
    (design, grid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coords_roundtrip(raw in 0u32..10_000) {
        let (_, grid) = small_grid();
        let v = VertexId::new(raw % grid.num_vertices() as u32);
        let (l, x, y) = grid.coords(v);
        prop_assert_eq!(grid.vertex(l, x, y), v);
    }

    #[test]
    fn neighbors_are_symmetric(raw in 0u32..10_000) {
        let (_, grid) = small_grid();
        let v = VertexId::new(raw % grid.num_vertices() as u32);
        for (dir, n) in grid.neighbors(v) {
            prop_assert_eq!(grid.neighbor(n, dir.opposite()), Some(v));
            // Neighbouring points are exactly one pitch apart for planar
            // moves and identical for vias.
            let dp = grid.point_of(v).manhattan(&grid.point_of(n));
            if dir.is_via() {
                prop_assert_eq!(dp, 0);
            } else {
                prop_assert_eq!(dp, grid.pitch());
            }
        }
    }

    #[test]
    fn random_walk_paths_convert_to_consistent_geometry(
        seed in any::<u64>(),
        len in 2usize..60,
    ) {
        let (_, grid) = small_grid();
        // Deterministic pseudo-random walk over the grid.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut v = VertexId::new((next() % grid.num_vertices()) as u32);
        let mut path = vec![v];
        let mut planar_steps = 0i64;
        let mut via_steps = 0usize;
        for _ in 0..len {
            let neighbors: Vec<_> = grid.neighbors(v).collect();
            let (dir, n) = neighbors[next() % neighbors.len()];
            // Avoid immediately backtracking to keep runs interesting but
            // still valid.
            if path.len() >= 2 && path[path.len() - 2] == n {
                continue;
            }
            if dir.is_via() { via_steps += 1; } else { planar_steps += 1; }
            path.push(n);
            v = n;
        }
        let (mut rn, mut labels) = (RoutedNet::new(), Vec::new());
        emit_wires(&grid, &path, |_| (), &mut rn, &mut labels);
        prop_assert_eq!(labels.len(), rn.segments.len());
        prop_assert_eq!(rn.wirelength(), planar_steps * grid.pitch());
        prop_assert_eq!(rn.via_count(), via_steps);
    }
}

#[test]
fn every_pin_of_the_benchmark_gets_coverage() {
    let (design, grid) = small_grid();
    let cov = PinCoverage::build(&grid, &design);
    for pin in design.pins() {
        let vs = cov.vertices(pin.id());
        assert!(!vs.is_empty(), "pin {} has no access vertex", pin.name());
        for v in vs {
            // Coverage stays on the pin's layer set.
            let layer = grid.layer_of(*v);
            assert!(
                pin.shapes().iter().any(|(l, _)| *l == layer),
                "pin {} covered on foreign layer",
                pin.name()
            );
        }
    }
}
