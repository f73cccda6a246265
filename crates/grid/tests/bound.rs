//! Property tests of `GoalBound` on random grids of 1–9 layers under unusual
//! costs: wrong-way wire at the preferred price, M1 without its multiplier
//! and one-unit vias, beside the defaults.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tpl_design::{Design, DesignBuilder, LayerId, NetId, PinId, Technology};
use tpl_geom::Rect;
use tpl_grid::{
    CostParams, DenseBitSet, GoalBound, GridGraph, GridState, Kernel, PinCoverage, SearchSpace,
    TradCost, VertexId,
};

/// Track pitch and offset of `Technology::ispd_like`.
const PITCH: i64 = 20;
const OFFSET: i64 = 10;

/// A random case: `layers` layers on an `n × n` track grid, and one net of
/// three to five pins, each of one or two rectangles on random layers.
fn random_design(layers: usize, n: i64, seed: u64) -> Design {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut r = move |m: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % m) as i64
    };
    let mut b = DesignBuilder::new(
        "bound",
        Technology::ispd_like(layers),
        Rect::from_coords(0, 0, n * PITCH, n * PITCH),
    );
    let track = |i: i64| OFFSET + i * PITCH;
    let pins: Vec<PinId> = (0..3 + r(3))
        .map(|p| {
            let shapes = (0..1 + r(2))
                .map(|_| {
                    let (x, y) = (r(n as u64), r(n as u64));
                    let (w, h) = (r(3), r(3));
                    let (x1, y1) = ((x + w).min(n - 1), (y + h).min(n - 1));
                    let rect =
                        Rect::from_coords(track(x) - 4, track(y) - 4, track(x1) + 4, track(y1) + 4);
                    (LayerId::from(r(layers as u64) as usize), rect)
                })
                .collect();
            b.add_pin(format!("p{p}"), shapes)
        })
        .collect();
    b.add_net("n", pins);
    b.build().unwrap()
}

/// Cost parameters from a choice of unusual and default values.
fn params(wrong_way: usize, base_layer: usize, via: usize) -> CostParams {
    CostParams {
        wrong_way_mult: [1, 3, 2][wrong_way],
        base_layer_mult: [1, 2, 4][base_layer],
        via: [1, 13, 40][via],
        ..CostParams::default()
    }
}

/// The bounding box of each pin's coverage: `(x0, x1, y0, y1, l0, l1)`.
fn boxes(grid: &GridGraph, coverage: &PinCoverage, pins: &[PinId]) -> Vec<[usize; 6]> {
    pins.iter()
        .map(|&pin| {
            let mut b = [usize::MAX, 0, usize::MAX, 0, usize::MAX, 0];
            for &v in coverage.vertices(pin) {
                let (l, x, y) = grid.coords(v);
                for (i, c) in [x, y, l].into_iter().enumerate() {
                    b[2 * i] = b[2 * i].min(c);
                    b[2 * i + 1] = b[2 * i + 1].max(c);
                }
            }
            b
        })
        .collect()
}

/// Brute force: the cheapest path, at the base costs, from every vertex to
/// any vertex inside one of the boxes.
fn base_distance(grid: &GridGraph, params: &CostParams, boxes: &[[usize; 6]]) -> Vec<u64> {
    let mut dist = vec![u64::MAX; grid.num_vertices()];
    let mut heap = BinaryHeap::new();
    for v in grid.iter_vertices() {
        let (l, x, y) = grid.coords(v);
        let inside = |b: &[usize; 6]| {
            (b[0]..=b[1]).contains(&x) && (b[2]..=b[3]).contains(&y) && (b[4]..=b[5]).contains(&l)
        };
        if boxes.iter().any(inside) {
            dist[v.index()] = 0;
            heap.push(Reverse((0, v.0)));
        }
    }
    while let Some(Reverse((d, v))) = heap.pop() {
        let v = VertexId::new(v);
        if d != dist[v.index()] {
            continue;
        }
        // Steps are symmetric up to the layer they leave: `u -> v` costs
        // the base of `u`'s layer.
        for (dir, u) in grid.neighbors(v) {
            let step = params.base(grid, grid.layer_of(u), dir.opposite());
            let d = dist[v.index()] + step;
            if d < dist[u.index()] {
                dist[u.index()] = d;
                heap.push(Reverse((d, u.0)));
            }
        }
    }
    dist
}

/// A grid search at `Cost_trad` that also charges `toll`
/// on a planar step whenever the path's hash payload says so, as Mr.TPL's
/// stitch cost depends on the colour state a vertex inherits.
struct TolledGrid<'a> {
    trad: TradCost<'a>,
    toll: u64,
    goals: &'a [bool],
}

impl SearchSpace for TolledGrid<'_> {
    type Payload = u64;
    type Goal = u32;

    fn goal(&mut self, node: u32) -> Option<u32> {
        self.goals[node as usize].then_some(node)
    }

    fn expand(&mut self, node: u32, dist: u64, hash: u64, mut relax: impl FnMut(u32, u64, u64)) {
        let v = VertexId::new(node);
        for (dir, n) in self.trad.grid.neighbors(v) {
            let Some(step) = self.trad.step(v, n, dir) else {
                continue;
            };
            let next = (hash ^ u64::from(n.0)).wrapping_mul(0x0000_0100_0000_01B3);
            let toll = if dir.is_planar() && hash.is_multiple_of(3) {
                self.toll
            } else {
                0
            };
            relax(n.0, dist + step + toll, next);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn h_is_the_exact_base_cost_distance_to_the_nearest_box(
        layers in 1usize..=9,
        n in 3i64..=10,
        seed in any::<u64>(),
        (wrong_way, base_layer, via) in (0usize..3, 0usize..3, 0usize..3),
    ) {
        let design = random_design(layers, n, seed);
        let grid = GridGraph::build(&design);
        let coverage = PinCoverage::build(&grid, &design);
        let params = params(wrong_way, base_layer, via);
        let pins = design.net(NetId::new(0)).pins();
        let mut bound = GoalBound::new(&grid, &params);
        // Aim twice: the second aim replaces the first's targets.
        bound.aim(&grid, &coverage, &pins[..1]);
        let targets = &pins[1..];
        bound.aim(&grid, &coverage, targets);
        let want = base_distance(&grid, &params, &boxes(&grid, &coverage, targets));
        for v in grid.iter_vertices() {
            let (h, w) = (bound.h(&grid, v), want[v.index()]);
            prop_assert!(h == w, "{:?}: h {} != {}", v, h, w);
        }
    }

    #[test]
    fn both_bounds_are_consistent_zero_on_the_targets_and_ordered(
        layers in 1usize..=9,
        n in 3i64..=10,
        seed in any::<u64>(),
        (wrong_way, base_layer, via) in (0usize..3, 0usize..3, 0usize..3),
    ) {
        let design = random_design(layers, n, seed);
        let grid = GridGraph::build(&design);
        let coverage = PinCoverage::build(&grid, &design);
        let params = params(wrong_way, base_layer, via);
        let targets = &design.net(NetId::new(0)).pins()[1..];
        let mut bound = GoalBound::new(&grid, &params);
        for v in grid.iter_vertices() {
            prop_assert_eq!(bound.h(&grid, v), 0);
            prop_assert_eq!(bound.manhattan(&grid, v), 0);
        }
        bound.aim(&grid, &coverage, targets);
        for &pin in targets {
            for &v in coverage.vertices(pin) {
                prop_assert_eq!(bound.h(&grid, v), 0);
                prop_assert_eq!(bound.manhattan(&grid, v), 0);
            }
        }
        for u in grid.iter_vertices() {
            let (h, m) = (bound.h(&grid, u), bound.manhattan(&grid, u));
            prop_assert!(m <= h, "{:?}: manhattan {} above h {}", u, m, h);
            for (dir, v) in grid.neighbors(u) {
                let step = params.base(&grid, grid.layer_of(u), dir);
                prop_assert!(h <= step + bound.h(&grid, v), "h {:?} {:?}", u, dir);
                prop_assert!(m <= step + bound.manhattan(&grid, v), "manhattan {:?} {:?}", u, dir);
            }
        }
    }

    #[test]
    fn bounded_dijkstra_with_h_returns_plain_dijkstras_answer(
        layers in 1usize..=5,
        n in 6i64..=12,
        seed in any::<u64>(),
        (wrong_way, base_layer, via) in (0usize..3, 0usize..3, 0usize..3),
        toll in 0usize..3,
    ) {
        let design = random_design(layers, n, seed);
        let grid = GridGraph::build(&design);
        let coverage = PinCoverage::build(&grid, &design);
        let mut state = GridState::new(&grid, &design);
        for v in grid.iter_vertices().filter(|v| (u64::from(v.0) ^ seed).is_multiple_of(5)) {
            state.add_history(v, ((seed >> (v.0 % 32)) % 90) as u32);
        }
        let params = params(wrong_way, base_layer, via);
        let in_guide = DenseBitSet::full(grid.num_vertices());
        let net = design.net(NetId::new(0));
        let targets = &net.pins()[1..];
        let mut goals = vec![false; grid.num_vertices()];
        for &pin in targets {
            for v in coverage.vertices(pin) {
                goals[v.index()] = true;
            }
        }
        let mut space = TolledGrid {
            trad: TradCost {
                grid: &grid,
                state: &state,
                coverage: &coverage,
                design: &design,
                params: &params,
                net: net.id(),
                in_guide: &in_guide,
            },
            toll: [0, 20, 350][toll],
            goals: &goals,
        };
        let mut bound = GoalBound::new(&grid, &params);
        bound.aim(&grid, &coverage, targets);
        let sources: Vec<(u32, u64)> = coverage
            .vertices(net.pins()[0])
            .iter()
            .map(|v| (v.0, u64::from(v.0)))
            .collect();
        let mut plain = Kernel::new(grid.num_vertices());
        let want = plain.run(&mut space, sources.iter().copied(), |_| 0);
        let mut bounded = Kernel::new(grid.num_vertices());
        let got = bounded.run_dijkstra(&mut space, sources.iter().copied(), |v| {
            bound.h(&grid, VertexId::new(v))
        });
        prop_assert_eq!(got, want);
        if let Some(goal) = want {
            let path = plain.path(goal);
            prop_assert_eq!(bounded.path(goal), path.clone());
            for node in path {
                prop_assert_eq!(bounded.dist(node), plain.dist(node));
                prop_assert_eq!(bounded.payload(node), plain.payload(node));
            }
        }
    }
}
