//! Tests of the shared best-first search kernel on the three graph shapes
//! the routers search: the plain detailed-routing grid (Mr.TPL and the
//! colour-blind router), the DAC'12 mask × direction expanded graph, and a
//! window of the global router's gcell grid.

use std::time::{Duration, Instant};
use tpl_design::{Design, DesignBuilder, NetId, PinId, Technology};
use tpl_geom::{Dir, Rect};
use tpl_grid::{
    CancelToken, CostParams, DenseBitSet, GridGraph, GridState, Kernel, PinCoverage, RouteBudget,
    SearchSpace, StopReason, TradCost, VertexId,
};

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A graph given by explicit successor lists, with goal nodes and an
/// admissible, consistent heuristic.
struct Graph {
    succ: Vec<Vec<(u32, f64)>>,
    goals: Vec<bool>,
    sources: Vec<u32>,
    h: Vec<f64>,
    key_resolution: f64,
}

/// The kernel's view of a [`Graph`]; logs every expansion.
struct Space<'a> {
    graph: &'a Graph,
    expanded: Vec<(u32, f64)>,
}

impl SearchSpace for Space<'_> {
    type Payload = ();
    type Goal = u32;

    fn goal(&mut self, node: u32, _: u64, _: &Kernel<()>) -> Option<u32> {
        self.graph.goals[node as usize].then_some(node)
    }

    fn expand(&mut self, node: u32, dist: f64, _: (), mut relax: impl FnMut(u32, f64, ())) {
        self.expanded.push((node, dist));
        for &(to, cost) in &self.graph.succ[node as usize] {
            relax(to, dist + cost, ());
        }
    }
}

impl Graph {
    fn kernel(&self) -> Kernel<()> {
        Kernel::new(self.succ.len(), self.key_resolution)
    }

    /// Runs one search; `a_star` switches the heuristic on.
    fn search(&self, kernel: &mut Kernel<()>, a_star: bool) -> Option<u32> {
        let mut space = Space {
            graph: self,
            expanded: Vec::new(),
        };
        let sources = self.sources.iter().map(|&s| (s, ()));
        let h = |v: u32| if a_star { self.h[v as usize] } else { 0.0 };
        kernel.run(&mut space, sources, h)
    }

    /// Textbook O(V²) Dijkstra: the cheapest distance to any goal.
    fn reference(&self) -> f64 {
        let n = self.succ.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut done = vec![false; n];
        for &s in &self.sources {
            dist[s as usize] = 0.0;
        }
        loop {
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for i in 0..n {
                if !done[i] && dist[i] < best {
                    best = dist[i];
                    u = i;
                }
            }
            if u == usize::MAX {
                break;
            }
            done[u] = true;
            for &(to, cost) in &self.succ[u] {
                let nd = dist[u] + cost;
                if nd < dist[to as usize] {
                    dist[to as usize] = nd;
                }
            }
        }
        (0..n)
            .filter(|&i| self.goals[i])
            .map(|i| dist[i])
            .fold(f64::INFINITY, f64::min)
    }
}

/// A two-pin design on a `die`-sized square with random history costs.
fn random_grid_case(seed: u64, die: i64) -> (Design, GridGraph, GridState, PinCoverage) {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut r = |m: u64| (xorshift(&mut s) % m) as i64;
    // Pins in opposite halves of the die so the search has room.
    let half = die / 2;
    let (ax, ay) = (6 + r((half - 40) as u64), 6 + r((die - 40) as u64));
    let (bx, by) = (half + 6 + r((half - 40) as u64), 6 + r((die - 40) as u64));
    let mut b = DesignBuilder::new(
        "kernel",
        Technology::ispd_like(3),
        Rect::from_coords(0, 0, die, die),
    );
    let p0 = b.add_pin_shape("a", 0, Rect::from_coords(ax, ay, ax + 28, ay + 28));
    let p1 = b.add_pin_shape("b", 0, Rect::from_coords(bx, by, bx + 28, by + 28));
    b.add_net("n0", vec![p0, p1]);
    let design = b.build().unwrap();
    let grid = GridGraph::build(&design);
    let mut state = GridState::new(&grid, &design);
    for i in 0..grid.num_vertices() {
        if xorshift(&mut s).is_multiple_of(4) {
            state.add_history(VertexId::new(i as u32), (xorshift(&mut s) % 50) as f64);
        }
    }
    let coverage = PinCoverage::build(&grid, &design);
    (design, grid, state, coverage)
}

/// Manhattan lower bound from `v` to the nearest `targets` vertex: every
/// planar step costs at least `step` and every layer change `via`.
fn manhattan_bound(
    grid: &GridGraph,
    targets: &[VertexId],
    v: VertexId,
    step: f64,
    via: f64,
) -> f64 {
    let (l, x, y) = grid.coords(v);
    targets
        .iter()
        .map(|&t| {
            let (tl, tx, ty) = grid.coords(t);
            (x.abs_diff(tx) + y.abs_diff(ty)) as f64 * step + l.abs_diff(tl) as f64 * via
        })
        .fold(f64::INFINITY, f64::min)
}

/// The detailed-routing grid at `Cost_trad` step costs: the graph of the
/// Mr.TPL and colour-blind searches.
fn plain_grid(seed: u64) -> Graph {
    let (design, grid, state, coverage) = random_grid_case(seed, 400);
    let params = CostParams::default();
    let in_guide = DenseBitSet::full(grid.num_vertices());
    let trad = TradCost {
        grid: &grid,
        state: &state,
        coverage: &coverage,
        design: &design,
        params: &params,
        net: NetId::new(0),
        in_guide: &in_guide,
    };
    let succ = grid
        .iter_vertices()
        .map(|v| {
            grid.neighbors(v)
                .filter_map(|(dir, n)| trad.step(v, n, dir).map(|c| (n.0, c)))
                .collect()
        })
        .collect();
    let targets = coverage.vertices(PinId::new(1));
    let mut goals = vec![false; grid.num_vertices()];
    for t in targets {
        goals[t.index()] = true;
    }
    let step = params.wire_cost(grid.pitch());
    let h = grid
        .iter_vertices()
        .map(|v| manhattan_bound(&grid, targets, v, step, params.via))
        .collect();
    Graph {
        succ,
        goals,
        sources: coverage
            .vertices(PinId::new(0))
            .iter()
            .map(|v| v.0)
            .collect(),
        h,
        key_resolution: 256.0,
    }
}

/// The DAC'12 expanded graph: every grid vertex split into 3 masks × 4
/// incoming directions, with per-mask conflict pressure and a stitch cost
/// on planar mask changes.
fn expanded_grid(seed: u64) -> Graph {
    let (design, grid, state, coverage) = random_grid_case(seed, 200);
    let params = CostParams::default();
    let in_guide = DenseBitSet::full(grid.num_vertices());
    let trad = TradCost {
        grid: &grid,
        state: &state,
        coverage: &coverage,
        design: &design,
        params: &params,
        net: NetId::new(0),
        in_guide: &in_guide,
    };
    let mut s = seed | 1;
    let pressure: Vec<[f64; 3]> = (0..grid.num_vertices())
        .map(|_| [0, 1, 2].map(|_| (xorshift(&mut s) % 3) as f64 * 350.0))
        .collect();
    let node = |v: VertexId, mask: usize, class: usize| (v.index() * 12 + mask * 4 + class) as u32;
    let mut succ = vec![Vec::new(); grid.num_vertices() * 12];
    for v in grid.iter_vertices() {
        for mask in 0..3 {
            for class in 0..4 {
                let out = &mut succ[node(v, mask, class) as usize];
                for (dir, n) in grid.neighbors(v) {
                    let Some(c) = trad.step(v, n, dir) else {
                        continue;
                    };
                    let next_class = match dir {
                        Dir::East => 0,
                        Dir::West => 1,
                        Dir::North => 2,
                        Dir::South => 3,
                        Dir::Up | Dir::Down => class,
                    };
                    for (next, p) in pressure[n.index()].iter().enumerate() {
                        let mut step = c + p;
                        if dir.is_planar() && next != mask {
                            step += 20.0;
                        }
                        out.push((node(n, next, next_class), step));
                    }
                }
            }
        }
    }
    let mut goals = vec![false; succ.len()];
    for t in coverage.vertices(PinId::new(1)) {
        for slot in 0..12 {
            goals[t.index() * 12 + slot] = true;
        }
    }
    let sources = coverage
        .vertices(PinId::new(0))
        .iter()
        .flat_map(|&v| (0..3).map(move |mask| node(v, mask, 0)))
        .collect();
    Graph {
        h: vec![0.0; succ.len()],
        succ,
        goals,
        sources,
        key_resolution: 256.0,
    }
}

/// A window of the global router's gcell grid: 4-neighbour moves inside
/// `[x0, x1] × [y0, y1]` at random congestion costs of at least 1.0, with
/// the plain gcell Manhattan distance as heuristic.
fn gcell_window(seed: u64) -> Graph {
    let (nx, ny) = (24usize, 20usize);
    let (x0, y0, x1, y1) = (3usize, 2usize, 18usize, 16usize);
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut cost = || 1.0 + (xorshift(&mut s) % 8) as f64 * 0.5;
    let index = |x: usize, y: usize| (y * nx + x) as u32;
    let mut succ = vec![Vec::new(); nx * ny];
    for y in y0..=y1 {
        for x in x0..=x1 {
            let out = &mut succ[index(x, y) as usize];
            if x < x1 {
                out.push((index(x + 1, y), cost()));
            }
            if x > x0 {
                out.push((index(x - 1, y), cost()));
            }
            if y < y1 {
                out.push((index(x, y + 1), cost()));
            }
            if y > y0 {
                out.push((index(x, y - 1), cost()));
            }
        }
    }
    let start = (x0 + (seed as usize) % 5, y0 + 1);
    let goal = (x1 - (seed as usize) % 4, y1 - 2);
    let mut goals = vec![false; nx * ny];
    goals[index(goal.0, goal.1) as usize] = true;
    let h = (0..nx * ny)
        .map(|i| ((i % nx).abs_diff(goal.0) + (i / nx).abs_diff(goal.1)) as f64)
        .collect();
    Graph {
        succ,
        goals,
        sources: vec![index(start.0, start.1)],
        h,
        key_resolution: 1024.0,
    }
}

/// Every graph shape, for a few seeds.
fn graphs() -> Vec<(&'static str, Graph)> {
    let mut out = Vec::new();
    for seed in 1..=3u64 {
        out.push(("plain grid", plain_grid(seed)));
        out.push(("expanded graph", expanded_grid(seed)));
        out.push(("gcell window", gcell_window(seed)));
    }
    out
}

#[test]
fn every_graph_matches_reference_dijkstra_with_and_without_a_star() {
    for (name, graph) in graphs() {
        let want = graph.reference();
        assert!(want.is_finite(), "{name}: no path in the reference");
        for a_star in [false, true] {
            let mut kernel = graph.kernel();
            let goal = graph.search(&mut kernel, a_star).expect("path exists");
            assert!(
                (kernel.dist(goal) - want).abs() < 1e-9,
                "{name} a_star={a_star}: {} != reference {want}",
                kernel.dist(goal)
            );
            // The predecessor chain runs from a source to the goal.
            let path = kernel.path(goal);
            assert!(graph.sources.contains(&path[0]), "{name}");
            assert_eq!(*path.last().unwrap(), goal);
        }
    }
}

#[test]
fn goal_direction_never_pops_more() {
    for (name, graph) in graphs() {
        let mut popped = Vec::new();
        for a_star in [false, true] {
            let mut kernel = graph.kernel();
            graph.search(&mut kernel, a_star).expect("path exists");
            popped.push(kernel.popped());
        }
        assert!(popped[1] <= popped[0], "{name}: {popped:?}");
    }
}

#[test]
fn epoch_wrap_does_not_leak_stale_search_state() {
    for (name, graph) in graphs() {
        let mut kernel = graph.kernel();
        let goal = graph.search(&mut kernel, true).expect("path exists");
        let cost = kernel.dist(goal);
        // The next two searches cross u32::MAX and restart at 1, which must
        // not resurrect any stamp written before the wrap.
        kernel.force_epoch(u32::MAX - 1);
        for _ in 0..3 {
            let again = graph
                .search(&mut kernel, true)
                .expect("path exists after wrap");
            assert_eq!(again, goal, "{name}");
            assert!((kernel.dist(again) - cost).abs() < 1e-9, "{name}");
        }
    }
}

#[test]
fn node_budget_stops_the_search_with_a_reason() {
    for (name, graph) in graphs() {
        let mut kernel = graph.kernel();
        kernel.arm(3, &RouteBudget::with_max_search_nodes(3));
        assert_eq!(graph.search(&mut kernel, false), None, "{name}");
        assert_eq!(kernel.stop_reason(), Some(StopReason::SearchNodes));
        assert!(kernel.popped() <= 3);
        // Once stopped, further searches refuse to start.
        assert_eq!(graph.search(&mut kernel, false), None);
        assert!(kernel.popped() <= 3);
        // Re-arming unbudgeted finds the goal again.
        kernel.arm(u64::MAX, &RouteBudget::default());
        assert!(graph.search(&mut kernel, false).is_some(), "{name}");
        assert_eq!(kernel.stop_reason(), None);
    }
}

#[test]
fn cancellation_and_deadline_abort_the_search() {
    let token = CancelToken::new();
    token.cancel();
    let cancelled = RouteBudget {
        cancel: Some(token),
        ..RouteBudget::default()
    };
    let late = RouteBudget {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..RouteBudget::default()
    };
    for (name, graph) in graphs() {
        for (budget, reason) in [
            (&cancelled, StopReason::Cancelled),
            (&late, StopReason::Deadline),
        ] {
            let mut kernel = graph.kernel();
            kernel.arm(u64::MAX, budget);
            assert_eq!(graph.search(&mut kernel, true), None, "{name}");
            assert_eq!(kernel.stop_reason(), Some(reason), "{name}");
        }
    }
}

/// `s -> a` costs 1.5, but `s -> b -> a` costs `0.25 + b_to_a`: `a` is
/// improved after it was queued.  `a -> t` leads on to a goal-less sink.
fn diamond(b_to_a: f64) -> Graph {
    let (s, a, b, t) = (0u32, 1u32, 2u32, 3u32);
    let mut succ = vec![Vec::new(); 4];
    succ[s as usize] = vec![(a, 1.5), (b, 0.25)];
    succ[b as usize] = vec![(a, b_to_a)];
    succ[a as usize] = vec![(t, 1.0)];
    Graph {
        succ,
        goals: vec![false; 4],
        sources: vec![s],
        h: vec![0.0; 4],
        key_resolution: 1.0,
    }
}

#[test]
fn an_improvement_within_one_key_quantum_is_expanded_once_with_the_better_distance() {
    // 1.5 and 1.25 both quantise to key 1: the improvement reuses the
    // queued entry, so `a` is popped and expanded exactly once, at 1.25.
    let graph = diamond(1.0);
    let mut kernel = graph.kernel();
    let mut space = Space {
        graph: &graph,
        expanded: Vec::new(),
    };
    assert_eq!(kernel.run(&mut space, [(0, ())], |_| 0.0), None);
    let a: Vec<f64> = space
        .expanded
        .iter()
        .filter(|(n, _)| *n == 1)
        .map(|(_, d)| *d)
        .collect();
    assert_eq!(a, vec![1.25]);
    // s, b, a and t: no duplicate entry was ever queued.
    assert_eq!(kernel.popped(), 4);
    assert_eq!(kernel.prev(1), Some(2));
}

#[test]
fn an_improvement_across_keys_leaves_one_stale_entry() {
    // 1.5 (key 1) improves to 0.75 (key 0): the old entry is stale, popped
    // and skipped, and `a` still expands only once, at 0.75.
    let graph = diamond(0.5);
    let mut kernel = graph.kernel();
    let mut space = Space {
        graph: &graph,
        expanded: Vec::new(),
    };
    assert_eq!(kernel.run(&mut space, [(0, ())], |_| 0.0), None);
    let a: Vec<f64> = space
        .expanded
        .iter()
        .filter(|(n, _)| *n == 1)
        .map(|(_, d)| *d)
        .collect();
    assert_eq!(a, vec![0.75]);
    assert_eq!(kernel.popped(), 5);
    assert_eq!(space.expanded.len(), 4);
}

#[test]
fn counters_restart_when_armed() {
    let graph = gcell_window(1);
    let mut kernel = graph.kernel();
    graph.search(&mut kernel, true).expect("path exists");
    let (popped, peak) = (kernel.popped(), kernel.peak());
    assert!(popped > 0 && peak > 0);
    graph.search(&mut kernel, true).expect("path exists");
    assert_eq!(
        kernel.popped(),
        2 * popped,
        "pops accumulate across searches"
    );
    kernel.arm(u64::MAX, &RouteBudget::default());
    assert_eq!((kernel.popped(), kernel.pruned(), kernel.peak()), (0, 0, 0));
}
