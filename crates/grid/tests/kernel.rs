//! Tests of the shared best-first search kernel on the three graph shapes
//! the routers search: the plain detailed-routing grid (Mr.TPL and the
//! colour-blind router), the DAC'12 mask × direction expanded graph, and a
//! 4-neighbour window of a coarse grid at uneven step costs.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// A graph given by explicit successor lists of whole-number step costs of
/// at least 1, with goal nodes and an admissible, consistent heuristic.
struct Graph {
    succ: Vec<Vec<(u32, u64)>>,
    goals: Vec<bool>,
    sources: Vec<u32>,
    h: Vec<u64>,
    /// A step from a node with payload `hash` costs its listed cost plus
    /// `toll · (hash % 3)`, so with a toll step costs depend on the path
    /// taken, as Mr.TPL's colour-state steps do.
    toll: u64,
}

/// The kernel's view of a [`Graph`]; logs every expansion.  The payload
/// hashes the path a node was reached by, so two searches that agree on a
/// node's payload agree on its whole predecessor chain.
struct Space<'a> {
    graph: &'a Graph,
    expanded: Vec<(u32, u64)>,
}

impl SearchSpace for Space<'_> {
    type Payload = u64;
    type Goal = u32;

    fn goal(&mut self, node: u32) -> Option<u32> {
        self.graph.goals[node as usize].then_some(node)
    }

    fn expand(&mut self, node: u32, dist: u64, hash: u64, mut relax: impl FnMut(u32, u64, u64)) {
        self.expanded.push((node, dist));
        let toll = self.graph.toll * (hash % 3);
        for &(to, cost) in &self.graph.succ[node as usize] {
            let next = (hash ^ u64::from(to)).wrapping_mul(0x0000_0100_0000_01B3);
            relax(to, dist + cost + toll, next);
        }
    }
}

/// The payload-free view of a toll-free [`Graph`]; logs every expansion.
/// [`Kernel::run_one_pass`] pops equal keys in no particular order on it,
/// and in `(dist, node)` order on a [`Space`].
struct UnitSpace<'a> {
    graph: &'a Graph,
    expanded: Vec<(u32, u64)>,
}

impl SearchSpace for UnitSpace<'_> {
    type Payload = ();
    type Goal = u32;

    fn goal(&mut self, node: u32) -> Option<u32> {
        self.graph.goals[node as usize].then_some(node)
    }

    fn expand(&mut self, node: u32, dist: u64, _: (), mut relax: impl FnMut(u32, u64, ())) {
        assert_eq!(self.graph.toll, 0, "a payload-free step reads no toll");
        self.expanded.push((node, dist));
        for &(to, cost) in &self.graph.succ[node as usize] {
            relax(to, dist + cost, ());
        }
    }
}

/// The search orders of the kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Order {
    /// `run` with `h = 0`.
    Dijkstra,
    /// `run` with the graph's bound.
    AStar,
    /// `run_one_pass` with the graph's bound.
    OnePass,
}

impl Graph {
    fn kernel(&self) -> Kernel<u64> {
        Kernel::new(self.succ.len())
    }

    /// Runs one search in the given order.
    fn search(&self, kernel: &mut Kernel<u64>, order: Order) -> Option<u32> {
        let mut space = Space {
            graph: self,
            expanded: Vec::new(),
        };
        let sources = self.sources.iter().map(|&s| (s, u64::from(s)));
        let h = |v: u32| self.h[v as usize];
        match order {
            Order::Dijkstra => kernel.run(&mut space, sources, |_| 0),
            Order::AStar => kernel.run(&mut space, sources, h),
            Order::OnePass => kernel.run_one_pass(&mut space, sources, h),
        }
    }

    fn unit_kernel(&self) -> Kernel<()> {
        Kernel::new(self.succ.len())
    }

    /// Runs the payload-free one-pass search with the graph's bound.
    fn one_pass(&self, kernel: &mut Kernel<()>) -> Option<u32> {
        let mut space = UnitSpace {
            graph: self,
            expanded: Vec::new(),
        };
        let sources = self.sources.iter().map(|&s| (s, ()));
        kernel.run_one_pass(&mut space, sources, |v| self.h[v as usize])
    }

    /// The same graph searched with the exact untolled distance to the
    /// nearest goal as its bound: consistent under any toll, since a toll
    /// only adds, and as tight as a bound gets.
    fn with_exact_bound(mut self) -> Self {
        let n = self.succ.len();
        let mut pred = vec![Vec::new(); n];
        for (from, out) in self.succ.iter().enumerate() {
            for &(to, cost) in out {
                pred[to as usize].push((from, cost));
            }
        }
        let mut dist = vec![u64::MAX; n];
        let mut heap = BinaryHeap::new();
        for (i, _) in self.goals.iter().enumerate().filter(|(_, g)| **g) {
            dist[i] = 0;
            heap.push(Reverse((0, i)));
        }
        while let Some(Reverse((d, v))) = heap.pop() {
            if d != dist[v] {
                continue;
            }
            for &(u, cost) in &pred[v] {
                let d = dist[v] + cost;
                if d < dist[u] {
                    dist[u] = d;
                    heap.push(Reverse((d, u)));
                }
            }
        }
        self.h = dist;
        self
    }

    /// Textbook O(V²) Dijkstra: the cheapest distance to any goal.
    fn reference(&self) -> u64 {
        let n = self.succ.len();
        let mut dist = vec![u64::MAX; n];
        let mut done = vec![false; n];
        for &s in &self.sources {
            dist[s as usize] = 0;
        }
        loop {
            let mut u = usize::MAX;
            let mut best = u64::MAX;
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
            .min()
            .unwrap_or(u64::MAX)
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
            state.add_history(VertexId::new(i as u32), (xorshift(&mut s) % 50) as u32);
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
    step: u64,
    via: u64,
) -> u64 {
    let (l, x, y) = grid.coords(v);
    targets
        .iter()
        .map(|&t| {
            let (tl, tx, ty) = grid.coords(t);
            (x.abs_diff(tx) + y.abs_diff(ty)) as u64 * step + l.abs_diff(tl) as u64 * via
        })
        .min()
        .unwrap_or(u64::MAX)
}

/// The detailed-routing grid at `Cost_trad` step costs: the graph of the
/// Mr.TPL and colour-blind searches.
fn plain_grid(seed: u64) -> Graph {
    let (_, grid, state, coverage) = random_grid_case(seed, 400);
    let params = CostParams::default();
    let in_guide = DenseBitSet::full(grid.num_vertices());
    let trad = TradCost {
        grid: &grid,
        state: &state,
        coverage: &coverage,
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
        .map(|v| manhattan_bound(&grid, targets, v, step, u64::from(params.via)))
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
        toll: 0,
    }
}

/// The DAC'12 expanded graph: every grid vertex split into 3 masks × 4
/// incoming directions, with per-mask conflict pressure and a stitch cost
/// on planar mask changes.
fn expanded_grid(seed: u64) -> Graph {
    let (_, grid, state, coverage) = random_grid_case(seed, 200);
    let params = CostParams::default();
    let in_guide = DenseBitSet::full(grid.num_vertices());
    let trad = TradCost {
        grid: &grid,
        state: &state,
        coverage: &coverage,
        params: &params,
        net: NetId::new(0),
        in_guide: &in_guide,
    };
    let mut s = seed | 1;
    let pressure: Vec<[u64; 3]> = (0..grid.num_vertices())
        .map(|_| [0, 1, 2].map(|_| xorshift(&mut s) % 3 * 350))
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
                            step += 20;
                        }
                        out.push((node(n, next, next_class), step));
                    }
                }
            }
        }
    }
    let targets = coverage.vertices(PinId::new(1));
    let mut goals = vec![false; succ.len()];
    for t in targets {
        for slot in 0..12 {
            goals[t.index() * 12 + slot] = true;
        }
    }
    let sources = coverage
        .vertices(PinId::new(0))
        .iter()
        .flat_map(|&v| (0..3).map(move |mask| node(v, mask, 0)))
        .collect();
    // The Manhattan bound of the node's grid vertex.
    let step = params.wire_cost(grid.pitch());
    let h = (0..succ.len())
        .map(|n| {
            manhattan_bound(
                &grid,
                targets,
                VertexId::new((n / 12) as u32),
                step,
                u64::from(params.via),
            )
        })
        .collect();
    Graph {
        h,
        succ,
        goals,
        sources,
        toll: 0,
    }
}

/// A window of a coarse grid: 4-neighbour moves inside `[x0, x1] × [y0,
/// y1]` at random costs of 2 to 9, with twice the Manhattan distance as
/// heuristic.
fn grid_window(seed: u64) -> Graph {
    let (nx, ny) = (24usize, 20usize);
    let (x0, y0, x1, y1) = (3usize, 2usize, 18usize, 16usize);
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut cost = || 2 + xorshift(&mut s) % 8;
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
        .map(|i| 2 * ((i % nx).abs_diff(goal.0) + (i / nx).abs_diff(goal.1)) as u64)
        .collect();
    Graph {
        succ,
        goals,
        sources: vec![index(start.0, start.1)],
        h,
        toll: 0,
    }
}

/// Two goals at equal distance where A\* and Dijkstra disagree: `s -> q ->
/// g1` and `s -> p -> g2` at unit cost with an exact bound.  Dijkstra
/// relaxes both goals before popping either and returns the lower id `g2`;
/// A\* pops `q` (f = 2) before `p` (f = 2, higher id) and returns `g1`
/// before `g2` is even queued.
fn goal_tie() -> Graph {
    let (s, g2, g1, q, p) = (0u32, 1u32, 2u32, 3u32, 4u32);
    let mut succ = vec![Vec::new(); 5];
    succ[s as usize] = vec![(p, 1), (q, 1)];
    succ[p as usize] = vec![(g2, 1)];
    succ[q as usize] = vec![(g1, 1)];
    Graph {
        succ,
        goals: vec![false, true, true, false, false],
        sources: vec![s],
        h: vec![2, 0, 0, 1, 1],
        toll: 0,
    }
}

/// A 9 × 9 grid of unit steps in all four directions, from three sources
/// to two goals on the east edge, bounded by the columns still to cross.
/// Most nodes have two tight predecessors at equal distance.  Where the
/// path climbs to lower rows, plain Dijkstra keeps the west one (the lower
/// id), while A\* order relaxes the node first from the one below it (the
/// same column, so a smaller bound): the path hangs on the tie rule.
fn uniform_grid() -> Graph {
    let n = 9usize;
    let index = |x: usize, y: usize| (y * n + x) as u32;
    let mut succ = vec![Vec::new(); n * n];
    for y in 0..n {
        for x in 0..n {
            let out = &mut succ[index(x, y) as usize];
            if x + 1 < n {
                out.push((index(x + 1, y), 1));
            }
            if x > 0 {
                out.push((index(x - 1, y), 1));
            }
            if y + 1 < n {
                out.push((index(x, y + 1), 1));
            }
            if y > 0 {
                out.push((index(x, y - 1), 1));
            }
        }
    }
    let mut goals = vec![false; n * n];
    goals[index(n - 1, 1) as usize] = true;
    goals[index(n - 1, 6) as usize] = true;
    Graph {
        succ,
        goals,
        sources: vec![index(0, 3), index(0, 7), index(4, 8)],
        h: (0..n * n).map(|i| (n - 1 - i % n) as u64).collect(),
        toll: 0,
    }
}

/// Two tight predecessors at different distances: `s -> p1 -> v` costs
/// 1 + 2 and `s -> q -> p2 -> v` costs 1 + 1 + 1.  Plain Dijkstra expands
/// `p1` (distance 1) before `p2` (distance 2) and keeps `p1`.  Under the
/// bound every node but `v` and the goal sits at key 4, so A\* pops by id,
/// and `p2` (id 2) reaches `v` before `p1` (id 3) ties it.
fn tie_across_keys() -> Graph {
    let (s, q, p2, p1, v, g) = (0usize, 1u32, 2u32, 3u32, 4u32, 5u32);
    let mut succ = vec![Vec::new(); 6];
    succ[s] = vec![(q, 1), (p1, 1)];
    succ[q as usize] = vec![(p2, 1)];
    succ[p2 as usize] = vec![(v, 1)];
    succ[p1 as usize] = vec![(v, 2)];
    succ[v as usize] = vec![(g, 1)];
    Graph {
        succ,
        goals: vec![false, false, false, false, false, true],
        sources: vec![s as u32],
        h: vec![4, 3, 2, 3, 1, 0],
        toll: 0,
    }
}

/// Two goals at distance 2: `s -> a -> ga` and `s -> b -> gb` at unit
/// cost under the exact bound, every node at key 2 in A\* order.  A\* pops
/// `a`, then `ga` (its id is below `b`'s) before `b` is expanded, so the
/// one pass records `ga` first.  Plain Dijkstra pops both goals under key 2
/// and returns the lower id: `gb` here, `ga` when `swap` exchanges the
/// goals' ids.
fn equal_key_goals(swap: bool) -> Graph {
    let (s, a, b) = (0usize, 3usize, 4usize);
    let (ga, gb) = if swap { (1, 2) } else { (2, 1) };
    let mut succ = vec![Vec::new(); 5];
    succ[s] = vec![(a as u32, 1), (b as u32, 1)];
    succ[a] = vec![(ga as u32, 1)];
    succ[b] = vec![(gb as u32, 1)];
    let mut goals = vec![false; 5];
    goals[ga] = true;
    goals[gb] = true;
    let mut h = vec![0; 5];
    (h[s], h[a], h[b]) = (2, 1, 1);
    Graph {
        succ,
        goals,
        sources: vec![s as u32],
        h,
        toll: 0,
    }
}

/// Every graph shape, for the given seeds.
fn graphs_for(seeds: std::ops::RangeInclusive<u64>) -> Vec<(&'static str, Graph)> {
    let mut out = Vec::new();
    for seed in seeds {
        out.push(("plain grid", plain_grid(seed)));
        out.push(("expanded graph", expanded_grid(seed)));
        out.push(("grid window", grid_window(seed)));
    }
    out.push(("goal tie", goal_tie()));
    out
}

/// Every graph shape, for a few seeds.
fn graphs() -> Vec<(&'static str, Graph)> {
    graphs_for(1..=3)
}

#[test]
fn every_graph_matches_reference_dijkstra_in_every_order() {
    for (name, graph) in graphs() {
        let want = graph.reference();
        assert_ne!(want, u64::MAX, "{name}: no path in the reference");
        for order in [Order::Dijkstra, Order::AStar, Order::OnePass] {
            let mut kernel = graph.kernel();
            let goal = graph.search(&mut kernel, order).expect("path exists");
            assert_eq!(kernel.dist(goal), want, "{name} {order:?}");
            // The predecessor chain runs from a source to the goal.
            let path = kernel.path(goal);
            assert!(graph.sources.contains(&path[0]), "{name}");
            assert_eq!(*path.last().unwrap(), goal);
        }
        let mut kernel = graph.unit_kernel();
        let goal = graph.one_pass(&mut kernel).expect("path exists");
        assert_eq!(kernel.dist(goal), want, "{name} one pass");
    }
}

#[test]
fn goal_direction_never_pops_more() {
    for (name, graph) in graphs() {
        let mut popped = Vec::new();
        for order in [Order::Dijkstra, Order::AStar] {
            let mut kernel = graph.kernel();
            graph.search(&mut kernel, order).expect("path exists");
            popped.push(kernel.popped());
        }
        assert!(popped[1] <= popped[0], "{name}: {popped:?}");
    }
}

#[test]
fn epoch_wrap_does_not_leak_stale_search_state() {
    for (name, graph) in graphs() {
        let mut kernel = graph.kernel();
        let goal = graph
            .search(&mut kernel, Order::AStar)
            .expect("path exists");
        let cost = kernel.dist(goal);
        // The next two searches cross u32::MAX and restart at 1, which must
        // not resurrect any stamp written before the wrap.
        kernel.force_epoch(u32::MAX - 1);
        for _ in 0..3 {
            let again = graph
                .search(&mut kernel, Order::AStar)
                .expect("path exists after wrap");
            assert_eq!(again, goal, "{name}");
            assert_eq!(kernel.dist(again), cost, "{name}");
        }
    }
}

#[test]
fn node_budget_stops_the_search_with_a_reason() {
    for (name, graph) in graphs() {
        let mut kernel = graph.kernel();
        kernel.arm(3, &RouteBudget::with_max_search_nodes(3));
        assert_eq!(graph.search(&mut kernel, Order::Dijkstra), None, "{name}");
        assert_eq!(kernel.stop_reason(), Some(StopReason::SearchNodes));
        assert!(kernel.popped() <= 3);
        // Once stopped, further searches refuse to start.
        assert_eq!(graph.search(&mut kernel, Order::Dijkstra), None);
        assert_eq!(graph.search(&mut kernel, Order::OnePass), None);
        assert!(kernel.popped() <= 3);
        let mut unit = graph.unit_kernel();
        unit.arm(3, &RouteBudget::with_max_search_nodes(3));
        assert_eq!(graph.one_pass(&mut unit), None, "{name}");
        assert_eq!(unit.stop_reason(), Some(StopReason::SearchNodes));
        assert_eq!(unit.popped(), 3);
        // Re-arming unbudgeted finds the goal again.
        kernel.arm(u64::MAX, &RouteBudget::default());
        assert!(
            graph.search(&mut kernel, Order::Dijkstra).is_some(),
            "{name}"
        );
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
            for order in [Order::AStar, Order::OnePass] {
                kernel.arm(u64::MAX, budget);
                assert_eq!(graph.search(&mut kernel, order), None, "{name}");
                assert_eq!(kernel.stop_reason(), Some(reason), "{name}");
            }
            let mut unit = graph.unit_kernel();
            unit.arm(u64::MAX, budget);
            assert_eq!(graph.one_pass(&mut unit), None, "{name}");
            assert_eq!(unit.stop_reason(), Some(reason), "{name}");
        }
    }
}

/// `s -> a` costs 3, but `s -> b -> a` costs 2: `a` is improved after it
/// was queued.  `a -> t` leads on to a goal-less sink.
fn diamond() -> Graph {
    let (s, a, b, t) = (0u32, 1u32, 2u32, 3u32);
    let mut succ = vec![Vec::new(); 4];
    succ[s as usize] = vec![(a, 3), (b, 1)];
    succ[b as usize] = vec![(a, 1)];
    succ[a as usize] = vec![(t, 1)];
    Graph {
        succ,
        goals: vec![false; 4],
        sources: vec![s],
        h: vec![0; 4],
        toll: 0,
    }
}

#[test]
fn an_improvement_leaves_one_stale_entry_and_the_node_expands_once() {
    // 3 improves to 2: the old entry is stale, popped and skipped, and `a`
    // expands only once, at 2.
    let graph = diamond();
    let mut kernel = graph.kernel();
    let mut space = Space {
        graph: &graph,
        expanded: Vec::new(),
    };
    assert_eq!(kernel.run(&mut space, [(0, 0)], |_| 0), None);
    let a: Vec<u64> = space
        .expanded
        .iter()
        .filter(|(n, _)| *n == 1)
        .map(|(_, d)| *d)
        .collect();
    assert_eq!(a, vec![2]);
    assert_eq!(kernel.popped(), 5);
    assert_eq!(space.expanded.len(), 4);
    assert_eq!(kernel.prev(1), Some(2));
}

/// Every node a search expands, in expansion order.
fn expanded_nodes(expanded: &[(u32, u64)]) -> Vec<u32> {
    expanded.iter().map(|&(n, _)| n).collect()
}

#[test]
fn a_consistent_bound_expands_each_node_at_most_once_per_pass() {
    for (name, graph) in one_pass_graphs() {
        for order in [Order::Dijkstra, Order::AStar, Order::OnePass] {
            let mut space = Space {
                graph: &graph,
                expanded: Vec::new(),
            };
            let sources = graph.sources.iter().map(|&s| (s, u64::from(s)));
            let h = |v: u32| graph.h[v as usize];
            let mut kernel = graph.kernel();
            match order {
                Order::Dijkstra => kernel.run(&mut space, sources, |_| 0),
                Order::AStar => kernel.run(&mut space, sources, h),
                Order::OnePass => kernel.run_one_pass(&mut space, sources, h),
            };
            let mut nodes = expanded_nodes(&space.expanded);
            let n = nodes.len();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), n, "{name} {order:?}");
        }
        let mut space = UnitSpace {
            graph: &graph,
            expanded: Vec::new(),
        };
        let sources = graph.sources.iter().map(|&s| (s, ()));
        graph
            .unit_kernel()
            .run_one_pass(&mut space, sources, |v| graph.h[v as usize]);
        let mut nodes = expanded_nodes(&space.expanded);
        let n = nodes.len();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), n, "{name} one pass");
    }
}

#[test]
fn counters_restart_when_armed() {
    let graph = grid_window(1);
    let mut kernel = graph.kernel();
    graph
        .search(&mut kernel, Order::AStar)
        .expect("path exists");
    let (popped, peak) = (kernel.popped(), kernel.peak());
    assert!(popped > 0 && peak > 0);
    graph
        .search(&mut kernel, Order::AStar)
        .expect("path exists");
    assert_eq!(
        kernel.popped(),
        2 * popped,
        "pops accumulate across searches"
    );
    kernel.arm(u64::MAX, &RouteBudget::default());
    assert_eq!((kernel.popped(), kernel.pruned(), kernel.peak()), (0, 0, 0));
}

/// Runs plain Dijkstra and the one pass with a payload on `graph`, asserts
/// that they agree on goal, distance, path and payload along it, and
/// returns their pops and whether A\* found a cheaper goal than plain
/// Dijkstra (so that the steps' reading of the payload decided the answer).
fn assert_payload_one_pass_matches_plain(name: &str, graph: &Graph) -> ([usize; 2], bool) {
    let mut plain = graph.kernel();
    let want = graph.search(&mut plain, Order::Dijkstra);
    let mut one_pass = graph.kernel();
    let got = graph.search(&mut one_pass, Order::OnePass);
    assert_eq!(got, want, "{name}: goal");
    assert_eq!(one_pass.stop_reason(), None, "{name}");
    let Some(goal) = want else {
        return ([plain.popped(), one_pass.popped()], false);
    };
    let path = plain.path(goal);
    assert_eq!(one_pass.path(goal), path, "{name}: path");
    for &node in &path {
        assert_eq!(one_pass.dist(node), plain.dist(node), "{name}: dist");
        assert_eq!(
            one_pass.payload(node),
            plain.payload(node),
            "{name}: payload"
        );
    }
    let mut a_star = graph.kernel();
    let a_star_goal = graph
        .search(&mut a_star, Order::AStar)
        .expect("path exists");
    let undercut = a_star.dist(a_star_goal) < plain.dist(goal);
    ([plain.popped(), one_pass.popped()], undercut)
}

#[test]
fn one_pass_with_a_payload_returns_plain_dijkstras_goal_dist_path_and_payload() {
    let mut pops = [0usize; 2];
    for (name, graph) in one_pass_graphs() {
        let ([plain, one_pass], _) = assert_payload_one_pass_matches_plain(name, &graph);
        pops[0] += plain;
        pops[1] += one_pass;
    }
    assert!(pops[1] < pops[0], "{pops:?}");
}

#[test]
fn one_pass_with_a_payload_returns_plain_dijkstras_answer_when_steps_read_it() {
    let mut undercuts = 0;
    for exact in [false, true] {
        for (name, graph) in graphs_for(1..=8) {
            let mut graph = if exact {
                graph.with_exact_bound()
            } else {
                graph
            };
            for toll in [1, 7, 40] {
                graph.toll = toll;
                let (_, undercut) = assert_payload_one_pass_matches_plain(name, &graph);
                undercuts += usize::from(undercut);
            }
        }
    }
    // In some cases A* keeps a payload that plain Dijkstra does not.
    assert!(undercuts > 0);
}

/// `s -> a -> m` and `s -> b -> m` both cost 2, and `m -> g` costs 1 when
/// `m` was reached from `b`, 10 otherwise: the payload is the node a node
/// was reached from.  The bound `(0, 1, 0, 1, 0)` is consistent with every
/// step and makes A\* pop `b` before `a`, so A\* reaches `g` at 3.  Plain
/// Dijkstra pops `a` first (the lower id), so `m` keeps `a` as its payload
/// and `g` costs 12.
struct Detour;

impl SearchSpace for Detour {
    type Payload = u32;
    type Goal = u32;

    fn goal(&mut self, node: u32) -> Option<u32> {
        (node == 4).then_some(node)
    }

    fn expand(&mut self, node: u32, dist: u64, from: u32, mut relax: impl FnMut(u32, u64, u32)) {
        match node {
            0 => {
                relax(1, dist + 1, 0);
                relax(2, dist + 1, 0);
            }
            1 | 2 => relax(3, dist + 1, node),
            3 => relax(4, dist + if from == 2 { 1 } else { 10 }, node),
            _ => {}
        }
    }
}

#[test]
fn the_one_pass_keeps_plain_dijkstras_payload_when_a_star_undercuts_dijkstra() {
    let h = |v: u32| [0, 1, 0, 1, 0][v as usize];
    let mut a_star = Kernel::new(5);
    assert_eq!(a_star.run(&mut Detour, [(0, 0)], h), Some(4));
    assert_eq!(a_star.dist(4), 3);
    let mut plain = Kernel::new(5);
    assert_eq!(plain.run(&mut Detour, [(0, 0)], |_| 0), Some(4));
    assert_eq!(plain.dist(4), 12);
    // The pass pops `b` first too, but `a` then ties `m`, and the tie rule
    // hands `m` `a`'s payload before `m` is expanded.
    let mut one_pass = Kernel::new(5);
    assert_eq!(one_pass.run_one_pass(&mut Detour, [(0, 0)], h), Some(4));
    assert_eq!(one_pass.dist(4), 12);
    assert_eq!(one_pass.path(4), plain.path(4));
    assert_eq!(one_pass.payload(3), Some(1));
    assert_eq!(one_pass.stop_reason(), None);
    // s, b, a, m, g.
    assert_eq!(one_pass.popped(), 5);
}

/// `s -> p -> v` costs 1 + 2 and `s -> r -> q -> v` costs 1 + 1 + 1, and
/// `v -> g` costs 1 when `v` was reached from `q`, 10 otherwise (the
/// payload is the node a node was reached from).  Plain Dijkstra expands
/// `p` (distance 1) before `q` (distance 2), so `v` keeps `p` and `g` costs
/// 13.  Under the consistent bound `(s, v, g, r, q, p) = (0, 1, 0, 1, 1,
/// 3)`, A\* order reaches `v` from `q` at key 3, and `v` and `p` then share
/// key 4, where `p`'s id (5) is above `v`'s (1): in `node` order `v` would
/// be expanded with `q`'s payload before `p` ties it.
struct LateTie;

impl SearchSpace for LateTie {
    type Payload = u32;
    type Goal = u32;

    fn goal(&mut self, node: u32) -> Option<u32> {
        (node == 2).then_some(node)
    }

    fn expand(&mut self, node: u32, dist: u64, from: u32, mut relax: impl FnMut(u32, u64, u32)) {
        let (s, v, g, r, q, p) = (0, 1, 2, 3, 4, 5);
        match node {
            _ if node == s => {
                relax(p, dist + 1, s);
                relax(r, dist + 1, s);
            }
            _ if node == r => relax(q, dist + 1, r),
            _ if node == q => relax(v, dist + 1, q),
            _ if node == p => relax(v, dist + 2, p),
            _ if node == v => relax(g, dist + if from == q { 1 } else { 10 }, v),
            _ => {}
        }
    }
}

#[test]
fn the_one_pass_expands_a_node_after_a_tight_predecessor_of_equal_key_and_larger_id() {
    let h = |v: u32| [0, 1, 0, 1, 1, 3][v as usize];
    let mut plain = Kernel::new(6);
    assert_eq!(plain.run(&mut LateTie, [(0, 0)], |_| 0), Some(2));
    assert_eq!(plain.dist(2), 13);
    assert_eq!(plain.path(2), vec![0, 5, 1, 2]);
    let mut one_pass = Kernel::new(6);
    assert_eq!(one_pass.run_one_pass(&mut LateTie, [(0, 0)], h), Some(2));
    assert_eq!(one_pass.dist(2), 13);
    assert_eq!(one_pass.path(2), plain.path(2));
    assert_eq!(one_pass.payload(1), Some(5));
}

#[test]
fn the_bound_is_evaluated_at_most_once_per_node_per_call() {
    for (name, graph) in graphs() {
        let mut kernel = graph.kernel();
        for order in [Order::AStar, Order::OnePass] {
            let mut first = None;
            // The second call must evaluate `h` afresh: a router re-aims its
            // bound between calls.
            for call in 0..2 {
                let calls: Vec<Cell<u32>> = vec![Cell::new(0); graph.succ.len()];
                let h = |v: u32| {
                    let c = &calls[v as usize];
                    c.set(c.get() + 1);
                    graph.h[v as usize]
                };
                let mut space = Space {
                    graph: &graph,
                    expanded: Vec::new(),
                };
                let sources = graph.sources.iter().map(|&s| (s, u64::from(s)));
                let goal = match order {
                    Order::AStar => kernel.run(&mut space, sources, h),
                    _ => kernel.run_one_pass(&mut space, sources, h),
                };
                assert!(goal.is_some(), "{name} {order:?}");
                let counts: Vec<u32> = calls.iter().map(Cell::get).collect();
                assert!(
                    counts.iter().all(|&c| c <= 1),
                    "{name} {order:?}: {counts:?}"
                );
                // Every expanded node had its bound evaluated.
                for &(node, _) in &space.expanded {
                    assert_eq!(counts[node as usize], 1, "{name} {order:?} call {call}");
                }
                match &first {
                    None => first = Some(counts),
                    Some(first) => assert_eq!(&counts, first, "{name} {order:?}"),
                }
            }
        }
    }
}

/// Runs plain Dijkstra and the one pass on `graph` and asserts that they
/// agree on the goal and on the distance and predecessor of every node of
/// the path to it.  Returns the pops of both.
fn assert_one_pass_matches_plain(name: &str, graph: &Graph) -> [usize; 2] {
    let mut plain = graph.kernel();
    let want = graph.search(&mut plain, Order::Dijkstra);
    let mut one_pass = graph.unit_kernel();
    let got = graph.one_pass(&mut one_pass);
    assert_eq!(got, want, "{name}: goal");
    if let Some(goal) = want {
        let path = plain.path(goal);
        assert_eq!(one_pass.path(goal), path, "{name}: path");
        for &node in &path {
            assert_eq!(
                one_pass.dist(node),
                plain.dist(node),
                "{name}: dist of {node}"
            );
        }
    }
    assert_eq!(one_pass.stop_reason(), None, "{name}");
    [plain.popped(), one_pass.popped()]
}

/// Every graph shape of the other tests, and the ones built to trip each
/// rule of the one pass.
fn one_pass_graphs() -> Vec<(&'static str, Graph)> {
    let mut out = graphs_for(1..=16);
    out.push(("uniform grid", uniform_grid()));
    out.push(("tie across keys", tie_across_keys()));
    out.push(("equal-key goals", equal_key_goals(false)));
    out.push(("equal-key goals, swapped ids", equal_key_goals(true)));
    out.push(("diamond without goals", diamond()));
    out
}

#[test]
fn one_pass_returns_plain_dijkstras_goal_dist_and_path() {
    for (name, graph) in one_pass_graphs() {
        assert_one_pass_matches_plain(name, &graph);
    }
}

#[test]
fn one_pass_records_every_goal_in_the_band_and_returns_the_least_key_and_id() {
    // The lower id is 1 in both orders of the goals' ids.
    for swap in [false, true] {
        let graph = equal_key_goals(swap);
        let mut kernel = graph.unit_kernel();
        let mut space = UnitSpace {
            graph: &graph,
            expanded: Vec::new(),
        };
        let got = kernel.run_one_pass(&mut space, [(0, ())], |v| graph.h[v as usize]);
        assert_eq!(got, Some(1), "swap {swap}");
        // s, a, b and both goals: the pass went on past the first goal, and
        // expanded neither.  Without a payload, equal keys pop in no
        // particular order, so only the expanded set is fixed.
        assert_eq!(kernel.popped(), 5, "swap {swap}");
        let mut expanded = expanded_nodes(&space.expanded);
        expanded.sort_unstable();
        assert_eq!(expanded, vec![0, 3, 4], "swap {swap}");
        // With a payload, equal keys pop in `(dist, node)` order: s, a, b,
        // then the goals.
        let mut kernel = graph.kernel();
        let mut space = Space {
            graph: &graph,
            expanded: Vec::new(),
        };
        let got = kernel.run_one_pass(&mut space, [(0, 0)], |v| graph.h[v as usize]);
        assert_eq!(got, Some(1), "swap {swap}");
        assert_eq!(kernel.popped(), 5, "swap {swap}");
        assert_eq!(space.expanded, vec![(0, 0), (3, 1), (4, 1)], "swap {swap}");
    }
}

/// `s -> a` costs 1 and `s -> c` costs 2, and both step on to the goal `g`.
/// Under the bound `(s, c, a, g) = (3, 1, 2, 0)`, `s`, `c` and `a` share
/// key 3, where `c` has the lower id and `a` the lower distance.
fn equal_key_ranks() -> Graph {
    let (s, c, a, g) = (0usize, 1u32, 2u32, 3u32);
    let mut succ = vec![Vec::new(); 4];
    succ[s] = vec![(a, 1), (c, 2)];
    succ[a as usize] = vec![(g, 2)];
    succ[c as usize] = vec![(g, 1)];
    Graph {
        succ,
        goals: vec![false, false, false, true],
        sources: vec![s as u32],
        h: vec![3, 1, 2, 0],
        toll: 0,
    }
}

#[test]
fn a_one_pass_with_a_payload_pops_equal_keys_by_distance_and_a_star_by_id() {
    let graph = equal_key_ranks();
    let h = |v: u32| graph.h[v as usize];
    let mut orders = Vec::new();
    for one_pass in [false, true] {
        let mut kernel = graph.kernel();
        let mut space = Space {
            graph: &graph,
            expanded: Vec::new(),
        };
        let got = if one_pass {
            kernel.run_one_pass(&mut space, [(0, 0)], h)
        } else {
            kernel.run(&mut space, [(0, 0)], h)
        };
        assert_eq!(got, Some(3));
        assert_eq!(kernel.dist(3), 3);
        orders.push(expanded_nodes(&space.expanded));
    }
    assert_eq!(orders, [vec![0, 1, 2], vec![0, 2, 1]]);
}

#[test]
fn a_node_limit_after_the_first_goal_stops_the_one_pass_without_an_answer() {
    for (name, graph) in one_pass_graphs() {
        let mut kernel = graph.unit_kernel();
        graph.one_pass(&mut kernel);
        let limit = kernel.popped() - 1;
        let mut kernel = graph.unit_kernel();
        kernel.arm(limit as u64, &RouteBudget::default());
        assert_eq!(graph.one_pass(&mut kernel), None, "{name}");
        assert_eq!(
            kernel.stop_reason(),
            Some(StopReason::SearchNodes),
            "{name}"
        );
        assert_eq!(kernel.popped(), limit, "{name}");
        // Later searches refuse to start until the kernel is armed again.
        assert_eq!(graph.one_pass(&mut kernel), None, "{name}");
        assert_eq!(kernel.popped(), limit, "{name}");
        // The same with a payload.
        let mut kernel = graph.kernel();
        graph.search(&mut kernel, Order::OnePass);
        let limit = kernel.popped() - 1;
        let mut kernel = graph.kernel();
        kernel.arm(limit as u64, &RouteBudget::default());
        assert_eq!(graph.search(&mut kernel, Order::OnePass), None, "{name}");
        assert_eq!(
            kernel.stop_reason(),
            Some(StopReason::SearchNodes),
            "{name}"
        );
        assert_eq!(kernel.popped(), limit, "{name}");
    }
    // In the equal-key goals, the stop falls after `ga` was recorded.
    let graph = equal_key_goals(false);
    let mut kernel = graph.unit_kernel();
    kernel.arm(4, &RouteBudget::default());
    assert_eq!(graph.one_pass(&mut kernel), None);
}

#[test]
fn the_one_pass_evaluates_the_bound_at_most_once_per_node() {
    for (name, graph) in graphs() {
        let mut kernel = graph.unit_kernel();
        let calls: Vec<Cell<u32>> = vec![Cell::new(0); graph.succ.len()];
        let h = |v: u32| {
            let c = &calls[v as usize];
            c.set(c.get() + 1);
            graph.h[v as usize]
        };
        let mut space = UnitSpace {
            graph: &graph,
            expanded: Vec::new(),
        };
        let sources = graph.sources.iter().map(|&s| (s, ()));
        assert!(kernel.run_one_pass(&mut space, sources, h).is_some());
        assert!(calls.iter().all(|c| c.get() <= 1), "{name}");
        for &(node, _) in &space.expanded {
            assert_eq!(calls[node as usize].get(), 1, "{name}");
        }
    }
}
