//! The congestion-aware global router.

use crate::GCellGrid;
use std::cmp::Reverse;
use tpl_design::{Design, LayerId, NetId, RouteGuides};
use tpl_geom::{manhattan_mst, Point};
use tpl_grid::{Kernel, Outcome, RouteBudget, SearchSpace, StopReason};

/// Key units per cost unit of the maze frontier: the minimum edge cost of
/// 1.0 is 1024 key units.
const KEY_RESOLUTION: f64 = 1024.0;

/// Configuration of the global router.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlobalConfig {
    /// Number of detailed-routing tracks per gcell side.
    pub tracks_per_gcell: usize,
    /// Usable routing capacity per gcell edge (tracks), per planar layer.
    pub capacity_per_layer: usize,
    /// Number of negotiation rounds after the initial pass.
    pub negotiation_rounds: usize,
    /// Cost multiplier applied to an over-capacity gcell edge.
    pub overflow_penalty: f64,
    /// History cost added to every overflowed edge per negotiation round.
    pub history_increment: f64,
    /// Number of gcells by which guides are expanded around the route.
    pub guide_expansion: usize,
    /// Number of gcells the maze fallback may stray outside a net's terminal
    /// bounding box.  Bounding the search keeps a net's demand confined to
    /// its declared region and prunes the frontier on large dies.
    pub maze_margin: usize,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        Self {
            tracks_per_gcell: 5,
            capacity_per_layer: 4,
            negotiation_rounds: 2,
            overflow_penalty: 8.0,
            history_increment: 2.0,
            guide_expansion: 1,
            maze_margin: 8,
        }
    }
}

/// Statistics reported after global routing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GlobalStats {
    /// Total number of gcell-to-gcell edges used, summed over nets.
    pub total_edge_usage: usize,
    /// Number of edges whose demand exceeds capacity after the final round.
    pub overflowed_edges: usize,
    /// Number of 2-pin connections routed with an L-pattern.
    pub pattern_routed: usize,
    /// Number of 2-pin connections that needed the maze fallback.
    pub maze_routed: usize,
    /// Total heap pops across all maze searches (search effort, independent
    /// of wall clock and worker count).
    pub search_nodes: usize,
    /// How the run ended: `Complete` without a budget, `Degraded` after a
    /// search-node budget trip (budget-stopped mazes fall back to L-paths),
    /// `Aborted` on deadline or cancellation.
    pub outcome: Outcome,
}

/// Per-net routing counters, merged into [`GlobalStats`] after each net.
#[derive(Clone, Copy, Debug, Default)]
struct NetRouteStats {
    pattern_routed: usize,
    maze_routed: usize,
    search_nodes: usize,
    /// Worst stop reason any of this net's maze searches hit.
    stop: Option<StopReason>,
}

/// The gcell-based global router.
///
/// See the crate documentation for the algorithm outline.
#[derive(Clone, Debug)]
pub struct GlobalRouter {
    config: GlobalConfig,
}

/// Internal edge-demand bookkeeping on the coarse grid.
struct EdgeMap {
    nx: usize,
    /// demand on horizontal edges ((gx,gy) -> (gx+1,gy)), size (nx-1)*ny.
    h_demand: Vec<u32>,
    /// demand on vertical edges ((gx,gy) -> (gx,gy+1)), size nx*(ny-1).
    v_demand: Vec<u32>,
    h_history: Vec<f64>,
    v_history: Vec<f64>,
    capacity: u32,
}

impl EdgeMap {
    fn new(nx: usize, ny: usize, capacity: u32) -> Self {
        Self {
            nx,
            h_demand: vec![0; (nx.saturating_sub(1)) * ny],
            v_demand: vec![0; nx * (ny.saturating_sub(1))],
            h_history: vec![0.0; (nx.saturating_sub(1)) * ny],
            v_history: vec![0.0; nx * (ny.saturating_sub(1))],
            capacity,
        }
    }

    fn h_index(&self, gx: usize, gy: usize) -> usize {
        gy * (self.nx - 1) + gx
    }

    fn v_index(&self, gx: usize, gy: usize) -> usize {
        gy * self.nx + gx
    }

    /// Cost of crossing the edge between two horizontally adjacent cells.
    fn h_cost(&self, gx: usize, gy: usize, cfg: &GlobalConfig) -> f64 {
        let i = self.h_index(gx, gy);
        let demand = self.h_demand[i];
        let over = demand >= self.capacity;
        1.0 + self.h_history[i] + if over { cfg.overflow_penalty } else { 0.0 }
    }

    fn v_cost(&self, gx: usize, gy: usize, cfg: &GlobalConfig) -> f64 {
        let i = self.v_index(gx, gy);
        let demand = self.v_demand[i];
        let over = demand >= self.capacity;
        1.0 + self.v_history[i] + if over { cfg.overflow_penalty } else { 0.0 }
    }

    fn add_path(&mut self, path: &[(usize, usize)], delta: i64) {
        for w in path.windows(2) {
            let (ax, ay) = w[0];
            let (bx, by) = w[1];
            if ay == by {
                let i = self.h_index(ax.min(bx), ay);
                self.h_demand[i] = (self.h_demand[i] as i64 + delta).max(0) as u32;
            } else {
                let i = self.v_index(ax, ay.min(by));
                self.v_demand[i] = (self.v_demand[i] as i64 + delta).max(0) as u32;
            }
        }
    }

    fn path_overflowed(&self, path: &[(usize, usize)]) -> bool {
        path.windows(2).any(|w| {
            let (ax, ay) = w[0];
            let (bx, by) = w[1];
            if ay == by {
                self.h_demand[self.h_index(ax.min(bx), ay)] > self.capacity
            } else {
                self.v_demand[self.v_index(ax, ay.min(by))] > self.capacity
            }
        })
    }

    fn bump_history_on_overflow(&mut self, increment: f64) -> usize {
        let mut overflowed = 0;
        for i in 0..self.h_demand.len() {
            if self.h_demand[i] > self.capacity {
                self.h_history[i] += increment;
                overflowed += 1;
            }
        }
        for i in 0..self.v_demand.len() {
            if self.v_demand[i] > self.capacity {
                self.v_history[i] += increment;
                overflowed += 1;
            }
        }
        overflowed
    }

    fn overflowed_edges(&self) -> usize {
        self.h_demand.iter().filter(|d| **d > self.capacity).count()
            + self.v_demand.iter().filter(|d| **d > self.capacity).count()
    }
}

impl GlobalRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: GlobalConfig) -> Self {
        Self { config }
    }

    /// Routes every net of the design and returns its route guides.
    pub fn route(&self, design: &Design) -> RouteGuides {
        self.route_with_stats(design).0
    }

    /// Routes every net and also returns routing statistics.
    ///
    /// Each pass (the initial pass and every negotiation round) routes its
    /// queue one net at a time, committing each net's edge demand before the
    /// next net routes.
    pub fn route_with_stats(&self, design: &Design) -> (RouteGuides, GlobalStats) {
        self.route_with_budget(design, &RouteBudget::default())
    }

    /// Like [`route_with_stats`](GlobalRouter::route_with_stats), under a
    /// [`RouteBudget`].
    ///
    /// Node accounting mirrors the detailed router: each net searches under
    /// what the budget has left after the nets before it, and a
    /// budget-stopped maze falls back to the cheaper L-path — so a budgeted
    /// run still produces guides covering every pin, just less
    /// congestion-aware ones, with `stats.outcome` set to
    /// [`Outcome::Degraded`].  A passed deadline or cancellation stops the
    /// pass before the next net with [`Outcome::Aborted`]; terminal
    /// gcells are always included in the guides, so even aborted runs emit
    /// structurally valid (pin-covering) guides.
    pub fn route_with_budget(
        &self,
        design: &Design,
        budget: &RouteBudget,
    ) -> (RouteGuides, GlobalStats) {
        let _route_span = tpl_trace::span!("global.route", nets = design.nets().len());
        tpl_fault::point!("global.route");
        let mut budget = budget.clone();
        if tpl_fault::trips_budget("global.budget") {
            // Injected budget exhaustion: behave exactly like a zero-node
            // budget and exercise the degraded path.
            budget.max_search_nodes = Some(0);
        }
        let budget = &budget;
        let mut run_outcome = Outcome::Complete;
        let cfg = &self.config;
        let grid = GCellGrid::build(design, cfg.tracks_per_gcell);
        // Planar capacity: layers above M1 contribute their tracks.
        let planar_layers = design.tech().num_layers().saturating_sub(1).max(1);
        let capacity = (cfg.capacity_per_layer * planar_layers) as u32;
        let mut edges = EdgeMap::new(grid.nx(), grid.ny(), capacity);
        let mut stats = GlobalStats::default();
        let mut kernel = Kernel::new(grid.len(), KEY_RESOLUTION);

        // Net order: larger bounding boxes first (they have fewer detour
        // options), deterministic tie-break on id.
        let mut order: Vec<NetId> = design.nets().iter().map(|n| n.id()).collect();
        order.sort_by_key(|id| {
            let bbox = design
                .net_bbox(*id)
                .map(|b| b.half_perimeter())
                .unwrap_or(0);
            (Reverse(bbox), id.index())
        });

        // Terminal gcells are derived from the pin shapes exactly once per
        // net, then reused by every routing pass and by the final guide
        // conversion (which previously re-scanned all pins of the design).
        let net_terminals: Vec<Vec<(usize, usize)>> = design
            .nets()
            .iter()
            .map(|net| {
                let mut terminals: Vec<(usize, usize)> = net
                    .pins()
                    .iter()
                    .filter_map(|p| design.pin(*p).bbox())
                    .map(|b| grid.cell_of(b.center()))
                    .collect();
                terminals.sort_unstable();
                terminals.dedup();
                terminals
            })
            .collect();

        // Each net is decomposed into MST edges over its pin centres.
        let mut net_paths: Vec<Vec<Vec<(usize, usize)>>> = vec![Vec::new(); design.nets().len()];

        // Pass 0 routes everything; negotiation rounds rip up and reroute
        // the nets crossing overflowed edges with history cost in place.
        let mut queue: Vec<NetId> = order.clone();
        'rounds: for round in 0..=cfg.negotiation_rounds {
            let _round_span = tpl_trace::span!("global.round", round = round);
            tpl_fault::point!("global.round", round);
            if round > 0 {
                let overflowed = edges.bump_history_on_overflow(cfg.history_increment);
                if overflowed == 0 {
                    break;
                }
                let next: Vec<NetId> = order
                    .iter()
                    .copied()
                    .filter(|id| {
                        net_paths[id.index()]
                            .iter()
                            .any(|p| edges.path_overflowed(p))
                    })
                    .collect();
                if next.is_empty() {
                    break;
                }
                for &net_id in &next {
                    for p in &net_paths[net_id.index()] {
                        edges.add_path(p, -1);
                    }
                    net_paths[net_id.index()].clear();
                }
                queue = next;
            }

            for &net_id in &queue {
                let remaining = match budget.allowance(stats.search_nodes as u64) {
                    Ok(remaining) => remaining,
                    Err(reason) => {
                        run_outcome = run_outcome.merge(Outcome::from_stop(reason));
                        // Skipped nets keep their previous-round paths (pass 0:
                        // none); the terminal gcells added below still give every
                        // net a pin-covering guide.
                        break 'rounds;
                    }
                };
                let (paths, net_stats) = self.route_net(
                    &grid,
                    &edges,
                    &net_terminals[net_id.index()],
                    &mut kernel,
                    remaining,
                    budget,
                );
                for p in &paths {
                    edges.add_path(p, 1);
                }
                stats.pattern_routed += net_stats.pattern_routed;
                stats.maze_routed += net_stats.maze_routed;
                stats.search_nodes += net_stats.search_nodes;
                if let Some(reason) = net_stats.stop {
                    run_outcome = run_outcome.merge(Outcome::from_stop(reason));
                }
                tpl_trace::counter!("global.pattern_routed", net_stats.pattern_routed);
                tpl_trace::counter!("global.maze_routed", net_stats.maze_routed);
                tpl_trace::counter!("global.search_nodes", net_stats.search_nodes);
                net_paths[net_id.index()] = paths;
            }
        }
        stats.outcome = run_outcome;

        stats.overflowed_edges = edges.overflowed_edges();
        stats.total_edge_usage = net_paths
            .iter()
            .map(|paths| {
                paths
                    .iter()
                    .map(|p| p.len().saturating_sub(1))
                    .sum::<usize>()
            })
            .sum();

        // Convert paths into guides: the union of visited gcells expanded by
        // `guide_expansion` cells, emitted on every routing layer.  The pin
        // gcells collected before routing are included so single-gcell nets
        // still get a guide.
        let mut guides = RouteGuides::new(design.nets().len());
        for net in design.nets() {
            let idx = net.id().index();
            let mut cells: Vec<(usize, usize)> = net_paths[idx].iter().flatten().copied().collect();
            cells.extend_from_slice(&net_terminals[idx]);
            cells.sort_unstable();
            cells.dedup();
            let e = cfg.guide_expansion;
            for (gx, gy) in cells {
                let lo = grid.cell_rect(gx.saturating_sub(e), gy.saturating_sub(e));
                let hi = grid.cell_rect((gx + e).min(grid.nx() - 1), (gy + e).min(grid.ny() - 1));
                let rect = lo.hull(&hi);
                for layer in 0..design.tech().num_layers() {
                    guides.add(net.id(), LayerId::from(layer), rect);
                }
            }
        }
        (guides, stats)
    }

    /// The rectangular gcell window a net's routing is confined to: its
    /// terminal bounding box expanded by `maze_margin`, clamped to the grid.
    fn net_window(
        &self,
        grid: &GCellGrid,
        terminals: &[(usize, usize)],
    ) -> (usize, usize, usize, usize) {
        let Some(&(fx, fy)) = terminals.first() else {
            return (0, 0, 0, 0);
        };
        let (mut x0, mut y0, mut x1, mut y1) = (fx, fy, fx, fy);
        for &(x, y) in terminals {
            x0 = x0.min(x);
            y0 = y0.min(y);
            x1 = x1.max(x);
            y1 = y1.max(y);
        }
        let m = self.config.maze_margin;
        (
            x0.saturating_sub(m),
            y0.saturating_sub(m),
            (x1 + m).min(grid.nx() - 1),
            (y1 + m).min(grid.ny() - 1),
        )
    }

    /// Routes one net against the current edge map: MST topology, then
    /// L-pattern or window-bounded maze per 2-pin edge.
    fn route_net(
        &self,
        grid: &GCellGrid,
        edges: &EdgeMap,
        terminals: &[(usize, usize)],
        kernel: &mut Kernel<()>,
        node_limit: u64,
        budget: &RouteBudget,
    ) -> (Vec<Vec<(usize, usize)>>, NetRouteStats) {
        let mut net_stats = NetRouteStats::default();
        if terminals.len() < 2 {
            return (Vec::new(), net_stats);
        }
        let window = self.net_window(grid, terminals);
        let cells: Vec<Point> = terminals
            .iter()
            .map(|&(x, y)| Point::new(x as i64, y as i64))
            .collect();
        let mst = manhattan_mst(&cells);
        let mut paths = Vec::with_capacity(mst.len());
        for (a, b) in mst {
            let src = terminals[a];
            let dst = terminals[b];
            paths.push(self.route_two_pin(
                grid,
                edges,
                src,
                dst,
                window,
                kernel,
                &mut net_stats,
                node_limit,
                budget,
            ));
        }
        (paths, net_stats)
    }

    /// Routes a single 2-pin connection on the coarse grid.
    #[allow(clippy::too_many_arguments)]
    fn route_two_pin(
        &self,
        grid: &GCellGrid,
        edges: &EdgeMap,
        src: (usize, usize),
        dst: (usize, usize),
        window: (usize, usize, usize, usize),
        kernel: &mut Kernel<()>,
        net_stats: &mut NetRouteStats,
        node_limit: u64,
        budget: &RouteBudget,
    ) -> Vec<(usize, usize)> {
        let cfg = &self.config;
        // Try both L shapes first.
        let l1 = l_path(src, dst, true);
        let l2 = l_path(src, dst, false);
        let c1 = path_cost(&l1, edges, cfg);
        let c2 = path_cost(&l2, edges, cfg);
        let best_l = if c1 <= c2 { (l1, c1) } else { (l2, c2) };
        // If the cheaper L avoids overflow entirely, take it.
        let clean_len = (best_l.0.len() as f64 - 1.0).max(0.0);
        if best_l.1 <= clean_len + 0.5 {
            net_stats.pattern_routed += 1;
            return best_l.0;
        }
        // Otherwise run a congestion-aware maze (Dijkstra) bounded to the
        // net's window.
        net_stats.maze_routed += 1;
        let _maze_span = tpl_trace::span!("global.maze");
        // `node_limit` is the whole net's allowance: earlier mazes of this
        // net have spent part of it.
        let limit = node_limit.saturating_sub(net_stats.search_nodes as u64);
        let (path, nodes, stop) =
            maze_route(grid, edges, src, dst, window, cfg, kernel, limit, budget);
        net_stats.search_nodes += nodes;
        if let Some(reason) = stop {
            net_stats.stop = net_stats.stop.max(Some(reason));
        }
        // A stopped maze returns no path; degrade to the cheaper L so the
        // net stays connected on the coarse grid.
        path.unwrap_or(best_l.0)
    }
}

/// The two L-shaped gcell paths between two cells.
fn l_path(src: (usize, usize), dst: (usize, usize), horizontal_first: bool) -> Vec<(usize, usize)> {
    let mut path = vec![src];
    let mut cur = src;
    let step_x = |cur: &mut (usize, usize), path: &mut Vec<(usize, usize)>| {
        while cur.0 != dst.0 {
            cur.0 = if dst.0 > cur.0 { cur.0 + 1 } else { cur.0 - 1 };
            path.push(*cur);
        }
    };
    let step_y = |cur: &mut (usize, usize), path: &mut Vec<(usize, usize)>| {
        while cur.1 != dst.1 {
            cur.1 = if dst.1 > cur.1 { cur.1 + 1 } else { cur.1 - 1 };
            path.push(*cur);
        }
    };
    if horizontal_first {
        step_x(&mut cur, &mut path);
        step_y(&mut cur, &mut path);
    } else {
        step_y(&mut cur, &mut path);
        step_x(&mut cur, &mut path);
    }
    path
}

fn path_cost(path: &[(usize, usize)], edges: &EdgeMap, cfg: &GlobalConfig) -> f64 {
    let mut cost = 0.0;
    for w in path.windows(2) {
        let (ax, ay) = w[0];
        let (bx, by) = w[1];
        cost += if ay == by {
            edges.h_cost(ax.min(bx), ay, cfg)
        } else {
            edges.v_cost(ax, ay.min(by), cfg)
        };
    }
    cost
}

/// The gcell maze as a kernel search space: 4-neighbour moves inside the
/// `(x0, y0, x1, y1)` window (inclusive) at congestion-aware edge costs.
struct GcellMaze<'a> {
    grid: &'a GCellGrid,
    edges: &'a EdgeMap,
    cfg: &'a GlobalConfig,
    window: (usize, usize, usize, usize),
    goal: u32,
}

impl SearchSpace for GcellMaze<'_> {
    type Payload = ();
    type Goal = ();

    /// Drain-through-goal-key stop rule: once the goal is reached, stop at
    /// the first entry more than one quantum past its settled key.
    fn goal(&mut self, _: u32, key: u64, search: &Kernel<()>) -> Option<()> {
        let d = search.dist(self.goal);
        (d.is_finite() && key > search.key(d) + 1).then_some(())
    }

    fn expand(&mut self, node: u32, du: f64, _: (), mut relax: impl FnMut(u32, f64, ())) {
        let (wx0, wy0, wx1, wy1) = self.window;
        let (grid, edges, cfg) = (self.grid, self.edges, self.cfg);
        let u = node as usize;
        let (ux, uy) = (u % grid.nx(), u / grid.nx());
        let mut step = |vx: usize, vy: usize, cost: f64| {
            relax(grid.index(vx, vy) as u32, du + cost, ());
        };
        if ux < wx1 {
            step(ux + 1, uy, edges.h_cost(ux, uy, cfg));
        }
        if ux > wx0 {
            step(ux - 1, uy, edges.h_cost(ux - 1, uy, cfg));
        }
        if uy < wy1 {
            step(ux, uy + 1, edges.v_cost(ux, uy, cfg));
        }
        if uy > wy0 {
            step(ux, uy - 1, edges.v_cost(ux, uy - 1, cfg));
        }
    }
}

/// Best-first search on the gcell grid with congestion-aware edge costs,
/// confined to the `(x0, y0, x1, y1)` window (inclusive).  Any rectangular
/// window is connected, so the search always succeeds when both endpoints
/// lie inside it.  Also returns the number of frontier pops (search effort).
///
/// The search is goal-directed (A*) but its path does not depend on the
/// expansion order: instead of stopping when the goal pops, it drains every
/// frontier entry whose key is within one quantum of the goal's settled key
/// (the one-quantum slack absorbs float-rounding noise at quantisation
/// boundaries).  Every vertex on an optimal path is then settled to its
/// exact minimal float distance, and the path is rebuilt by a *canonical
/// backtrace* — walking from the goal and taking the first neighbour (in
/// fixed west/east/south/north order) whose settled distance exactly
/// accounts for the connecting edge.  The returned path is therefore a pure
/// function of the edge costs.
///
/// `node_limit` caps the frontier pops (deterministic), and `budget`
/// supplies the cooperative wall-clock/cancellation checks probed every few
/// thousand pops.  A stopped search returns no path plus the
/// [`StopReason`]; callers fall back to the L-path.
type MazeResult = (Option<Vec<(usize, usize)>>, usize, Option<StopReason>);

#[allow(clippy::too_many_arguments)]
fn maze_route(
    grid: &GCellGrid,
    edges: &EdgeMap,
    src: (usize, usize),
    dst: (usize, usize),
    window: (usize, usize, usize, usize),
    cfg: &GlobalConfig,
    kernel: &mut Kernel<()>,
    node_limit: u64,
    budget: &RouteBudget,
) -> MazeResult {
    let (wx0, wy0, wx1, wy1) = window;
    let start = grid.index(src.0, src.1) as u32;
    let goal = grid.index(dst.0, dst.1) as u32;
    if start == goal {
        return (Some(vec![src]), 0, None);
    }
    // Admissible, consistent lower bound: every gcell step costs >= 1.0.
    let nx = grid.nx();
    let h = |node: u32| -> f64 {
        let (x, y) = (node as usize % nx, node as usize / nx);
        ((x as i64 - dst.0 as i64).abs() + (y as i64 - dst.1 as i64).abs()) as f64
    };
    kernel.arm(node_limit, budget);
    let mut maze = GcellMaze {
        grid,
        edges,
        cfg,
        window,
        goal,
    };
    kernel.run(&mut maze, [(start, ())], h);
    let popped = kernel.popped();
    if let Some(stop) = kernel.stop_reason() {
        // A stopped search may not have settled the goal's true minimum, so
        // the canonical backtrace would not be reliable; report no path and
        // let the caller degrade to the L-pattern.
        return (None, popped, Some(stop));
    }
    if !kernel.dist(goal).is_finite() {
        return (None, popped, None);
    }
    // Canonical backtrace: from the goal, take the first in-window
    // neighbour (west, east, south, north) whose settled distance plus the
    // connecting edge cost reproduces this vertex's distance bit-for-bit.
    // The settled distances are the exact minima over all path sums, so the
    // chosen predecessor — and hence the whole path — does not depend on
    // the order the search expanded vertices in.
    let dist = |x: usize, y: usize| kernel.dist(grid.index(x, y) as u32);
    let mut path = vec![dst];
    let (mut cx, mut cy) = dst;
    while (cx, cy) != src {
        let d = dist(cx, cy);
        let mut step: Option<(usize, usize)> = None;
        let consider = |vx: usize, vy: usize, cost: f64, step: &mut Option<(usize, usize)>| {
            if step.is_none() && dist(vx, vy) + cost == d {
                *step = Some((vx, vy));
            }
        };
        if cx > wx0 {
            consider(cx - 1, cy, edges.h_cost(cx - 1, cy, cfg), &mut step);
        }
        if cx < wx1 {
            consider(cx + 1, cy, edges.h_cost(cx, cy, cfg), &mut step);
        }
        if cy > wy0 {
            consider(cx, cy - 1, edges.v_cost(cx, cy - 1, cfg), &mut step);
        }
        if cy < wy1 {
            consider(cx, cy + 1, edges.v_cost(cx, cy, cfg), &mut step);
        }
        let Some((px, py)) = step else {
            // Defensive: cannot happen for settled distances, but never loop.
            return (None, popped, None);
        };
        path.push((px, py));
        (cx, cy) = (px, py);
    }
    path.reverse();
    (Some(path), popped, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::Rect;
    use tpl_ispd::CaseParams;

    #[test]
    fn l_paths_have_manhattan_length() {
        let p = l_path((1, 1), (4, 5), true);
        assert_eq!(p.len(), 1 + 3 + 4);
        assert_eq!(*p.first().unwrap(), (1, 1));
        assert_eq!(*p.last().unwrap(), (4, 5));
        let q = l_path((4, 5), (1, 1), false);
        assert_eq!(q.len(), 8);
        // Consecutive cells are always 4-adjacent.
        for w in p.windows(2).chain(q.windows(2)) {
            let d = (w[0].0 as i64 - w[1].0 as i64).abs() + (w[0].1 as i64 - w[1].1 as i64).abs();
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn guides_cover_every_pin_of_every_net() {
        let design = CaseParams::ispd18_like(1).scaled(0.4).generate();
        let router = GlobalRouter::new(GlobalConfig::default());
        let guides = router.route(&design);
        for net in design.nets() {
            for pin in net.pins() {
                let (layer, rect) = design.pin(*pin).shapes()[0];
                assert!(
                    guides.covers(net.id(), layer, &rect),
                    "guide of {} misses pin {}",
                    net.name(),
                    design.pin(*pin).name()
                );
            }
        }
    }

    #[test]
    fn congestion_negotiation_reduces_or_keeps_overflow() {
        let design = CaseParams::ispd18_like(2).scaled(0.4).generate();
        let no_nego = GlobalRouter::new(GlobalConfig {
            negotiation_rounds: 0,
            ..GlobalConfig::default()
        });
        let with_nego = GlobalRouter::new(GlobalConfig::default());
        let (_, s0) = no_nego.route_with_stats(&design);
        let (_, s1) = with_nego.route_with_stats(&design);
        assert!(s1.overflowed_edges <= s0.overflowed_edges);
    }

    #[test]
    fn two_pin_straight_nets_route_with_patterns() {
        let mut b = DesignBuilder::new(
            "straight",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 800, 800),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(706, 6, 714, 14));
        b.add_net("n", vec![p0, p1]);
        let d = b.build().unwrap();
        let (guides, stats) = GlobalRouter::new(GlobalConfig::default()).route_with_stats(&d);
        assert_eq!(stats.pattern_routed, 1);
        assert_eq!(stats.maze_routed, 0);
        assert!(guides.total_regions() > 0);
    }

    #[test]
    fn maze_route_finds_shortest_path_on_empty_grid() {
        let mut b = DesignBuilder::new(
            "m",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(900, 900, 910, 910));
        b.add_net("n", vec![p0, p1]);
        let d = b.build().unwrap();
        let grid = GCellGrid::build(&d, 5);
        let edges = EdgeMap::new(grid.nx(), grid.ny(), 10);
        let window = (0, 0, grid.nx() - 1, grid.ny() - 1);
        let cfg = GlobalConfig::default();
        let mut kernel = Kernel::new(grid.len(), KEY_RESOLUTION);
        let (path, nodes, stop) = maze_route(
            &grid,
            &edges,
            (0, 0),
            (5, 5),
            window,
            &cfg,
            &mut kernel,
            u64::MAX,
            &RouteBudget::default(),
        );
        assert_eq!(stop, None);
        let path = path.unwrap();
        assert_eq!(path.len(), 11);
        assert_eq!(path[0], (0, 0));
        assert_eq!(*path.last().unwrap(), (5, 5));
        assert!(nodes > 0);
    }

    #[test]
    fn a_tight_window_prunes_the_search() {
        let mut b = DesignBuilder::new(
            "w",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(900, 900, 910, 910));
        b.add_net("n", vec![p0, p1]);
        let d = b.build().unwrap();
        let grid = GCellGrid::build(&d, 5);
        let edges = EdgeMap::new(grid.nx(), grid.ny(), 10);
        let cfg = GlobalConfig::default();
        let mut kernel = Kernel::new(grid.len(), KEY_RESOLUTION);
        let full = (0, 0, grid.nx() - 1, grid.ny() - 1);
        let (wide_path, wide_nodes, _) = maze_route(
            &grid,
            &edges,
            (0, 0),
            (5, 5),
            full,
            &cfg,
            &mut kernel,
            u64::MAX,
            &RouteBudget::default(),
        );
        let (tight_path, tight_nodes, _) = maze_route(
            &grid,
            &edges,
            (0, 0),
            (5, 5),
            (0, 0, 5, 5),
            &cfg,
            &mut kernel,
            u64::MAX,
            &RouteBudget::default(),
        );
        // The bounded search finds an equally short path with fewer pops.
        assert_eq!(
            tight_path.as_ref().unwrap().len(),
            wide_path.as_ref().unwrap().len()
        );
        assert!(tight_nodes <= wide_nodes);
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Textbook O(V²) Dijkstra over the same congestion costs, returning the
    /// exact distance to `dst` (the float sums associate left-to-right along
    /// a path, exactly like the kernel's relaxations).
    fn reference_maze_cost(
        nx: usize,
        ny: usize,
        edges: &EdgeMap,
        src: (usize, usize),
        dst: (usize, usize),
        cfg: &GlobalConfig,
    ) -> f64 {
        let n = nx * ny;
        let mut dist = vec![f64::INFINITY; n];
        let mut done = vec![false; n];
        dist[src.1 * nx + src.0] = 0.0;
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
            let (x, y) = (u % nx, u / nx);
            let mut relax = |tx: usize, ty: usize, cost: f64| {
                let t = ty * nx + tx;
                let nd = dist[u] + cost;
                if nd < dist[t] {
                    dist[t] = nd;
                }
            };
            if x > 0 {
                relax(x - 1, y, edges.h_cost(x - 1, y, cfg));
            }
            if x + 1 < nx {
                relax(x + 1, y, edges.h_cost(x, y, cfg));
            }
            if y > 0 {
                relax(x, y - 1, edges.v_cost(x, y - 1, cfg));
            }
            if y + 1 < ny {
                relax(x, y + 1, edges.v_cost(x, y, cfg));
            }
        }
        dist[dst.1 * nx + dst.0]
    }

    /// The cost of a returned path, summed src-to-dst like the search does.
    fn path_cost(path: &[(usize, usize)], edges: &EdgeMap, cfg: &GlobalConfig) -> f64 {
        let mut total = 0.0;
        for w in path.windows(2) {
            let ((ax, ay), (bx, by)) = (w[0], w[1]);
            total += if ay == by {
                edges.h_cost(ax.min(bx), ay, cfg)
            } else {
                edges.v_cost(ax, ay.min(by), cfg)
            };
        }
        total
    }

    /// Property test of the maze kernel: on random congestion maps (random
    /// history and demand) the returned path costs exactly what a reference
    /// Dijkstra pays.
    #[test]
    fn random_congestion_maps_match_reference_dijkstra() {
        let mut b = DesignBuilder::new(
            "rc",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(900, 900, 910, 910));
        b.add_net("n", vec![p0, p1]);
        let d = b.build().unwrap();
        let grid = GCellGrid::build(&d, 5);
        let (nx, ny) = (grid.nx(), grid.ny());
        let window = (0, 0, nx - 1, ny - 1);
        let cfg = GlobalConfig::default();
        let mut kernel = Kernel::new(grid.len(), KEY_RESOLUTION);
        for seed in 1..=6u64 {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut edges = EdgeMap::new(nx, ny, 3);
            for i in 0..edges.h_history.len() {
                edges.h_history[i] = (xorshift(&mut s) % 8) as f64 * 0.5;
                edges.h_demand[i] = (xorshift(&mut s) % 5) as u32;
            }
            for i in 0..edges.v_history.len() {
                edges.v_history[i] = (xorshift(&mut s) % 8) as f64 * 0.5;
                edges.v_demand[i] = (xorshift(&mut s) % 5) as u32;
            }
            let src = (
                (xorshift(&mut s) as usize) % nx,
                (xorshift(&mut s) as usize) % ny,
            );
            let dst = (
                (xorshift(&mut s) as usize) % nx,
                (xorshift(&mut s) as usize) % ny,
            );
            let want = reference_maze_cost(nx, ny, &edges, src, dst, &cfg);
            let (path, _, _) = maze_route(
                &grid,
                &edges,
                src,
                dst,
                window,
                &cfg,
                &mut kernel,
                u64::MAX,
                &RouteBudget::default(),
            );
            let path = path.expect("full window always has a path");
            assert!(
                (path_cost(&path, &edges, &cfg) - want).abs() < 1e-9,
                "seed {seed}: cost drift"
            );
        }
    }

    #[test]
    fn budget_stopped_maze_degrades_to_l_paths() {
        let mut b = DesignBuilder::new(
            "m",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(900, 900, 910, 910));
        b.add_net("n", vec![p0, p1]);
        let d = b.build().unwrap();
        let grid = GCellGrid::build(&d, 5);
        let edges = EdgeMap::new(grid.nx(), grid.ny(), 10);
        let window = (0, 0, grid.nx() - 1, grid.ny() - 1);
        let cfg = GlobalConfig::default();
        let mut kernel = Kernel::new(grid.len(), KEY_RESOLUTION);
        let (path, nodes, stop) = maze_route(
            &grid,
            &edges,
            (0, 0),
            (5, 5),
            window,
            &cfg,
            &mut kernel,
            3,
            &RouteBudget::default(),
        );
        assert_eq!(path, None, "a stopped maze yields no path");
        assert_eq!(stop, Some(StopReason::SearchNodes));
        assert!(nodes <= 3);
    }

    #[test]
    fn zero_budget_run_still_covers_every_pin() {
        let design = CaseParams::ispd18_like(1).scaled(0.4).generate();
        let router = GlobalRouter::new(GlobalConfig::default());
        let budget = RouteBudget::with_max_search_nodes(0);
        let (guides, stats) = router.route_with_budget(&design, &budget);
        assert_eq!(stats.outcome, Outcome::Degraded(StopReason::SearchNodes));
        for net in design.nets() {
            for pin in net.pins() {
                let (layer, rect) = design.pin(*pin).shapes()[0];
                assert!(
                    guides.covers(net.id(), layer, &rect),
                    "degraded guide of {} misses a pin",
                    net.name()
                );
            }
        }
    }

    #[test]
    fn budgeted_global_run_is_deterministic() {
        let design = CaseParams::ispd18_like(2).scaled(0.4).generate();
        let router = GlobalRouter::new(GlobalConfig::default());
        let (_, full) = router.route_with_stats(&design);
        let cap = full.search_nodes as u64 / 2;
        let budget = RouteBudget::with_max_search_nodes(cap);
        let (base_guides, base_stats) = router.route_with_budget(&design, &budget);
        assert_eq!(
            base_stats.outcome,
            Outcome::Degraded(StopReason::SearchNodes)
        );
        assert!(base_stats.search_nodes as u64 <= cap, "the budget binds");
        let (guides, stats) = router.route_with_budget(&design, &budget);
        assert_eq!(stats, base_stats);
        assert_eq!(guides.total_regions(), base_guides.total_regions());
    }
}
