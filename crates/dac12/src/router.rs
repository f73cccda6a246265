//! The DAC'12 baseline router: expanded-graph search over 2-pin connections.

use crate::ExpandedGraph;
use std::time::Instant;
use tpl_color::{
    color_route, ColorCostCache, ColorMap, ColorRule, ColorState, ColoredLayout, ColoredPath, Mask,
    TplConfig,
};
use tpl_design::{Design, NetId, PinId, RouteGuides, RoutingSolution};
use tpl_geom::{manhattan_mst, Dir, Point};
use tpl_grid::{
    guide_membership, negotiate, DenseBitSet, GoalBound, GoalMarks, GridGraph, GridState, Kernel,
    NetRoute, Outcome, PinCoverage, RouteBudget, SearchSpace, TraceNames, TradCost,
};

/// Where DAC'12's negotiation reports in traces.
const TRACE: TraceNames = TraceNames {
    pass: "dac12.rrr_iteration",
    rip_up: "dac12.rip_up",
    commit: "dac12.commit",
    detect: "dac12.conflict_detect",
    found: "dac12.conflicts_found",
    search_nodes: "dac12.search_nodes",
};

/// Configuration of the DAC'12 baseline router: the [`TplConfig`] it
/// shares with Mr.TPL, so both price a step, a stitch and a conflict alike.
pub type Dac12Config = TplConfig;

/// Statistics of a DAC'12 baseline run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dac12Stats {
    /// Colour conflicts remaining in the final layout.
    pub conflicts: usize,
    /// Stitches in the final layout.
    pub stitches: usize,
    /// Rip-up-and-reroute iterations executed.
    pub rrr_iterations: usize,
    /// Nets that could not be fully connected (no path for some connection,
    /// or left unrouted by a budget stop).
    pub failed_nets: usize,
    /// 2-pin connections (MST edges) searched over every pass, reroutes
    /// included.
    pub two_pin_connections: usize,
    /// Frontier pops over all expanded-graph searches (search effort).
    pub search_nodes: usize,
    /// Wall-clock routing time in seconds.
    pub runtime_seconds: f64,
    /// How the run ended: `Complete` without a budget, `Degraded` after a
    /// search-node budget trip, `Aborted` on deadline or cancellation.
    pub outcome: Outcome,
}

/// The outcome of a DAC'12 baseline run.
#[derive(Clone, Debug)]
pub struct Dac12Result {
    /// The routed geometry of every net.
    pub solution: RoutingSolution,
    /// Per-net, per-segment mask assignment.
    pub segment_masks: Vec<Vec<Option<Mask>>>,
    /// The final coloured layout used for evaluation.
    pub layout: ColoredLayout,
    /// Run statistics.
    pub stats: Dac12Stats,
}

/// The per-run buffers every connection's search reuses.
struct SearchBuffers {
    kernel: Kernel<()>,
    cache: ColorCostCache,
    bound: GoalBound,
    targets: GoalMarks,
    /// [`CostParams::base`](tpl_grid::CostParams::base) per layer and direction
    /// of [`Dir::ALL`].
    base: Vec<[u64; 6]>,
    in_guide: DenseBitSet,
}

/// The DAC'12 vertex-splitting TPL-aware router.
#[derive(Clone, Debug)]
pub struct Dac12Router {
    config: Dac12Config,
}

/// The expanded search graph of one 2-pin connection: `(vertex, mask)`
/// nodes, with the target pin's coverage as goals.  A step costs
/// [`TplConfig::step_costs`] with the node's one mask as the inherited
/// state: the traditional cost of the entered vertex plus the
/// colour-conflict pressure on its mask, plus `stitch_cost` when a planar
/// step changes the mask; a mask change across a via is free.
struct SplitSearch<'s, 'a> {
    trad: TradCost<'a>,
    expanded: &'s ExpandedGraph,
    map: &'s ColorMap,
    cache: &'s mut ColorCostCache,
    config: &'s TplConfig,
    /// The target pin's coverage, marked once per connection.
    targets: &'s GoalMarks,
    /// [`CostParams::base`](tpl_grid::CostParams::base) per layer and direction
    /// of [`Dir::ALL`].
    base: &'s [[u64; 6]],
    /// The lower bound, aimed at the target pin.
    bound: &'s GoalBound,
}

impl SearchSpace for SplitSearch<'_, '_> {
    type Payload = ();
    type Goal = u32;

    fn goal(&mut self, node: u32) -> Option<u32> {
        let (v, _) = self.expanded.unpack(node);
        self.targets.pin(v).map(|_| node)
    }

    fn expand(&mut self, node: u32, dist: u64, _: (), mut relax: impl FnMut(u32, u64, ())) {
        let (v, mask) = self.expanded.unpack(node);
        let inherited = ColorState::from_mask(mask);
        let grid = self.trad.grid;
        let at = grid.coords(v);
        let base = &self.base[at.0];
        let around = grid.neighbors_at(v, at);
        for (k, (dir, n)) in Dir::ALL.into_iter().zip(around).enumerate() {
            let Some(n) = n else {
                continue;
            };
            let Some((penalty, pressure)) = self.cache.record(&self.trad, self.map, n) else {
                continue;
            };
            let steps = self
                .config
                .step_costs(base[k] + penalty, pressure, dir, inherited);
            for (next_mask, step) in Mask::ALL.into_iter().zip(steps) {
                relax(self.expanded.node(n, next_mask), dist + step, ());
            }
        }
    }
}

impl SplitSearch<'_, '_> {
    /// Dijkstra over the expanded graph from the coverage of pin `from` to
    /// the targets.  Returns the path's vertices from source to destination
    /// and the mask of each.  The search has no payload, so it returns plain
    /// Dijkstra's path from one A\*-order pass ([`Kernel::run_one_pass`]),
    /// with the bound on a node's vertex as its `h`.
    fn route(&mut self, kernel: &mut Kernel<()>, from: PinId) -> Option<ColoredPath> {
        let (trad, expanded, bound) = (self.trad, self.expanded, self.bound);
        let sources = trad
            .coverage
            .vertices(from)
            .iter()
            .filter(|v| !trad.state.is_blocked(**v))
            .flat_map(|&v| Mask::ALL.map(|mask| (expanded.node(v, mask), ())));
        let goal = kernel.run_one_pass(self, sources.clone(), |node| {
            bound.h(trad.grid, expanded.unpack(node).0)
        });
        #[cfg(test)]
        tests::cross_check(self, kernel, sources, goal);
        let path = kernel.path(goal?).into_iter().map(|node| {
            let (v, mask) = expanded.unpack(node);
            (v, Some(mask))
        });
        Some(path.unzip())
    }
}

impl Dac12Router {
    /// Creates a router with the given configuration.
    pub fn new(config: Dac12Config) -> Self {
        Self { config }
    }

    /// Routes and colours every net of the design inside the given guides.
    ///
    /// Each net is ripped up just before it reroutes and committed as soon
    /// as it is routed ([`tpl_grid::negotiate`] under the [`ColorRule`] Mr.TPL
    /// shares).
    pub fn route(&self, design: &Design, guides: &RouteGuides) -> Dac12Result {
        self.route_with_budget(design, guides, &RouteBudget::default())
    }

    /// Like [`route`](Dac12Router::route), under a [`RouteBudget`] that
    /// [`tpl_grid::negotiate`] charges net by net, so where it trips is a
    /// pure function of the input.  The run returns its best-so-far
    /// solution; `stats.outcome` says why it stopped, and nets left without
    /// a complete route count in `stats.failed_nets`.
    pub fn route_with_budget(
        &self,
        design: &Design,
        guides: &RouteGuides,
        budget: &RouteBudget,
    ) -> Dac12Result {
        let start = Instant::now();
        let grid = GridGraph::build(design);
        let expanded = ExpandedGraph::new(&grid);
        let coverage = PinCoverage::build(&grid, design);
        let mut buffers = SearchBuffers {
            kernel: Kernel::new(expanded.num_nodes()),
            cache: ColorCostCache::new(&grid),
            bound: GoalBound::new(&grid, &self.config.cost),
            targets: GoalMarks::new(grid.num_vertices()),
            base: self.config.cost.base_table(&grid),
            in_guide: DenseBitSet::new(grid.num_vertices()),
        };
        let mut two_pin_connections = 0;

        let mut rule = ColorRule::new(design, &grid, self.config.history_increment);
        let run = negotiate(
            design,
            &grid,
            budget,
            self.config.max_rrr_iterations,
            TRACE,
            &mut rule,
            |turn, gstate, rule| {
                buffers.kernel.arm(turn.allowance, budget);
                let (route, connections) = self.route_net(
                    design,
                    &grid,
                    &expanded,
                    &coverage,
                    gstate,
                    rule.map(),
                    &mut buffers,
                    guides,
                    turn.net,
                );
                two_pin_connections += connections;
                route
            },
        );
        let layout = rule.into_layout();

        Dac12Result {
            stats: Dac12Stats {
                conflicts: run.left,
                stitches: layout.count_stitches(),
                rrr_iterations: run.rrr_iterations,
                failed_nets: run.failed_nets,
                two_pin_connections,
                search_nodes: run.search_nodes,
                runtime_seconds: start.elapsed().as_secs_f64(),
                outcome: run.outcome,
            },
            solution: run.solution,
            segment_masks: run.labels,
            layout,
        }
    }

    /// Routes one net as independent 2-pin connections along its MST,
    /// occupying each connection's vertices before the next one searches.
    /// Returns the net's route and its number of connections.
    #[allow(clippy::too_many_arguments)]
    fn route_net(
        &self,
        design: &Design,
        grid: &GridGraph,
        expanded: &ExpandedGraph,
        coverage: &PinCoverage,
        gstate: &mut GridState,
        map: &ColorMap,
        buffers: &mut SearchBuffers,
        guides: &RouteGuides,
        net_id: NetId,
    ) -> (NetRoute<Option<Mask>>, usize) {
        let net = design.net(net_id);
        let SearchBuffers {
            kernel,
            cache,
            bound,
            targets,
            base,
            in_guide,
        } = buffers;
        guide_membership(grid, guides, net_id, in_guide);

        // MST over the pins' centres.
        let (pins, centers): (Vec<PinId>, Vec<Point>) = net
            .pins()
            .iter()
            .filter_map(|p| design.pin(*p).bbox().map(|b| (*p, b.center())))
            .unzip();
        let mst = manhattan_mst(&centers);
        let connections = mst.len();

        let mut paths = Vec::with_capacity(connections);
        for (a, b) in mst {
            let trad = TradCost {
                grid,
                state: gstate,
                coverage,
                design,
                params: &self.config.cost,
                net: net_id,
                in_guide,
            };
            // One cache scope per connection: committing the previous
            // connection's occupancy changed the node penalties.
            cache.begin();
            let target = pins[b];
            bound.aim(grid, coverage, &[target]);
            mark_targets(targets, coverage, target);
            let mut search = SplitSearch {
                trad,
                expanded,
                map,
                cache,
                config: &self.config,
                targets,
                base,
                bound,
            };
            if let Some((path, masks)) = search.route(kernel, pins[a]) {
                // Commit this connection immediately: later connections of
                // the same net do not get to revise its colours (the
                // fundamental limitation of 2-pin methods).
                for &v in &path {
                    gstate.occupy(v, net_id);
                }
                paths.push((path, masks));
            }
        }

        let mut route = color_route(grid, design, coverage, map, net_id, &paths);
        route.complete = paths.len() == connections;
        route.vertices = paths.into_iter().flat_map(|(path, _)| path).collect();
        route.search_nodes = kernel.popped();
        route.stop = kernel.stop_reason();
        (route, connections)
    }
}

/// Marks the goals of a connection to `target`: every vertex it covers,
/// even one whose `pin_at` names an overlapping pin.
fn mark_targets(targets: &mut GoalMarks, coverage: &PinCoverage, target: PinId) {
    targets.begin();
    for &v in coverage.vertices(target) {
        targets.mark(v, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use tpl_color::{ColorState, Feature, FeatureKind};
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::{Point, Rect};
    use tpl_global::{GlobalConfig, GlobalRouter};
    use tpl_grid::{StopReason, VertexId};
    use tpl_ispd::CaseParams;

    thread_local! {
        /// Searches checked against plain Dijkstra on this thread, counted
        /// while a test has set it; `None` leaves [`SplitSearch::route`]
        /// unchecked.
        static CROSS_CHECKS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// When a test on this thread asked for it, reruns a search as plain
    /// Dijkstra (`Kernel::run` with `h = 0`) on a kernel of its own and
    /// asserts that the one pass found the same goal and path.
    pub(super) fn cross_check(
        search: &mut SplitSearch<'_, '_>,
        kernel: &Kernel<()>,
        sources: impl Iterator<Item = (u32, ())>,
        found: Option<u32>,
    ) {
        let Some(checked) = CROSS_CHECKS.get() else {
            return;
        };
        assert_eq!(
            kernel.stop_reason(),
            None,
            "cross-checked runs are unbudgeted"
        );
        let mut plain = Kernel::new(search.expanded.num_nodes());
        let want = plain.run(search, sources, |_| 0);
        assert_eq!(found, want, "goal");
        if let Some(goal) = want {
            assert_eq!(kernel.path(goal), plain.path(goal), "path to {goal}");
        }
        CROSS_CHECKS.set(Some(checked + 1));
    }

    #[test]
    fn every_search_of_a_routing_run_returns_plain_dijkstras_goal_and_path() {
        CROSS_CHECKS.set(Some(0));
        for suite in [CaseParams::ispd18_like, CaseParams::ispd19_like] {
            for case in 1..=6 {
                let mut params = suite(case).scaled(0.3);
                // A salt per case, so the seeds differ from the suites'.
                params.seed = params.seed.wrapping_add((case as u64 % 3) << 32);
                let design = params.generate();
                let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
                Dac12Router::new(Dac12Config::default()).route(&design, &guides);
            }
        }
        let checked = CROSS_CHECKS.take().expect("still counting");
        assert!(checked > 500, "{checked} searches checked");
    }

    fn small_case(scale: f64) -> (Design, RouteGuides) {
        let design = CaseParams::ispd18_like(1).scaled(scale).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        (design, guides)
    }

    #[test]
    fn routes_every_net_and_colors_every_segment() {
        let (design, guides) = small_case(0.3);
        let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        assert_eq!(result.solution.routed_count(), design.nets().len());
        assert_eq!(result.stats.failed_nets, 0);
        for (net_id, routed) in result.solution.iter() {
            let masks = &result.segment_masks[net_id.index()];
            assert_eq!(masks.len(), routed.segments.len());
            assert!(masks.iter().all(|m| m.is_some()));
        }
        // Multi-pin nets produce at least pins-1 two-pin connections.
        let expected_edges: usize = design.nets().iter().map(|n| n.pin_count() - 1).sum();
        assert!(result.stats.two_pin_connections >= expected_edges);
    }

    #[test]
    fn every_net_is_electrically_connected() {
        let (design, guides) = small_case(0.3);
        let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        for net in design.nets() {
            let routed = result.solution.get(net.id()).expect("routed");
            assert!(
                routed.connects_all_pins(&design, net.id()),
                "net {} broken",
                net.name()
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (design, guides) = small_case(0.25);
        let a = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        let b = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        assert_eq!(a.stats.conflicts, b.stats.conflicts);
        assert_eq!(a.stats.stitches, b.stats.stitches);
        assert_eq!(a.solution.total_wirelength(), b.solution.total_wirelength());
    }

    #[test]
    fn ispd18_case1_quarter_scale_reproduces_its_results() {
        // Pinned to the results of the `(vertex, mask)` search graph and the
        // pin-inheritance rule of `color_route`; any change to the expansion
        // order, the paths, the wire masks or the pin masks shows here.
        let (design, guides) = small_case(0.25);
        let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        let stats = &result.stats;
        assert_eq!((stats.conflicts, stats.stitches), (0, 1));
        assert_eq!(result.solution.total_wirelength(), 2540);
        assert_eq!(result.solution.total_vias(), 28);
        assert_eq!(stats.outcome, Outcome::Complete);
        assert!(stats.search_nodes > 0);
    }

    /// The point of track `(ix, iy)` on a grid of `Technology::ispd_like`
    /// (pitch 20, offset 10).
    fn track(ix: i64, iy: i64) -> Point {
        Point::new(10 + 20 * ix, 10 + 20 * iy)
    }

    fn dot(ix: i64, iy: i64) -> Rect {
        let p = track(ix, iy);
        Rect::from_coords(p.x - 2, p.y - 2, p.x + 2, p.y + 2)
    }

    #[test]
    fn every_connection_reads_fresh_node_penalties() {
        // One layer, 9 × 8 tracks.  Net `b` (routed first, smaller box) runs
        // straight along row 5 from edge to edge, a wall every path of net
        // `a` must cross at `occupied` cost.  `a`'s first connection, (2, 0)
        // → (2, 6), crosses at (2, 5) and takes that vertex over.  Its
        // second connection, (2, 6) → (6, 4), crosses there again for free:
        // down column 2 and around the blocked (3, 4) through row 3, two
        // vertical steps (320) more than a monotone path, rather than pay
        // `occupied` (5000) to cross anywhere else.  A node penalty cached
        // before the first connection committed would still charge (2, 5)
        // as foreign, and the detour would no longer pay: `a` would cross
        // the wall twice, on 2 fewer pitches.
        let mut builder = DesignBuilder::new(
            "wall",
            Technology::ispd_like(1),
            Rect::from_coords(0, 0, 180, 160),
        );
        let b0 = builder.add_pin_shape("b0", 0, dot(0, 5));
        let b1 = builder.add_pin_shape("b1", 0, dot(8, 5));
        let a0 = builder.add_pin_shape("a0", 0, dot(2, 0));
        let a1 = builder.add_pin_shape("a1", 0, dot(2, 6));
        let a2 = builder.add_pin_shape("a2", 0, dot(6, 4));
        let a = builder.add_net("a", vec![a0, a1, a2]);
        let b = builder.add_net("b", vec![b0, b1]);
        builder.add_blockage(0, dot(3, 4));
        let design = builder.build().unwrap();
        let guides = RouteGuides::new(design.nets().len());
        let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        let stats = &result.stats;
        assert_eq!((stats.failed_nets, stats.rrr_iterations), (0, 0));

        let routed = |net| result.solution.get(net).expect("every net is routed");
        let crossings: Vec<i64> = (0..9)
            .filter(|&ix| {
                let p = track(ix, 5);
                routed(a).segments.iter().any(|s| s.seg.contains_point(&p))
            })
            .collect();
        assert_eq!(crossings, [2]);
        let length = |net| routed(net).wirelength();
        // 6 pitches for the first connection, 3 + 4 + 1 for the second.
        assert_eq!((length(a), length(b)), (14 * 20, 8 * 20));
    }

    #[test]
    fn a_pin_inherits_its_first_colored_covered_vertex_not_its_nearest_segment() {
        // One layer, 20 × 10 tracks.  Net `n` runs from `a` at (0, 4) over
        // the off-grid pin `b`, which covers (5..=7, 4) and then
        // (5..=7, 5), to `c` at (14, 5).  Net `f`, routed first (smaller
        // box), lies along row 7 from column 10 to 13: within `Dcolor` of
        // row 5 there, but not of `b`.  So `n`'s connection to `c` takes
        // another mask than its connection from `a`.  The connection from
        // `a` ends on (5, 4), `b`'s first covered vertex; the one to `c`
        // leaves from (7, 5), and its segment overlaps `b`, nearer than
        // the row-4 segment.  `b` inherits the row-4 mask.
        let mut builder = DesignBuilder::new(
            "inherit",
            Technology::ispd_like(1),
            Rect::from_coords(0, 0, 400, 200),
        );
        let a = builder.add_pin_shape("a", 0, dot(0, 4));
        let b_box = Rect::from_coords(106, 100, 154, 108);
        let b = builder.add_pin_shape("b", 0, b_box);
        let c = builder.add_pin_shape("c", 0, dot(14, 5));
        let f0 = builder.add_pin_shape("f0", 0, dot(10, 7));
        let f1 = builder.add_pin_shape("f1", 0, dot(13, 7));
        let n = builder.add_net("n", vec![a, b, c]);
        builder.add_net("f", vec![f0, f1]);
        let design = builder.build().unwrap();
        let grid = GridGraph::build(&design);
        let coverage = PinCoverage::build(&grid, &design);
        assert_eq!(coverage.vertices(b)[0], grid.vertex(0, 5, 4));
        let guides = RouteGuides::new(design.nets().len());
        let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        assert_eq!((result.stats.failed_nets, result.stats.conflicts), (0, 0));

        let routed = result.solution.get(n).expect("routed");
        let masks = &result.segment_masks[n.index()];
        let first_covered = track(5, 4);
        let (row4, nearest) = (
            routed
                .segments
                .iter()
                .position(|s| s.seg.contains_point(&first_covered)),
            (0..masks.len()).min_by_key(|&i| b_box.spacing_to(&routed.segments[i].rect())),
        );
        let (row4, nearest) = (
            masks[row4.expect("a wire reaches (5, 4)")],
            masks[nearest.unwrap()],
        );
        assert_ne!(row4, nearest, "the two connections take different masks");
        let pin_mask = result
            .layout
            .features()
            .iter()
            .find(|f| f.kind == FeatureKind::Pin && f.net == n && f.rect == b_box)
            .expect("b is coloured")
            .mask;
        assert_eq!(pin_mask, row4);
    }

    #[test]
    fn every_vertex_the_target_pin_covers_is_a_goal_at_every_mask() {
        // `wide` overlaps `dot`, which was added first and so owns (4, 4)
        // in `pin_at`; a connection to `wide` still ends there.
        let mut builder = DesignBuilder::new(
            "overlap",
            Technology::ispd_like(1),
            Rect::from_coords(0, 0, 200, 200),
        );
        let dot_pin = builder.add_pin_shape("dot", 0, dot(4, 4));
        let (lo, hi) = (track(4, 4), track(6, 4));
        let wide = builder.add_pin_shape("wide", 0, Rect::from_coords(lo.x, lo.y, hi.x, hi.y));
        builder.add_net("n", vec![dot_pin, wide]);
        let design = builder.build().unwrap();
        let grid = GridGraph::build(&design);
        let expanded = ExpandedGraph::new(&grid);
        let coverage = PinCoverage::build(&grid, &design);
        let shared = grid.vertex(0, 4, 4);
        assert_eq!(coverage.pin_at(shared), Some(dot_pin));
        assert!(coverage.vertices(wide).contains(&shared));

        let state = GridState::new(&grid, &design);
        let map = ColorMap::new(&grid, design.tech().dcolor());
        let mut cache = ColorCostCache::new(&grid);
        let config = Dac12Config::default();
        let bound = GoalBound::new(&grid, &config.cost);
        let mut targets = GoalMarks::new(grid.num_vertices());
        mark_targets(&mut targets, &coverage, wide);
        let base = config.cost.base_table(&grid);
        let in_guide = DenseBitSet::full(grid.num_vertices());
        let mut search = SplitSearch {
            trad: TradCost {
                grid: &grid,
                state: &state,
                coverage: &coverage,
                design: &design,
                params: &config.cost,
                net: NetId::new(0),
                in_guide: &in_guide,
            },
            expanded: &expanded,
            map: &map,
            cache: &mut cache,
            config: &config,
            targets: &targets,
            base: &base,
            bound: &bound,
        };
        for node in 0..expanded.num_nodes() as u32 {
            let (v, _) = expanded.unpack(node);
            let want = coverage.vertices(wide).contains(&v).then_some(node);
            assert_eq!(search.goal(node), want, "{v:?}");
        }
    }

    #[test]
    fn the_bound_is_consistent_with_every_split_step() {
        for salt in 0..3u64 {
            let mut case = CaseParams::ispd18_like(1 + salt as usize).scaled(0.3);
            case.seed = case.seed.wrapping_add(salt << 32);
            let design = case.generate();
            let grid = GridGraph::build(&design);
            let expanded = ExpandedGraph::new(&grid);
            let coverage = PinCoverage::build(&grid, &design);
            let mut state = GridState::new(&grid, &design);
            let mut map = ColorMap::new(&grid, design.tech().dcolor());
            let net = design.nets()[salt as usize].id();
            let other = NetId::new(net.0 + 1);
            let mut r = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for v in grid.iter_vertices() {
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                match r % 16 {
                    0 => state.add_history(v, 60 * (r >> 4 & 3) as u32),
                    1 => state.occupy(v, other),
                    2 => {
                        map.insert(Feature::wire(
                            other,
                            grid.layer_of(v),
                            Rect::from_point(grid.point_of(v)).expanded(4),
                            Some(Mask::from_index((r >> 4) as usize % 3)),
                        ));
                    }
                    _ => {}
                }
            }
            let mut cache = ColorCostCache::new(&grid);
            cache.begin();
            let config = Dac12Config::default();
            let mut bound = GoalBound::new(&grid, &config.cost);
            bound.aim(&grid, &coverage, &design.net(net).pins()[1..2]);
            let targets = GoalMarks::new(grid.num_vertices());
            let base = config.cost.base_table(&grid);
            let in_guide = DenseBitSet::full(grid.num_vertices());
            let mut search = SplitSearch {
                trad: TradCost {
                    grid: &grid,
                    state: &state,
                    coverage: &coverage,
                    design: &design,
                    params: &config.cost,
                    net,
                    in_guide: &in_guide,
                },
                expanded: &expanded,
                map: &map,
                cache: &mut cache,
                config: &config,
                targets: &targets,
                base: &base,
                bound: &bound,
            };
            let h = |node: u32| bound.h(&grid, expanded.unpack(node).0);
            for node in 0..expanded.num_nodes() as u32 {
                search.expand(node, 0, (), |to, step, ()| {
                    assert!(h(node) <= step + h(to), "{node} -> {to}");
                });
            }
        }
    }

    #[test]
    fn a_planar_mask_change_costs_one_stitch_and_a_via_mask_change_none() {
        let mut builder = DesignBuilder::new(
            "steps",
            Technology::ispd_like(2),
            Rect::from_coords(0, 0, 200, 200),
        );
        let p0 = builder.add_pin_shape("p0", 0, dot(0, 0));
        let p1 = builder.add_pin_shape("p1", 0, dot(9, 9));
        builder.add_net("n", vec![p0, p1]);
        let design = builder.build().unwrap();
        let grid = GridGraph::build(&design);
        let expanded = ExpandedGraph::new(&grid);
        let coverage = PinCoverage::build(&grid, &design);
        let state = GridState::new(&grid, &design);
        let map = ColorMap::new(&grid, design.tech().dcolor());
        let mut cache = ColorCostCache::new(&grid);
        cache.begin();
        let config = Dac12Config::default();
        let bound = GoalBound::new(&grid, &config.cost);
        let targets = GoalMarks::new(grid.num_vertices());
        let base = config.cost.base_table(&grid);
        let in_guide = DenseBitSet::full(grid.num_vertices());
        let trad = TradCost {
            grid: &grid,
            state: &state,
            coverage: &coverage,
            design: &design,
            params: &config.cost,
            net: NetId::new(0),
            in_guide: &in_guide,
        };
        let mut search = SplitSearch {
            trad,
            expanded: &expanded,
            map: &map,
            cache: &mut cache,
            config: &config,
            targets: &targets,
            base: &base,
            bound: &bound,
        };

        // Expands `(v, mask)` at distance 100, checks every relaxation
        // against the traditional step plus a stitch on a planar change, and
        // counts them.
        let mut check = |v: VertexId, mask: Mask| {
            let mut relaxed = 0;
            search.expand(expanded.node(v, mask), 100, (), |n, d, ()| {
                let (to, to_mask) = expanded.unpack(n);
                let dir = Dir::ALL
                    .into_iter()
                    .find(|dir| grid.neighbor(v, *dir) == Some(to))
                    .expect("relaxed nodes are neighbours");
                let stitch = dir.is_planar() && to_mask != mask;
                let step = trad.step(v, to, dir).unwrap();
                let stitch_cost = if stitch { config.stitch_cost } else { 0 };
                let expected = 100 + step + u64::from(stitch_cost);
                assert_eq!(d, expected, "{dir:?} onto {to_mask:?} from {mask:?}");
                relaxed += 1;
            });
            relaxed
        };
        // Each vertex below has four planar neighbours and one via (up from
        // layer 0, down from layer 1), each relaxed at all three masks.  From
        // the stitched-to mask, staying on it is free again.
        let v = grid.vertex(0, 4, 4);
        let up = grid.neighbor(v, Dir::Up).unwrap();
        let east = grid.neighbor(v, Dir::East).unwrap();
        for (v, mask) in [(v, 0), (up, 1), (east, 1)] {
            assert_eq!(check(v, Mask::from_index(mask)), 5 * 3);
        }
    }

    #[test]
    fn a_node_budget_degrades_the_run_deterministically() {
        let (design, guides) = small_case(0.25);
        let full = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        let cap = full.stats.search_nodes as u64 / 2;
        let budget = RouteBudget::with_max_search_nodes(cap);
        let route = || {
            Dac12Router::new(Dac12Config::default()).route_with_budget(&design, &guides, &budget)
        };
        let base = route();
        assert_eq!(
            base.stats.outcome,
            Outcome::Degraded(StopReason::SearchNodes)
        );
        assert!(base.stats.failed_nets > 0, "some nets must be left behind");
        assert!(base.stats.search_nodes as u64 <= cap, "the budget binds");
        let again = route();
        assert_eq!(
            again.stats,
            Dac12Stats {
                runtime_seconds: again.stats.runtime_seconds,
                ..base.stats
            }
        );
        assert_eq!(again.segment_masks, base.segment_masks);
    }

    #[test]
    fn color_state_is_unused_but_masks_are_single_valued() {
        // Sanity: the baseline never produces multi-candidate colour states;
        // every committed segment has exactly one mask.
        let (design, guides) = small_case(0.3);
        let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        for masks in &result.segment_masks {
            for m in masks.iter().flatten() {
                assert!(ColorState::from_mask(*m).len() == 1);
            }
        }
    }
}
