//! The full-design colour-blind detailed router.

use crate::maze::{backtrace, search, MazeBuffers};
use tpl_design::{Design, NetId, PinId, RouteGuides, RoutingSolution};
use tpl_grid::{
    emit_wires, guide_membership, negotiate, CostParams, DenseBitSet, EpochStamps, GridGraph,
    GridState, NetRoute, Outcome, OverlapRule, PinCoverage, RouteBudget, TraceNames, TradCost,
    VertexId,
};

/// Where the Dr.CU-like router's negotiation reports in traces.
const TRACE: TraceNames = TraceNames {
    pass: "drcu.rrr_iteration",
    rip_up: "drcu.rip_up",
    commit: "drcu.commit",
    detect: "drcu.overlap_detect",
    found: "drcu.overlaps_found",
    search_nodes: "drcu.search_nodes",
};

/// Configuration of the Dr.CU-like router.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DrCuConfig {
    /// Traditional cost parameters.
    pub cost: CostParams,
    /// Maximum number of rip-up-and-reroute iterations after the initial
    /// routing pass.
    pub max_rrr_iterations: usize,
    /// History cost added to every vertex involved in an overlap when a net
    /// is ripped up.
    pub history_increment: u32,
}

impl Default for DrCuConfig {
    fn default() -> Self {
        Self {
            cost: CostParams::default(),
            max_rrr_iterations: 3,
            history_increment: 30,
        }
    }
}

/// Statistics of a detailed-routing run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrCuStats {
    /// Number of rip-up-and-reroute iterations actually executed.
    pub rrr_iterations: usize,
    /// Nets that could not be fully connected (no path found for some pin,
    /// or left unrouted by a budget stop).
    pub failed_nets: usize,
    /// Vertices still shared by two different nets after the final pass.
    pub remaining_overlaps: usize,
    /// Frontier pops over all maze searches (search effort).
    pub search_nodes: usize,
    /// How the run ended: `Complete` without a budget, `Degraded` after a
    /// search-node budget trip, `Aborted` on deadline or cancellation.
    pub outcome: Outcome,
}

/// The outcome of a routing run.
#[derive(Clone, Debug)]
pub struct DrCuResult {
    /// The routed geometry of every net.
    pub solution: RoutingSolution,
    /// Run statistics.
    pub stats: DrCuStats,
}

/// The per-run buffers every net's search reuses.
struct SearchBuffers {
    maze: MazeBuffers,
    in_guide: DenseBitSet,
    /// Membership in the routed tree of the net being routed.
    in_tree: EpochStamps,
}

/// The TPL-unaware detailed router.
#[derive(Clone, Debug)]
pub struct DrCuRouter {
    config: DrCuConfig,
}

impl DrCuRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: DrCuConfig) -> Self {
        Self { config }
    }

    /// Routes every net of the design inside the given guides.
    ///
    /// The passes are [`tpl_grid::negotiate`]'s under the
    /// [`OverlapRule`]: a pass leaves the vertices a later net took over
    /// from an earlier one, and the earlier net reroutes against the
    /// history charged under them.  Each net is ripped up just before it
    /// reroutes and committed as soon as it is routed.
    pub fn route(&self, design: &Design, guides: &RouteGuides) -> DrCuResult {
        self.route_with_budget(design, guides, &RouteBudget::default())
    }

    /// Like [`route`](DrCuRouter::route), under a [`RouteBudget`] that
    /// [`tpl_grid::negotiate`] charges net by net, so where it trips is a
    /// pure function of the input.  The run returns its best-so-far
    /// solution; `stats.outcome` says why it stopped, and nets left without
    /// a complete route count in `stats.failed_nets`.
    pub fn route_with_budget(
        &self,
        design: &Design,
        guides: &RouteGuides,
        budget: &RouteBudget,
    ) -> DrCuResult {
        let grid = GridGraph::build(design);
        let coverage = PinCoverage::build(&grid, design);
        let mut buffers = SearchBuffers {
            maze: MazeBuffers::new(&grid, &self.config.cost),
            in_guide: DenseBitSet::new(grid.num_vertices()),
            in_tree: EpochStamps::new(grid.num_vertices()),
        };
        let rule = &mut OverlapRule {
            history_increment: self.config.history_increment,
        };
        let run = negotiate(
            design,
            &grid,
            budget,
            self.config.max_rrr_iterations,
            TRACE,
            rule,
            |turn, state, _| {
                buffers.maze.kernel.arm(turn.allowance, budget);
                let net = turn.net;
                self.route_net(design, &grid, &coverage, &mut buffers, state, guides, net)
            },
        );
        DrCuResult {
            stats: DrCuStats {
                rrr_iterations: run.rrr_iterations,
                failed_nets: run.failed_nets,
                remaining_overlaps: run.left,
                search_nodes: run.search_nodes,
                outcome: run.outcome,
            },
            solution: run.solution,
        }
    }

    /// Routes one (multi-pin) net.
    #[allow(clippy::too_many_arguments)]
    fn route_net(
        &self,
        design: &Design,
        grid: &GridGraph,
        coverage: &PinCoverage,
        buffers: &mut SearchBuffers,
        state: &GridState,
        guides: &RouteGuides,
        net_id: NetId,
    ) -> NetRoute {
        let net = design.net(net_id);
        let SearchBuffers {
            maze,
            in_guide,
            in_tree,
        } = buffers;
        guide_membership(grid, guides, net_id, in_guide);
        let cost = TradCost {
            grid,
            state,
            coverage,
            design,
            params: &self.config.cost,
            net: net_id,
            in_guide,
        };

        let mut route = NetRoute {
            complete: true,
            ..NetRoute::default()
        };
        let tree = &mut route.vertices;
        in_tree.begin();
        grow(tree, in_tree, coverage.vertices(net.pins()[0]));
        let mut unreached: Vec<PinId> = net.pins()[1..].to_vec();

        while !unreached.is_empty() {
            let Some((dst, pin)) = search(&cost, maze, tree, &unreached) else {
                route.complete = false;
                break;
            };
            let path = backtrace(&maze.kernel, dst);
            emit_wires(grid, &path, |_| (), &mut route.routed, &mut route.labels);
            grow(tree, in_tree, &path);
            // The reached pin's own access vertices join the tree so later
            // connections can start from them.
            grow(tree, in_tree, coverage.vertices(pin));
            unreached.retain(|p| *p != pin);
            // Any other pin covered by the path is also reached.
            unreached.retain(|p| {
                !coverage
                    .vertices(*p)
                    .iter()
                    .any(|v| in_tree.is_fresh(v.index()))
            });
        }
        route.search_nodes = maze.kernel.popped();
        route.stop = maze.kernel.stop_reason();
        route
    }
}

/// Appends to `tree` the `vertices` not yet in it, in order, marking them
/// in `in_tree`.
fn grow(tree: &mut Vec<VertexId>, in_tree: &mut EpochStamps, vertices: &[VertexId]) {
    for &v in vertices {
        if !in_tree.is_fresh(v.index()) {
            in_tree.touch(v.index());
            tree.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::Rect;
    use tpl_global::{GlobalConfig, GlobalRouter};
    use tpl_grid::StopReason;
    use tpl_ispd::CaseParams;

    fn small_case() -> (Design, RouteGuides) {
        let design = CaseParams::ispd18_like(1).scaled(0.3).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        (design, guides)
    }

    #[test]
    fn routes_every_net_of_a_small_benchmark() {
        let (design, guides) = small_case();
        let result = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        assert_eq!(result.solution.routed_count(), design.nets().len());
        assert_eq!(result.stats.failed_nets, 0);
        assert!(result.solution.total_wirelength() > 0);
    }

    #[test]
    fn every_routed_net_connects_its_pins() {
        let (design, guides) = small_case();
        let result = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        for net in design.nets() {
            let routed = result.solution.get(net.id()).expect("net routed");
            assert!(
                routed.connects_all_pins(&design, net.id()),
                "net {} is electrically broken",
                net.name()
            );
        }
    }

    #[test]
    fn rrr_resolves_or_reports_overlaps() {
        let (design, guides) = small_case();
        let result = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        // With negotiation the small case should end up with no overlaps.
        assert_eq!(result.stats.remaining_overlaps, 0);
    }

    #[test]
    fn zero_rrr_iterations_still_produces_a_full_solution() {
        let (design, guides) = small_case();
        let config = DrCuConfig {
            max_rrr_iterations: 0,
            ..DrCuConfig::default()
        };
        let result = DrCuRouter::new(config).route(&design, &guides);
        assert_eq!(result.solution.routed_count(), design.nets().len());
    }

    #[test]
    fn a_node_budget_degrades_the_run_deterministically() {
        let (design, guides) = small_case();
        let router = DrCuRouter::new(DrCuConfig::default());
        let full = router.route(&design, &guides);
        assert_eq!(full.stats.outcome, Outcome::Complete);
        let cap = full.stats.search_nodes as u64 / 2;
        let budget = RouteBudget::with_max_search_nodes(cap);
        let base = router.route_with_budget(&design, &guides, &budget);
        assert_eq!(
            base.stats.outcome,
            Outcome::Degraded(StopReason::SearchNodes)
        );
        assert!(base.stats.failed_nets > 0, "some nets must be left behind");
        assert!(base.stats.search_nodes as u64 <= cap, "the budget binds");
        assert!(base.solution.routed_count() < design.nets().len());
        let again = router.route_with_budget(&design, &guides, &budget);
        assert_eq!(again.stats, base.stats);
        assert_eq!(again.solution, base.solution);
    }

    #[test]
    fn a_budget_stop_in_the_last_net_of_an_iteration_counts_that_net() {
        let design = CaseParams::ispd19_like(2).scaled(0.3).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let first_pass = DrCuRouter::new(DrCuConfig {
            max_rrr_iterations: 0,
            ..DrCuConfig::default()
        })
        .route(&design, &guides);
        assert!(
            first_pass.stats.remaining_overlaps > 0,
            "the first pass leaves overlaps to rip up"
        );
        // One node short of the first pass: the stop lands in its last net.
        let budget = RouteBudget::with_max_search_nodes(first_pass.stats.search_nodes as u64 - 1);
        let result =
            DrCuRouter::new(DrCuConfig::default()).route_with_budget(&design, &guides, &budget);
        assert_eq!(
            result.stats.outcome,
            Outcome::Degraded(StopReason::SearchNodes)
        );
        let broken = design
            .nets()
            .iter()
            .filter(|n| {
                result
                    .solution
                    .get(n.id())
                    .is_none_or(|r| !r.connects_all_pins(&design, n.id()))
            })
            .count();
        assert_eq!(broken, 1, "only the last net is cut short");
        assert_eq!(result.stats.failed_nets, broken);
    }

    #[test]
    fn a_net_that_failed_in_an_earlier_pass_still_counts() {
        // One layer, 10 × 10 tracks.  Net `a`'s second pin is walled in by
        // blockages, so `a` fails in pass 0; it never overlaps another net,
        // so no later pass reroutes it.  Nets `b` (row 5) and `c` (column
        // 4) both run from edge to edge, so they must share a vertex on the
        // one layer: every pass leaves an overlap, and the loop runs its
        // last pass, which routes `b` or `c` completely.
        let dot = |ix: i64, iy: i64| {
            let (x, y) = (10 + 20 * ix, 10 + 20 * iy);
            Rect::from_coords(x - 2, y - 2, x + 2, y + 2)
        };
        let mut builder = DesignBuilder::new(
            "walled",
            Technology::ispd_like(1),
            Rect::from_coords(0, 0, 200, 200),
        );
        let a0 = builder.add_pin_shape("a0", 0, dot(1, 8));
        let a1 = builder.add_pin_shape("a1", 0, dot(8, 1));
        let b0 = builder.add_pin_shape("b0", 0, dot(0, 5));
        let b1 = builder.add_pin_shape("b1", 0, dot(9, 5));
        let c0 = builder.add_pin_shape("c0", 0, dot(4, 0));
        let c1 = builder.add_pin_shape("c1", 0, dot(4, 9));
        builder.add_net("a", vec![a0, a1]);
        builder.add_net("b", vec![b0, b1]);
        builder.add_net("c", vec![c0, c1]);
        for (ix, iy) in [(7, 1), (9, 1), (8, 0), (8, 2)] {
            builder.add_blockage(0, dot(ix, iy));
        }
        let design = builder.build().unwrap();
        let guides = RouteGuides::new(design.nets().len());
        let result = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        let max_rrr_iterations = DrCuConfig::default().max_rrr_iterations;
        assert_eq!(result.stats.rrr_iterations, max_rrr_iterations);
        assert!(result.stats.remaining_overlaps > 0);
        let broken: Vec<&str> = design
            .nets()
            .iter()
            .filter(|n| {
                result
                    .solution
                    .get(n.id())
                    .is_none_or(|r| !r.connects_all_pins(&design, n.id()))
            })
            .map(|n| n.name())
            .collect();
        assert_eq!(broken, ["a"]);
        assert_eq!(result.stats.failed_nets, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let (design, guides) = small_case();
        let a = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        let b = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        assert_eq!(a.solution.total_wirelength(), b.solution.total_wirelength());
        assert_eq!(a.solution.total_vias(), b.solution.total_vias());
    }
}
