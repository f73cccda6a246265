//! The full-design colour-blind detailed router (rip-up & reroute loop).

use crate::maze::{backtrace, search, MazeBuffers};
use std::collections::HashSet;
use tpl_design::{Design, NetId, PinId, RouteGuides, RoutedNet, RoutingSolution};
use tpl_grid::{
    guide_membership, path_to_routed_net, CostParams, DenseBitSet, GridGraph, GridState, Outcome,
    PinCoverage, RouteBudget, TradCost, VertexId,
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
    pub history_increment: f64,
}

impl Default for DrCuConfig {
    fn default() -> Self {
        Self {
            cost: CostParams::default(),
            max_rrr_iterations: 3,
            history_increment: 30.0,
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
    /// The grid paths (vertex lists) per net, kept for downstream colouring.
    pub net_vertices: Vec<Vec<VertexId>>,
}

/// The per-run buffers every net's search reuses.
struct SearchBuffers {
    maze: MazeBuffers,
    in_guide: DenseBitSet,
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
    pub fn route(&self, design: &Design, guides: &RouteGuides) -> DrCuResult {
        self.route_with_budget(design, guides, &RouteBudget::default())
    }

    /// Like [`route`](DrCuRouter::route), under a [`RouteBudget`].
    ///
    /// Search nodes are charged between nets: each net searches under what
    /// the budget has left after the nets before it, so where the budget
    /// trips is a pure function of the input.  On exhaustion (or a passed
    /// deadline, or cancellation) the router stops before the next net and
    /// returns its best-so-far solution; nets left without geometry count in
    /// `stats.failed_nets`, and `stats.outcome` says why the run stopped.
    pub fn route_with_budget(
        &self,
        design: &Design,
        guides: &RouteGuides,
        budget: &RouteBudget,
    ) -> DrCuResult {
        let grid = GridGraph::build(design);
        let coverage = PinCoverage::build(&grid, design);
        let mut state = GridState::new(&grid, design);
        let mut buffers = SearchBuffers {
            maze: MazeBuffers::new(&grid, &self.config.cost),
            in_guide: DenseBitSet::new(grid.num_vertices()),
        };
        let mut solution = RoutingSolution::new(design.nets().len());
        let mut net_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); design.nets().len()];
        let mut stats = DrCuStats::default();

        let mut to_route = design.nets_by_bbox();
        'rrr: for iteration in 0..=self.config.max_rrr_iterations {
            stats.rrr_iterations = iteration;
            stats.failed_nets = 0;
            for (i, &net_id) in to_route.iter().enumerate() {
                let remaining = match budget.allowance(stats.search_nodes as u64) {
                    Ok(remaining) => remaining,
                    Err(reason) => {
                        stats.outcome = stats.outcome.merge(Outcome::from_stop(reason));
                        stats.failed_nets += to_route[i..]
                            .iter()
                            .filter(|id| solution.get(**id).is_none())
                            .count();
                        stats.remaining_overlaps =
                            collect_overlap_victims(design, &state, &net_vertices).len();
                        break 'rrr;
                    }
                };
                // Rip up any stale geometry of this net.
                state.release_vertices(&net_vertices[net_id.index()], net_id);
                solution.rip_up(net_id);
                net_vertices[net_id.index()].clear();

                buffers.maze.kernel.arm(remaining, budget);
                let (routed, vertices, complete) = self.route_net(
                    design,
                    &grid,
                    &coverage,
                    &mut buffers,
                    &state,
                    guides,
                    net_id,
                );
                let popped = buffers.maze.kernel.popped();
                stats.search_nodes += popped;
                tpl_trace::counter!("drcu.search_nodes", popped);
                if let Some(reason) = buffers.maze.kernel.stop_reason() {
                    stats.outcome = stats.outcome.merge(Outcome::from_stop(reason));
                }
                if !complete {
                    stats.failed_nets += 1;
                }
                for &v in &vertices {
                    state.occupy(v, net_id);
                }
                solution.set(net_id, routed);
                net_vertices[net_id.index()] = vertices;
            }

            // Find overlap victims: nets whose vertices are also claimed by
            // an earlier-committed net are detectable by re-walking every
            // net's vertex list and checking the final occupant.
            let victims = collect_overlap_victims(design, &state, &net_vertices);
            // A budget stop inside this iteration ends the run here, so the
            // net it left incomplete still counts in `failed_nets`.
            if victims.is_empty()
                || iteration == self.config.max_rrr_iterations
                || !stats.outcome.is_complete()
            {
                stats.remaining_overlaps = victims.len();
                break;
            }
            // Rip up the victims and try again.
            let mut next: Vec<NetId> = victims.iter().map(|(net, _)| *net).collect();
            next.sort_unstable_by_key(|id| id.index());
            next.dedup();
            for &(_, vertex) in &victims {
                state.add_history(vertex, self.config.history_increment);
            }
            for &net in &next {
                state.release_vertices(&net_vertices[net.index()], net);
            }
            to_route = next;
        }

        DrCuResult {
            solution,
            stats,
            net_vertices,
        }
    }

    /// Routes one (multi-pin) net; returns its geometry, the grid vertices it
    /// uses, and whether every pin was connected.
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
    ) -> (RoutedNet, Vec<VertexId>, bool) {
        let net = design.net(net_id);
        let SearchBuffers { maze, in_guide } = buffers;
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

        let mut routed = RoutedNet::new();
        let mut tree: Vec<VertexId> = Vec::new();
        let mut tree_set: HashSet<VertexId> = HashSet::new();

        let start_pin = net.pins()[0];
        for &v in coverage.vertices(start_pin) {
            if tree_set.insert(v) {
                tree.push(v);
            }
        }
        let mut unreached: Vec<PinId> = net.pins()[1..].to_vec();
        let mut complete = true;

        while !unreached.is_empty() {
            match search(&cost, maze, &tree, &unreached) {
                Some((dst, pin)) => {
                    let path = backtrace(&maze.kernel, dst);
                    path_to_routed_net(grid, &path, &mut routed);
                    for &v in &path {
                        if tree_set.insert(v) {
                            tree.push(v);
                        }
                    }
                    // The reached pin's own access vertices join the tree so
                    // later connections can start from them.
                    for &v in coverage.vertices(pin) {
                        if tree_set.insert(v) {
                            tree.push(v);
                        }
                    }
                    unreached.retain(|p| *p != pin);
                    // Any other pin covered by the path is also reached.
                    unreached
                        .retain(|p| !coverage.vertices(*p).iter().any(|v| tree_set.contains(v)));
                }
                None => {
                    complete = false;
                    break;
                }
            }
        }
        (routed, tree, complete)
    }
}

/// Returns `(net, vertex)` pairs where a net's committed vertex is now
/// occupied by a different net (an overlap/short created because the
/// occupancy penalty was paid during search).
fn collect_overlap_victims(
    design: &Design,
    state: &GridState,
    net_vertices: &[Vec<VertexId>],
) -> Vec<(NetId, VertexId)> {
    let mut victims = Vec::new();
    for net in design.nets() {
        for &v in &net_vertices[net.id().index()] {
            if state.is_occupied_by_other(v, net.id()) {
                victims.push((net.id(), v));
            }
        }
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(again.net_vertices, base.net_vertices);
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
    fn deterministic_across_runs() {
        let (design, guides) = small_case();
        let a = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        let b = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        assert_eq!(a.solution.total_wirelength(), b.solution.total_wirelength());
        assert_eq!(a.solution.total_vias(), b.solution.total_vias());
    }
}
