//! The full-design Mr.TPL router (Algorithm 1 + rip-up & reroute).

use crate::{
    assign::assign_and_emit, backtrace, search, MrTplConfig, MrTplStats, NetBuffers, SearchContext,
};
use std::time::Instant;
use tpl_color::{
    ColorCostCache, ColorMap, ColorRule, ColorSetArena, ColorState, ColoredLayout, Mask,
};
use tpl_design::{Design, NetId, PinId, RouteGuides, RoutingSolution};
use tpl_grid::{
    guide_membership, negotiate, DenseBitSet, GridGraph, GridState, NetRoute, PinCoverage,
    RouteBudget, TraceNames, TradCost, VertexId,
};

/// The result of a Mr.TPL routing run.
#[derive(Clone, Debug)]
pub struct MrTplResult {
    /// The routed geometry of every net.
    pub solution: RoutingSolution,
    /// Per-net, per-segment mask assignment (parallel to each routed net's
    /// segment list).
    pub segment_masks: Vec<Vec<Option<Mask>>>,
    /// The final coloured layout (wires and pins) used for evaluation.
    pub layout: ColoredLayout,
    /// Run statistics.
    pub stats: MrTplStats,
}

/// The Mr.TPL triple-patterning-aware detailed router.
#[derive(Clone, Debug)]
pub struct MrTplRouter {
    config: MrTplConfig,
}

/// Where Mr.TPL's negotiation reports in traces.
const TRACE: TraceNames = TraceNames {
    pass: "core.rrr_iteration",
    rip_up: "core.rip_up",
    commit: "core.commit",
    detect: "core.conflict_detect",
    found: "core.conflicts_found",
    search_nodes: "core.search_nodes",
};

impl MrTplRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: MrTplConfig) -> Self {
        Self { config }
    }

    /// The configuration the router was built with.
    pub fn config(&self) -> &MrTplConfig {
        &self.config
    }

    /// Routes and colours every net of the design inside the given guides.
    ///
    /// The initial pass routes every net with plain Dijkstra's answers;
    /// each rip-up-and-reroute iteration then reroutes the victims of the
    /// remaining conflicts under A\* order (see
    /// [`NetBuffers::set_goal_directed`]).  Every net is ripped up just
    /// before it reroutes and committed as soon as it is routed
    /// ([`tpl_grid::negotiate`] under the [`ColorRule`]).
    pub fn route(&self, design: &Design, guides: &RouteGuides) -> MrTplResult {
        self.route_with_budget(design, guides, &RouteBudget::default())
    }

    /// Like [`route`](MrTplRouter::route), under a [`RouteBudget`] that
    /// [`tpl_grid::negotiate`] charges net by net, so where it trips is a
    /// pure function of the input.  The run returns its best-so-far
    /// solution; `stats.outcome` says why it stopped, and nets left without
    /// a complete route count in `stats.failed_nets`.
    pub fn route_with_budget(
        &self,
        design: &Design,
        guides: &RouteGuides,
        budget: &RouteBudget,
    ) -> MrTplResult {
        let _route_span = tpl_trace::span!("core.route", nets = design.nets().len());
        tpl_fault::point!("core.route");
        let mut budget = budget.clone();
        if tpl_fault::trips_budget("core.budget") {
            // Injected budget exhaustion: behave exactly like a zero-node
            // budget and exercise the degraded path.
            budget.max_search_nodes = Some(0);
        }
        let start = Instant::now();
        let grid = GridGraph::build(design);
        let coverage = PinCoverage::build(&grid, design);
        let mut buffers = NetBuffers::new(&grid, &self.config.cost);
        let mut cache = ColorCostCache::new(&grid);
        let mut in_guide = DenseBitSet::new(grid.num_vertices());
        let mut seg_sets = 0usize;

        let mut rule = ColorRule::new(design, &grid, self.config.history_increment);
        let run = negotiate(
            design,
            &grid,
            &budget,
            self.config.max_rrr_iterations,
            TRACE,
            &mut rule,
            |turn, gstate, rule| {
                // Goal direction only during negotiation: see
                // `NetBuffers::set_goal_directed`.
                buffers.set_goal_directed(turn.pass > 0);
                buffers.kernel.arm(turn.allowance, &budget);
                let (mut route, net_seg_sets) = self.route_net(
                    design,
                    &grid,
                    &coverage,
                    gstate,
                    &mut buffers,
                    &mut cache,
                    &mut in_guide,
                    rule.map(),
                    guides,
                    turn.net,
                );
                // Kernel effort counters: pruned / popped quantifies how much of
                // the wavefront was left queued when searches ended, and the
                // frontier peak is its high-water mark.
                tpl_trace::counter!("core.search_frontier_pruned", buffers.kernel.pruned());
                tpl_trace::value!("core.frontier_peak", buffers.kernel.peak());
                seg_sets += net_seg_sets;
                route.search_nodes = buffers.kernel.popped();
                route.stop = buffers.kernel.stop_reason();
                route
            },
        );
        let layout = rule.into_layout();

        MrTplResult {
            stats: MrTplStats {
                conflicts: run.left,
                stitches: layout.count_stitches(),
                rrr_iterations: run.rrr_iterations,
                failed_nets: run.failed_nets,
                seg_sets,
                search_nodes: run.search_nodes,
                runtime_seconds: start.elapsed().as_secs_f64(),
                conflict_history: run.left_by_pass,
                outcome: run.outcome,
            },
            solution: run.solution,
            segment_masks: run.labels,
            layout,
        }
    }

    /// Routes one multi-pin net (Algorithm 1): seeds the queue with the first
    /// pin's covered vertices in state `111`, repeatedly performs colour-state
    /// searching and backtrace until every pin is connected, then assigns
    /// masks and emits coloured geometry.  Returns the net's route, without
    /// its search effort, and its number of segSets.
    #[allow(clippy::too_many_arguments)]
    fn route_net(
        &self,
        design: &Design,
        grid: &GridGraph,
        coverage: &PinCoverage,
        gstate: &GridState,
        buffers: &mut NetBuffers,
        cache: &mut ColorCostCache,
        in_guide: &mut DenseBitSet,
        map: &ColorMap,
        guides: &RouteGuides,
        net_id: NetId,
    ) -> (NetRoute<Option<Mask>>, usize) {
        let _net_span = tpl_trace::span!("core.route_net", net = net_id.index());
        tpl_fault::point!("core.route_net", net_id.index());
        let net = design.net(net_id);
        guide_membership(grid, guides, net_id, in_guide);
        let trad = TradCost {
            grid,
            state: gstate,
            coverage,
            params: &self.config.cost,
            net: net_id,
            in_guide,
        };
        let ctx = SearchContext::new(trad, &self.config, map);

        // One cache scope per net: `gstate` and `map` are borrowed
        // immutably until the net is assigned.
        buffers.begin_net();
        cache.begin();
        let mut arena = ColorSetArena::new();

        // The routed tree: vertices plus the colour state they are re-seeded
        // with (their segSet state once committed).  Membership lives in the
        // epoch-stamped buffers, so there is no per-net hashing.
        let mut tree: Vec<VertexId> = Vec::new();
        let start_pin = net.pins()[0];
        for &v in coverage.vertices(start_pin) {
            if !buffers.in_tree(v) {
                buffers.add_tree(v);
                tree.push(v);
            }
        }
        let mut unreached: Vec<PinId> = net.pins()[1..].to_vec();
        let mut paths: Vec<Vec<VertexId>> = Vec::new();
        let mut complete = true;

        while !unreached.is_empty() {
            // Re-seed sources with their current (possibly narrowed) states.
            let sources: Vec<(VertexId, ColorState)> = tree
                .iter()
                .map(|&v| {
                    let state = buffers
                        .ver_set(v)
                        .map(|vs| arena.seg_state(arena.seg_of(vs)))
                        .unwrap_or_else(ColorState::all);
                    (v, state)
                })
                .collect();

            let search_span = tpl_trace::span!("core.color_search");
            let found = search(&ctx, buffers, cache, &sources, &unreached);
            drop(search_span);
            match found {
                Some((dst, pin)) => {
                    let path = backtrace(buffers, &mut arena, dst);
                    for &v in &path {
                        if !buffers.in_tree(v) {
                            buffers.add_tree(v);
                            tree.push(v);
                        }
                    }
                    paths.push(path);
                    unreached.retain(|p| *p != pin);
                    // Pins whose covered vertices were swallowed by the path
                    // are also connected.
                    unreached
                        .retain(|p| !coverage.vertices(*p).iter().any(|v| buffers.in_tree(*v)));
                }
                None => {
                    complete = false;
                    break;
                }
            }
        }

        let assign_span = tpl_trace::span!("core.assign");
        let (mut route, seg_sets) =
            assign_and_emit(design, &ctx, &mut arena, buffers, cache, &paths);
        drop(assign_span);
        route.vertices = tree;
        route.complete = complete;
        (route, seg_sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_global::{GlobalConfig, GlobalRouter};
    use tpl_grid::{Outcome, StopReason};
    use tpl_ispd::CaseParams;

    fn route_case(scale: f64) -> (Design, MrTplResult) {
        let design = CaseParams::ispd18_like(1).scaled(scale).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let result = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
        (design, result)
    }

    /// Cases where a colour-state step cost, which depends on the colour
    /// state a vertex inherits, let A\* under the initial pass's bound find
    /// a cheaper goal than plain Dijkstra: a two-pass bounded Dijkstra's
    /// pruned pass then found no goal.  Before it reran unpruned, the first
    /// case left a net unconnected; the second takes such a search today.
    /// The one pass must connect every net and return plain Dijkstra's
    /// answer to every search.
    #[test]
    fn the_initial_pass_connects_a_net_whose_a_star_bound_undercuts_dijkstra() {
        let config = MrTplConfig {
            max_rrr_iterations: 0,
            ..MrTplConfig::default()
        };
        for (case, salt, undercuts) in [(10, 3, 0), (5, 2, 1)] {
            let mut params = CaseParams::ispd18_like(case).scaled(0.25);
            params.seed += salt << 32;
            let design = params.generate();
            let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
            crate::search::cross_check::start();
            let result = MrTplRouter::new(config).route(&design, &guides);
            let checked = crate::search::cross_check::take();
            assert_eq!(result.stats.failed_nets, 0, "case {case}");
            assert_eq!(checked.undercuts, undercuts, "case {case}: {checked:?}");
        }
    }

    #[test]
    fn routes_and_colors_every_net() {
        let (design, result) = route_case(0.3);
        assert_eq!(result.solution.routed_count(), design.nets().len());
        assert_eq!(result.stats.failed_nets, 0);
        // Every emitted segment carries a mask.
        for (net_id, routed) in result.solution.iter() {
            let masks = &result.segment_masks[net_id.index()];
            assert_eq!(masks.len(), routed.segments.len());
            assert!(masks.iter().all(|m| m.is_some()));
        }
    }

    #[test]
    fn every_net_remains_electrically_connected() {
        let (design, result) = route_case(0.3);
        for net in design.nets() {
            let routed = result.solution.get(net.id()).expect("routed");
            assert!(
                routed.connects_all_pins(&design, net.id()),
                "net {} broken after colouring",
                net.name()
            );
        }
    }

    #[test]
    fn small_cases_finish_with_no_conflicts() {
        let (_, result) = route_case(0.3);
        assert_eq!(
            result.stats.conflicts, 0,
            "tiny case should be conflict free"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (_, a) = route_case(0.25);
        let (_, b) = route_case(0.25);
        assert_eq!(a.stats.conflicts, b.stats.conflicts);
        assert_eq!(a.stats.stitches, b.stats.stitches);
        assert_eq!(a.solution.total_wirelength(), b.solution.total_wirelength());
    }

    #[test]
    fn budgeted_run_degrades_deterministically() {
        let design = CaseParams::ispd18_like(1).scaled(0.3).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        // The 0.3-scale case needs ~1.5k search nodes in total; a 300-node
        // budget reliably trips mid-run.
        let budget = RouteBudget::with_max_search_nodes(300);
        let route = || {
            MrTplRouter::new(MrTplConfig::default()).route_with_budget(&design, &guides, &budget)
        };
        let base = route();
        assert_eq!(
            base.stats.outcome,
            Outcome::Degraded(StopReason::SearchNodes)
        );
        assert!(base.stats.failed_nets > 0, "some nets must be left behind");
        assert!(base.stats.search_nodes <= 300, "the budget binds");
        let again = route();
        assert_eq!(
            again.stats,
            MrTplStats {
                runtime_seconds: again.stats.runtime_seconds,
                ..base.stats
            }
        );
        assert_eq!(again.segment_masks, base.segment_masks);
    }

    #[test]
    fn a_budget_stop_in_the_last_net_of_an_iteration_counts_its_net() {
        let design = CaseParams::ispd18_like(4).scaled(0.25).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let first_pass = MrTplRouter::new(MrTplConfig {
            max_rrr_iterations: 0,
            ..MrTplConfig::default()
        });
        let first = |nodes| {
            first_pass.route_with_budget(
                &design,
                &guides,
                &RouteBudget::with_max_search_nodes(nodes),
            )
        };
        let unbudgeted = first(u64::MAX);
        assert!(
            unbudgeted.stats.conflicts > 0,
            "the first pass leaves conflicts to rip up"
        );
        // The smallest budget the first pass completes under; one node less
        // stops its last net.
        let (mut lo, mut hi) = (0, unbudgeted.stats.search_nodes as u64);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if first(mid).stats.outcome.is_complete() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        assert!(
            design
                .nets()
                .iter()
                .all(|n| first(lo).solution.get(n.id()).is_some()),
            "the stop lands in the last net"
        );
        let result = MrTplRouter::new(MrTplConfig::default()).route_with_budget(
            &design,
            &guides,
            &RouteBudget::with_max_search_nodes(lo),
        );
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
        assert!(broken > 0);
        assert_eq!(result.stats.failed_nets, broken);
    }

    #[test]
    fn cancelled_token_aborts_before_routing_anything() {
        let design = CaseParams::ispd18_like(1).scaled(0.25).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let token = tpl_grid::CancelToken::new();
        token.cancel();
        let budget = RouteBudget {
            cancel: Some(token),
            ..RouteBudget::default()
        };
        let result =
            MrTplRouter::new(MrTplConfig::default()).route_with_budget(&design, &guides, &budget);
        assert_eq!(
            result.stats.outcome,
            Outcome::Aborted(StopReason::Cancelled)
        );
        assert_eq!(result.solution.routed_count(), 0);
        assert_eq!(result.stats.failed_nets, design.nets().len());
    }

    #[test]
    fn unbudgeted_run_reports_complete() {
        let (_, result) = route_case(0.25);
        assert!(result.stats.outcome.is_complete());
    }
}
