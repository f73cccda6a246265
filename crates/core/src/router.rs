//! The full-design Mr.TPL router (Algorithm 1 + rip-up & reroute).

use crate::{
    assign::assign_and_emit, backtrace, batch::plan_batches, search, ColoredNet, MrTplConfig,
    MrTplStats, NetBuffers, SearchContext,
};
use std::time::Instant;
use tpl_color::{
    ColorCostCache, ColorMap, ColorSetArena, ColorState, ColoredLayout, Feature, Mask,
};
use tpl_design::{Design, NetId, PinId, RouteGuides, RoutingSolution};
use tpl_geom::Rect;
use tpl_grid::{
    guide_membership, DenseBitSet, GridGraph, GridState, Outcome, PinCoverage, RouteBudget,
    TradCost, VertexId,
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
    /// Each rip-up-and-reroute iteration rips up every queued net, then
    /// reroutes the queue in conflict-free batches: every net of a batch
    /// routes against the state committed before the batch, and the batch
    /// commits in net order (see `crate::batch` for why).
    pub fn route(&self, design: &Design, guides: &RouteGuides) -> MrTplResult {
        self.route_with_budget(design, guides, &RouteBudget::default())
    }

    /// Like [`route`](MrTplRouter::route), under a [`RouteBudget`].
    ///
    /// Budget accounting is deterministic: committed search nodes are
    /// charged between batches, and every net of a batch runs under the same
    /// remaining-node snapshot, so where the budget trips is a pure function
    /// of the input.  On exhaustion the router stops before the next batch
    /// and returns its best-so-far partial solution with `stats.outcome` set
    /// to [`Outcome::Degraded`]; a passed deadline or a cancelled token
    /// aborts the same way with [`Outcome::Aborted`].  Unrouted nets are counted
    /// in `stats.failed_nets` and simply absent from the solution — the
    /// returned structures are always internally consistent.
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
        let budget = &budget;
        let start = Instant::now();
        let grid = GridGraph::build(design);
        let coverage = PinCoverage::build(&grid, design);
        let mut gstate = GridState::new(&grid, design);
        let mut map = ColorMap::new(&grid, design.tech().dcolor());
        let mut buffers = NetBuffers::new(grid.num_vertices());
        let mut cache = ColorCostCache::new(&grid);
        let mut in_guide = DenseBitSet::new(grid.num_vertices());

        let mut solution = RoutingSolution::new(design.nets().len());
        let mut segment_masks: Vec<Vec<Option<Mask>>> = vec![Vec::new(); design.nets().len()];
        let mut net_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); design.nets().len()];
        let mut stats = MrTplStats::default();
        let mut total_seg_sets = 0usize;

        // Influence margin of a net's batch region: nets whose bounding
        // boxes expanded by this stay disjoint cannot interact within dcolor
        // even after detouring a couple of tracks.
        let margin = design.tech().dcolor() + 2 * grid.pitch();

        let mut run_outcome = Outcome::Complete;
        let mut to_route = design.nets_by_bbox();
        'rrr: for iteration in 0..=self.config.max_rrr_iterations {
            let _iter_span = tpl_trace::span!("core.rrr_iteration", iteration = iteration);
            tpl_fault::point!("core.rrr_iteration", iteration);
            stats.rrr_iterations = iteration;
            stats.failed_nets = 0;

            // Rip up every queued net before any of them reroutes, so no
            // victim detours around another victim's stale wiring.
            {
                let _rip_span = tpl_trace::span!("core.rip_up", nets = to_route.len());
                for &net_id in &to_route {
                    gstate.release_vertices(&net_vertices[net_id.index()], net_id);
                    map.remove_net(net_id);
                    solution.rip_up(net_id);
                    segment_masks[net_id.index()].clear();
                    net_vertices[net_id.index()].clear();
                }
            }

            // The routing schedule of this pass: see `crate::batch`.
            let regions: Vec<Rect> = to_route
                .iter()
                .map(|id| {
                    design
                        .net_bbox(*id)
                        .unwrap_or(design.die())
                        .expanded(margin)
                })
                .collect();
            let batches = plan_batches(&regions);
            for (batch_index, batch) in batches.iter().enumerate() {
                // Budget accounting happens between batches: every net of a
                // batch runs under the same remaining-node snapshot.
                let remaining = match budget.allowance(stats.search_nodes as u64) {
                    Ok(remaining) => remaining,
                    Err(reason) => {
                        run_outcome = run_outcome.merge(Outcome::from_stop(reason));
                        // The unprocessed batches were ripped up at iteration
                        // start and stay unrouted; count them so the partial
                        // result is honest about what is missing.
                        stats.failed_nets +=
                            batches[batch_index..].iter().map(Vec::len).sum::<usize>();
                        break 'rrr;
                    }
                };
                tpl_trace::value!("core.batch_size", batch.len());
                // Every net of the batch routes against the state committed
                // before the batch ...
                let routed: Vec<_> = batch
                    .iter()
                    .map(|&i| {
                        let net_id = to_route[i];
                        // Goal direction only during negotiation: see
                        // `NetBuffers::set_goal_directed`.
                        buffers.set_goal_directed(self.config.a_star && iteration > 0);
                        buffers.arm_budget(remaining, budget);
                        let out = self.route_net(
                            design,
                            &grid,
                            &coverage,
                            &gstate,
                            &mut buffers,
                            &mut cache,
                            &mut in_guide,
                            &map,
                            guides,
                            net_id,
                        );
                        let effort = (
                            buffers.nodes_popped(),
                            buffers.frontier_pruned(),
                            buffers.frontier_peak(),
                            buffers.stop_reason(),
                        );
                        (net_id, out, effort)
                    })
                    .collect();

                // ... and the batch commits occupancy, colour map and
                // solution together, in net order.
                let _commit_span = tpl_trace::span!("core.commit", nets = routed.len());
                for (net_id, (colored, vertices, complete), (nodes, pruned, peak, stop)) in routed {
                    if !complete {
                        stats.failed_nets += 1;
                    }
                    if let Some(reason) = stop {
                        run_outcome = run_outcome.merge(Outcome::from_stop(reason));
                    }
                    stats.search_nodes += nodes;
                    tpl_trace::counter!("core.search_nodes", nodes);
                    // Kernel effort counters: pruned / popped quantifies how
                    // much of the wavefront was left queued when searches
                    // ended, and the frontier peak is the heap's high-water
                    // mark.
                    tpl_trace::counter!("core.search_frontier_pruned", pruned);
                    tpl_trace::value!("core.frontier_peak", peak);
                    total_seg_sets += colored.seg_sets;

                    for &v in &vertices {
                        gstate.occupy(v, net_id);
                    }
                    for (seg, mask) in colored
                        .routed
                        .segments
                        .iter()
                        .zip(colored.segment_masks.iter())
                    {
                        map.insert(Feature::wire(net_id, seg.layer, seg.rect(), *mask));
                    }
                    for (pin, mask) in &colored.pin_masks {
                        for (layer, rect) in design.pin(*pin).shapes() {
                            map.insert(Feature::pin(net_id, *layer, *rect, *mask));
                        }
                    }
                    segment_masks[net_id.index()] = colored.segment_masks;
                    net_vertices[net_id.index()] = vertices;
                    solution.set(net_id, colored.routed);
                }
            }

            // Conflict detection on the committed colour map.
            let detect_span = tpl_trace::span!("core.conflict_detect");
            let layout = ColoredLayout::of_map(design, &map);
            let conflicts = layout.conflicts();
            drop(detect_span);
            tpl_trace::counter!("core.conflicts_found", conflicts.len());
            stats.conflict_history.push(conflicts.len());
            // A budget stop inside this iteration ends the run here, so the
            // net it left incomplete still counts in `failed_nets`.
            if conflicts.is_empty()
                || iteration == self.config.max_rrr_iterations
                || !run_outcome.is_complete()
            {
                break;
            }

            let victims = layout.victims(
                &conflicts,
                &grid,
                &mut gstate,
                self.config.history_increment,
            );
            if victims.is_empty() {
                break;
            }
            to_route = victims;
        }

        let layout = ColoredLayout::of_map(design, &map);
        let layout_stats = layout.stats();
        stats.conflicts = layout_stats.conflicts;
        stats.stitches = layout_stats.stitches;
        stats.seg_sets = total_seg_sets;
        stats.runtime_seconds = start.elapsed().as_secs_f64();
        stats.outcome = run_outcome;

        MrTplResult {
            solution,
            segment_masks,
            layout,
            stats,
        }
    }

    /// Routes one multi-pin net (Algorithm 1): seeds the queue with the first
    /// pin's covered vertices in state `111`, repeatedly performs colour-state
    /// searching and backtrace until every pin is connected, then assigns
    /// masks and emits coloured geometry.
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
    ) -> (ColoredNet, Vec<VertexId>, bool) {
        let _net_span = tpl_trace::span!("core.route_net", net = net_id.index());
        tpl_fault::point!("core.route_net", net_id.index());
        let net = design.net(net_id);
        guide_membership(grid, guides, net_id, in_guide);
        let trad = TradCost {
            grid,
            state: gstate,
            coverage,
            design,
            params: &self.config.cost,
            net: net_id,
            in_guide,
        };
        let mut ctx = SearchContext::new(trad, &self.config, map);

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
            let found = search(&mut ctx, buffers, cache, &sources, &unreached);
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
        let colored = assign_and_emit(&ctx, &mut arena, buffers, cache, &paths);
        drop(assign_span);
        (colored, tree, complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_global::{GlobalConfig, GlobalRouter};
    use tpl_grid::StopReason;
    use tpl_ispd::CaseParams;

    fn route_case(scale: f64) -> (Design, MrTplResult) {
        let design = CaseParams::ispd18_like(1).scaled(scale).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let result = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
        (design, result)
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
    fn a_budget_stop_in_the_last_batch_of_an_iteration_counts_its_net() {
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
        // stops a net of its last batch.
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
            "the stop lands in the last batch"
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

    #[test]
    fn greedy_policy_produces_at_least_as_many_stitches() {
        let design = CaseParams::ispd18_like(2).scaled(0.35).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        // Pin goal direction off so both policies expand in plain Dijkstra
        // order: the comparison is about the colour policy, and A*'s
        // equal-cost tie-breaking would add noise to the stitch counts.
        let set_based = MrTplRouter::new(MrTplConfig {
            a_star: false,
            ..MrTplConfig::default()
        })
        .route(&design, &guides);
        let greedy = MrTplRouter::new(MrTplConfig {
            policy: crate::SearchPolicy::GreedySingleColor,
            a_star: false,
            ..MrTplConfig::default()
        })
        .route(&design, &guides);
        assert!(
            greedy.stats.stitches >= set_based.stats.stitches,
            "greedy {} vs set-based {}",
            greedy.stats.stitches,
            set_based.stats.stitches
        );
    }
}
