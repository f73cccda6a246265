//! The rip-up-and-reroute negotiation shared by the colour-aware routers.
//!
//! Mr.TPL and the DAC'12 baseline differ only in how they route one net;
//! [`negotiate`] owns everything around that.  A run is a sequence of
//! passes.  Pass 0 routes every net in [`Design::nets_by_bbox`] order; each
//! later pass reroutes the victims of the conflicts the previous pass left
//! ([`ColoredLayout::victims`]), in net-id order.  Every net is ripped up
//! just before it reroutes and committed as soon as it returns, so it sees
//! every earlier net of the same pass, victims included: the schedule of
//! PathFinder-style negotiated congestion (McMurchie and Ebeling, FPGA'95).
//!
//! The budget is charged net by net: each net searches under what the
//! budget has left after the nets before it, so where a search-node budget
//! trips is a pure function of the input.

use crate::{ColorMap, ColoredLayout, Feature, Mask, TplConfig};
use tpl_design::{Design, NetId, PinId, RoutedNet, RoutingSolution};
use tpl_grid::{GridGraph, GridState, Outcome, RouteBudget, StopReason, VertexId};

/// The trace names one router's negotiation reports under (`core.*` for
/// Mr.TPL, `dac12.*` for DAC'12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceNames {
    /// Span of one pass, with the pass index as its `iteration` argument;
    /// also the fault-injection site fired at the start of every pass.
    pub pass: &'static str,
    /// Span of one net's rip-up.
    pub rip_up: &'static str,
    /// Span of one net's commit.
    pub commit: &'static str,
    /// Span of the conflict detection that ends every pass.
    pub conflict_detect: &'static str,
    /// Counter of the conflicts each pass leaves.
    pub conflicts_found: &'static str,
    /// Counter of frontier pops, charged net by net.
    pub search_nodes: &'static str,
}

/// One net for a router to route: the net, the pass, and the search nodes
/// the budget has left for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetTurn {
    /// The net to route.
    pub net: NetId,
    /// The pass: 0 for the initial routing, then one per negotiation
    /// iteration.
    pub pass: usize,
    /// The most frontier pops the net may spend.
    pub allowance: u64,
}

/// One routed and coloured net, as a router hands it back to [`negotiate`].
#[derive(Clone, Debug, Default)]
pub struct NetRoute {
    /// The routed geometry, partial when `complete` is false.
    pub routed: RoutedNet,
    /// The mask of each wire segment, parallel to `routed.segments`.
    pub segment_masks: Vec<Option<Mask>>,
    /// The mask of each pin of the net.
    pub pin_masks: Vec<(PinId, Option<Mask>)>,
    /// The grid vertices the net occupies.
    pub vertices: Vec<VertexId>,
    /// Whether every pin of the net is connected.
    pub complete: bool,
    /// Frontier pops spent on the net.
    pub search_nodes: usize,
    /// Why the net's searches stopped early, if they did.
    pub stop: Option<StopReason>,
}

/// The outcome of a negotiation.
#[derive(Clone, Debug)]
pub struct Negotiated {
    /// The routed geometry of every net.
    pub solution: RoutingSolution,
    /// Per-net, per-segment masks, parallel to each net's segments.
    pub segment_masks: Vec<Vec<Option<Mask>>>,
    /// The final coloured layout (wires and pins).
    pub layout: ColoredLayout,
    /// Colour conflicts in the final layout.
    pub conflicts: usize,
    /// Stitches in the final layout.
    pub stitches: usize,
    /// The index of the last pass run.
    pub rrr_iterations: usize,
    /// Nets whose last route left a pin unconnected, and nets a budget stop
    /// left without geometry.
    pub failed_nets: usize,
    /// Frontier pops over every net of every pass.
    pub search_nodes: usize,
    /// The conflicts each pass left, one entry per pass.
    pub conflict_history: Vec<usize>,
    /// `Complete`, or how a budget, a deadline or a cancellation stopped the
    /// run.
    pub outcome: Outcome,
}

/// Routes every net of `design` with `route_net`, then negotiates colour
/// conflicts away for up to `config.max_rrr_iterations` more passes,
/// charging `config.history_increment` under every conflict a pass leaves.
/// Spans and counters go under `names`.
///
/// `route_net` routes one net against the committed occupancy and colour
/// map.  It may occupy vertices of `state` as it goes, as long as it
/// reports them in [`NetRoute::vertices`]; the driver commits the rest:
/// occupancy, wire and pin features, segment masks and the solution.
///
/// The run stops after a pass that leaves no conflicts, after the last
/// pass, or after a pass the budget stopped.  A budget stop is found before
/// a net routes (the budget has nothing left for it) or reported by the net
/// whose search it interrupted.  The nets a stop leaves behind keep their
/// previous route, or stay unrouted in pass 0.  Every conflict of the
/// driver's layouts is between two nets' features, so it always names a
/// victim.
pub fn negotiate(
    design: &Design,
    grid: &GridGraph,
    budget: &RouteBudget,
    config: &TplConfig,
    names: TraceNames,
    mut route_net: impl FnMut(NetTurn, &mut GridState, &ColorMap) -> NetRoute,
) -> Negotiated {
    let nets = design.nets().len();
    let mut state = GridState::new(grid, design);
    let mut map = ColorMap::new(grid, design.tech().dcolor());
    let mut solution = RoutingSolution::new(nets);
    let mut segment_masks: Vec<Vec<Option<Mask>>> = vec![Vec::new(); nets];
    let mut net_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); nets];
    let mut complete = vec![false; nets];
    let mut search_nodes = 0usize;
    let mut conflict_history = Vec::new();
    let mut outcome = Outcome::Complete;

    let mut to_route = design.nets_by_bbox();
    let mut pass = 0;
    let (layout, conflicts) = loop {
        let _pass_span = tpl_trace::span_args(names.pass, [Some(("iteration", pass as i64)), None]);
        tpl_fault::hit(names.pass, pass as u64);
        for &net in &to_route {
            let allowance = match budget.allowance(search_nodes as u64) {
                Ok(allowance) => allowance,
                Err(reason) => {
                    outcome = outcome.merge(Outcome::from_stop(reason));
                    break;
                }
            };
            let i = net.index();
            {
                let _rip_span = tpl_trace::span(names.rip_up);
                state.release_vertices(&net_vertices[i], net);
                map.remove_net(net);
                solution.rip_up(net);
            }

            let turn = NetTurn {
                net,
                pass,
                allowance,
            };
            let route = route_net(turn, &mut state, &map);
            search_nodes += route.search_nodes;
            tpl_trace::counter(names.search_nodes, route.search_nodes as u64);
            if let Some(reason) = route.stop {
                outcome = outcome.merge(Outcome::from_stop(reason));
            }

            let _commit_span = tpl_trace::span(names.commit);
            for &v in &route.vertices {
                state.occupy(v, net);
            }
            for (seg, mask) in route.routed.segments.iter().zip(&route.segment_masks) {
                map.insert(Feature::wire(net, seg.layer, seg.rect(), *mask));
            }
            for &(pin, mask) in &route.pin_masks {
                for (layer, rect) in design.pin(pin).shapes() {
                    map.insert(Feature::pin(net, *layer, *rect, mask));
                }
            }
            complete[i] = route.complete;
            segment_masks[i] = route.segment_masks;
            net_vertices[i] = route.vertices;
            solution.set(net, route.routed);
        }

        let detect_span = tpl_trace::span(names.conflict_detect);
        let layout = ColoredLayout::of_map(design, &map);
        let conflicts = layout.conflicts();
        drop(detect_span);
        tpl_trace::counter(names.conflicts_found, conflicts.len() as u64);
        conflict_history.push(conflicts.len());
        if conflicts.is_empty() || pass == config.max_rrr_iterations || !outcome.is_complete() {
            break (layout, conflicts.len());
        }
        to_route = layout.victims(&conflicts, grid, &mut state, config.history_increment);
        pass += 1;
    };

    Negotiated {
        solution,
        segment_masks,
        stitches: layout.count_stitches(),
        layout,
        conflicts,
        rrr_iterations: pass,
        failed_nets: complete.iter().filter(|c| !**c).count(),
        search_nodes,
        conflict_history,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, LayerId, RouteSegment, Technology};
    use tpl_geom::{Rect, Segment};

    const TRACE: TraceNames = TraceNames {
        pass: "test.pass",
        rip_up: "test.rip_up",
        commit: "test.commit",
        conflict_detect: "test.conflict_detect",
        conflicts_found: "test.conflicts_found",
        search_nodes: "test.search_nodes",
    };

    /// Frontier pops every fake route costs.
    const POPS: usize = 10;

    fn config(max_rrr_iterations: usize) -> TplConfig {
        TplConfig {
            max_rrr_iterations,
            history_increment: 1.0,
            ..TplConfig::default()
        }
    }

    /// One layer of `Technology::ispd_like` (pitch 20, tracks at 10, 30,
    /// ..., dcolor 45) with one two-pin net per entry of `rows`, its pins on
    /// tracks 1 and 15 of that row.  Same-mask wires one or two rows apart
    /// conflict; three rows apart they do not.
    fn rows_design(rows: &[usize]) -> (Design, GridGraph) {
        let mut builder = DesignBuilder::new(
            "rows",
            Technology::ispd_like(1),
            Rect::from_coords(0, 0, 400, 400),
        );
        for (i, &row) in rows.iter().enumerate() {
            let y = 10 + 20 * row as i64;
            let a =
                builder.add_pin_shape(format!("{i}a"), 0, Rect::from_coords(28, y - 2, 32, y + 2));
            let b = builder.add_pin_shape(
                format!("{i}b"),
                0,
                Rect::from_coords(308, y - 2, 312, y + 2),
            );
            builder.add_net(format!("n{i}"), vec![a, b]);
        }
        let design = builder.build().unwrap();
        let grid = GridGraph::build(&design);
        (design, grid)
    }

    /// A fake router's route of `net` straight along `row` on `mask`, pins
    /// included.
    fn straight(design: &Design, grid: &GridGraph, net: NetId, row: usize, mask: Mask) -> NetRoute {
        let vertices: Vec<VertexId> = (1..=15).map(|ix| grid.vertex(0, ix, row)).collect();
        let mut routed = RoutedNet::new();
        routed.segments.push(RouteSegment::new(
            LayerId::new(0),
            Segment::new(grid.point_of(vertices[0]), grid.point_of(vertices[14])),
            8,
        ));
        NetRoute {
            routed,
            segment_masks: vec![Some(mask)],
            pin_masks: design
                .net(net)
                .pins()
                .iter()
                .map(|p| (*p, Some(mask)))
                .collect(),
            vertices,
            complete: true,
            search_nodes: POPS,
            stop: None,
        }
    }

    /// The masks of `net`'s live features in `map`.
    fn masks_of(map: &ColorMap, net: NetId) -> Vec<Option<Mask>> {
        map.live_features()
            .filter(|f| f.net == Some(net))
            .map(|f| f.mask)
            .collect()
    }

    #[test]
    fn a_victim_reroutes_against_the_new_route_of_the_victim_before_it() {
        // Both nets start on red, one row apart: the wire-pin conflicts make
        // both victims.  In pass 1 net 0 moves down a row onto green, and
        // net 1 must already see that route, not its old one.
        let (design, grid) = rows_design(&[2, 3]);
        let (n0, n1) = (NetId::new(0), NetId::new(1));
        let mut seen = None;
        let run = negotiate(
            &design,
            &grid,
            &RouteBudget::default(),
            &config(5),
            TRACE,
            |turn, state, map| match (turn.pass, turn.net.index()) {
                (0, i) => straight(&design, &grid, turn.net, 2 + i, Mask::Red),
                (1, 0) => straight(&design, &grid, n0, 1, Mask::Green),
                (1, 1) => {
                    seen = Some((
                        masks_of(map, n0),
                        masks_of(map, n1),
                        state.occupant(grid.vertex(0, 8, 1)),
                        state.occupant(grid.vertex(0, 8, 2)),
                    ));
                    straight(&design, &grid, n1, 3, Mask::Blue)
                }
                _ => panic!("unexpected turn {turn:?}"),
            },
        );
        let (net0_masks, net1_masks, new_row, old_row) = seen.expect("net 1 rerouted");
        // Net 0's wire and both pins are on green; net 1 is ripped up.
        assert_eq!(net0_masks, vec![Some(Mask::Green); 3]);
        assert!(net1_masks.is_empty());
        assert_eq!((new_row, old_row), (Some(n0), None));
        assert_eq!(run.conflict_history.len(), 2);
        assert_eq!((run.conflicts, run.rrr_iterations), (0, 1));
        assert_eq!(run.segment_masks[0], vec![Some(Mask::Green)]);
        assert_eq!(run.search_nodes, 4 * POPS);
    }

    /// A fake router that spends [`POPS`] per net, or stops empty-handed
    /// when the budget has less left.
    fn budgeted(
        design: &Design,
        grid: &GridGraph,
        turn: NetTurn,
        row: usize,
        mask: Mask,
    ) -> NetRoute {
        if turn.allowance < POPS as u64 {
            return NetRoute {
                search_nodes: turn.allowance as usize,
                stop: Some(StopReason::SearchNodes),
                ..NetRoute::default()
            };
        }
        straight(design, grid, turn.net, row, mask)
    }

    #[test]
    fn a_budget_stop_counts_the_nets_it_leaves_without_geometry() {
        // Four independent nets, a budget for two and a half of them: the
        // third net stops inside its search, the fourth never starts.
        let (design, grid) = rows_design(&[1, 5, 9, 13]);
        let rows = [1, 5, 9, 13];
        let run = negotiate(
            &design,
            &grid,
            &RouteBudget::with_max_search_nodes(25),
            &config(5),
            TRACE,
            |turn, _, _| budgeted(&design, &grid, turn, rows[turn.net.index()], Mask::Red),
        );
        let without_geometry = run
            .solution
            .iter()
            .filter(|(_, routed)| routed.segments.is_empty())
            .count()
            + design.nets().len()
            - run.solution.routed_count();
        assert_eq!(run.outcome, Outcome::Degraded(StopReason::SearchNodes));
        assert_eq!((run.failed_nets, without_geometry), (2, 2));
        assert_eq!(run.search_nodes, 25);

        // Two conflicting nets: pass 0 completes, pass 1 reroutes net 0 and
        // then has nothing left for net 1, which keeps its pass-0 route.
        let (design, grid) = rows_design(&[2, 3]);
        let run = negotiate(
            &design,
            &grid,
            &RouteBudget::with_max_search_nodes(3 * POPS as u64),
            &config(5),
            TRACE,
            |turn, _, _| {
                let mask = if turn.pass == 0 {
                    Mask::Red
                } else {
                    Mask::Green
                };
                budgeted(&design, &grid, turn, 2 + turn.net.index(), mask)
            },
        );
        assert_eq!(run.outcome, Outcome::Degraded(StopReason::SearchNodes));
        assert_eq!((run.failed_nets, run.rrr_iterations), (0, 1));
        assert_eq!(run.segment_masks[1], vec![Some(Mask::Red)]);
        assert!(run.solution.get(NetId::new(1)).is_some());
    }

    #[test]
    fn the_loop_stops_without_conflicts_or_after_the_last_pass() {
        // Nets three rows apart never conflict: one pass.
        let (design, grid) = rows_design(&[1, 4]);
        let mut turns = 0;
        let run = negotiate(
            &design,
            &grid,
            &RouteBudget::default(),
            &config(5),
            TRACE,
            |turn, _, _| {
                turns += 1;
                straight(
                    &design,
                    &grid,
                    turn.net,
                    1 + 3 * turn.net.index(),
                    Mask::Red,
                )
            },
        );
        assert_eq!((turns, run.rrr_iterations), (2, 0));
        assert_eq!(run.conflict_history, vec![0]);
        assert_eq!((run.outcome, run.failed_nets), (Outcome::Complete, 0));

        // Nets that never change mask keep conflicting until the last pass.
        let (design, grid) = rows_design(&[2, 3]);
        let mut passes = Vec::new();
        let run = negotiate(
            &design,
            &grid,
            &RouteBudget::default(),
            &config(2),
            TRACE,
            |turn, _, _| {
                passes.push(turn.pass);
                straight(&design, &grid, turn.net, 2 + turn.net.index(), Mask::Red)
            },
        );
        assert_eq!(passes, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(run.rrr_iterations, 2);
        assert_eq!(run.conflict_history.len(), 3);
        assert!(run.conflicts > 0);
        assert_eq!(run.conflicts, *run.conflict_history.last().unwrap());
    }
}
