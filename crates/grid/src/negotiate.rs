//! The rip-up-and-reroute negotiation shared by every detailed router.
//!
//! Mr.TPL, the DAC'12 baseline and the Dr.CU-like router differ only in how
//! they route one net and in their [`NegotiationRule`]; [`negotiate`] owns
//! everything around that.  Pass 0 routes every net in
//! [`Design::nets_by_bbox`] order; each later pass reroutes the victims the
//! rule names, in net-id order.  Every net is ripped up just before it
//! reroutes and committed as soon as it returns, so it sees every earlier
//! net of its pass: the schedule of PathFinder-style negotiated congestion
//! (McMurchie and Ebeling, FPGA'95).  The budget is charged net by net, so
//! where a search-node budget trips is a pure function of the input.

use crate::{GridGraph, GridState, Outcome, RouteBudget, StopReason, VertexId};
use tpl_design::{Design, NetId, PinId, RoutedNet, RoutingSolution};

/// The trace names one router's negotiation reports under (`core.*` for
/// Mr.TPL, `dac12.*` for DAC'12, `drcu.*` for the Dr.CU-like router).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceNames {
    /// Span of one pass, with the pass index as its `iteration` argument;
    /// also the fault-injection site fired at the start of every pass.
    pub pass: &'static str,
    /// Span of one net's rip-up.
    pub rip_up: &'static str,
    /// Span of one net's commit.
    pub commit: &'static str,
    /// Span of the detection that ends every pass.
    pub detect: &'static str,
    /// Counter of what each pass leaves (conflicts or overlaps).
    pub found: &'static str,
    /// Counter of frontier pops, charged net by net.
    pub search_nodes: &'static str,
}

/// One net for a router to route: the net, the pass, and the search nodes
/// the budget has left for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetTurn {
    /// The net to route.
    pub net: NetId,
    /// The pass: 0 routes every net, each later pass reroutes victims.
    pub pass: usize,
    /// The most frontier pops the net may spend.
    pub allowance: u64,
}

/// One routed net, its segments and pins labelled `L` (a mask for the
/// colour routers, `()` for the Dr.CU-like router).
#[derive(Clone, Debug, Default)]
pub struct NetRoute<L = ()> {
    /// The routed geometry, partial when `complete` is false.
    pub routed: RoutedNet,
    /// The label of each wire segment, parallel to `routed.segments`.
    pub labels: Vec<L>,
    /// The label of each pin the router labelled.
    pub pins: Vec<(PinId, L)>,
    /// The grid vertices the net occupies.
    pub vertices: Vec<VertexId>,
    /// Whether every pin of the net is connected.
    pub complete: bool,
    /// Frontier pops spent on the net.
    pub search_nodes: usize,
    /// Why the net's searches stopped early, if they did.
    pub stop: Option<StopReason>,
}

/// What a pass leaves and who reroutes it: the part of a negotiation that
/// differs between routers.  Counting what a pass left and charging
/// history are two steps, so the pass that ends a run charges nothing.
pub trait NegotiationRule {
    /// The label of a segment or pin.
    type Label;

    /// Forgets `net`'s committed route, just before it reroutes.
    fn rip_up(&mut self, _net: NetId) {}

    /// Records `net`'s new route.
    fn commit(&mut self, _net: NetId, _route: &NetRoute<Self::Label>) {}

    /// Counts what the pass left, given the committed occupancy and every
    /// net's vertices.
    fn detect(&mut self, state: &GridState, net_vertices: &[Vec<VertexId>]) -> usize;

    /// Charges history under what [`detect`](Self::detect) counted and
    /// returns the nets to reroute, sorted by id and deduplicated.
    fn victims(&mut self, state: &mut GridState, net_vertices: &[Vec<VertexId>]) -> Vec<NetId>;
}

/// The rule of the colour-blind Dr.CU-like router: a pass leaves every
/// vertex a net committed that a later net took over (a short); the earlier
/// net reroutes, with `history_increment` more history on the vertex.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverlapRule {
    /// History added under an overlap each time it names a victim.
    pub history_increment: u32,
}

/// The `(net, vertex)` pairs where a net's vertex is occupied by another
/// net, in net-id order.
fn overlaps(state: &GridState, net_vertices: &[Vec<VertexId>]) -> Vec<(NetId, VertexId)> {
    let mut overlaps = Vec::new();
    for (i, vertices) in net_vertices.iter().enumerate() {
        let net = NetId::from(i);
        let lost = vertices
            .iter()
            .filter(|v| state.is_occupied_by_other(**v, net));
        overlaps.extend(lost.map(|&v| (net, v)));
    }
    overlaps
}

impl NegotiationRule for OverlapRule {
    type Label = ();

    fn detect(&mut self, state: &GridState, net_vertices: &[Vec<VertexId>]) -> usize {
        overlaps(state, net_vertices).len()
    }

    fn victims(&mut self, state: &mut GridState, net_vertices: &[Vec<VertexId>]) -> Vec<NetId> {
        let mut victims = Vec::new();
        for (net, v) in overlaps(state, net_vertices) {
            state.add_history(v, self.history_increment);
            victims.push(net);
        }
        victims.dedup();
        victims
    }
}

/// The outcome of a negotiation.
#[derive(Clone, Debug)]
pub struct Negotiation<L> {
    /// The routed geometry of every net.
    pub solution: RoutingSolution,
    /// Per net, the label of each segment, parallel to its segments.
    pub labels: Vec<Vec<L>>,
    /// The index of the last pass run.
    pub rrr_iterations: usize,
    /// Nets whose last route left a pin unconnected, and nets a budget stop
    /// left without geometry.
    pub failed_nets: usize,
    /// Frontier pops over every net of every pass.
    pub search_nodes: usize,
    /// What the last pass left.
    pub left: usize,
    /// What each pass left, one entry per pass.
    pub left_by_pass: Vec<usize>,
    /// `Complete`, or why a budget, a deadline or a cancellation stopped it.
    pub outcome: Outcome,
}

/// Routes every net of `design` with `route_net`, then reroutes the
/// victims `rule` names for up to `max_rrr_iterations` more passes,
/// reporting under `names`.
///
/// `route_net` routes one net against the committed occupancy and the
/// rule.  It may occupy vertices as it goes, as long as it reports them in
/// [`NetRoute::vertices`]; the driver commits the rest.  The run stops
/// after a pass that leaves nothing, after the last pass, or after a pass
/// the budget stopped, before a net or inside its search.  The nets a stop
/// leaves behind keep their previous route, or stay unrouted in pass 0.
pub fn negotiate<R: NegotiationRule>(
    design: &Design,
    grid: &GridGraph,
    budget: &RouteBudget,
    max_rrr_iterations: usize,
    names: TraceNames,
    rule: &mut R,
    mut route_net: impl FnMut(NetTurn, &mut GridState, &R) -> NetRoute<R::Label>,
) -> Negotiation<R::Label> {
    let nets = design.nets().len();
    let mut state = GridState::new(grid, design);
    let mut solution = RoutingSolution::new(nets);
    let mut labels: Vec<Vec<R::Label>> = (0..nets).map(|_| Vec::new()).collect();
    let mut net_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); nets];
    let mut complete = vec![false; nets];
    let mut search_nodes = 0usize;
    let mut left_by_pass = Vec::new();
    let mut outcome = Outcome::Complete;

    let mut to_route = design.nets_by_bbox();
    let mut pass = 0;
    let left = loop {
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
                rule.rip_up(net);
                solution.rip_up(net);
            }

            let turn = NetTurn {
                net,
                pass,
                allowance,
            };
            let route = route_net(turn, &mut state, rule);
            search_nodes += route.search_nodes;
            tpl_trace::counter(names.search_nodes, route.search_nodes as u64);
            if let Some(reason) = route.stop {
                outcome = outcome.merge(Outcome::from_stop(reason));
            }

            let _commit_span = tpl_trace::span(names.commit);
            for &v in &route.vertices {
                state.occupy(v, net);
            }
            rule.commit(net, &route);
            complete[i] = route.complete;
            labels[i] = route.labels;
            net_vertices[i] = route.vertices;
            solution.set(net, route.routed);
        }

        let detect_span = tpl_trace::span(names.detect);
        let left = rule.detect(&state, &net_vertices);
        drop(detect_span);
        tpl_trace::counter(names.found, left as u64);
        left_by_pass.push(left);
        if left == 0 || pass == max_rrr_iterations || !outcome.is_complete() {
            break left;
        }
        to_route = rule.victims(&mut state, &net_vertices);
        pass += 1;
    };

    Negotiation {
        solution,
        labels,
        rrr_iterations: pass,
        failed_nets: complete.iter().filter(|c| !**c).count(),
        search_nodes,
        left,
        left_by_pass,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit_wires;
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::Rect;

    const TRACE: TraceNames = TraceNames {
        pass: "test.pass",
        rip_up: "test.rip_up",
        commit: "test.commit",
        detect: "test.overlap_detect",
        found: "test.overlaps_found",
        search_nodes: "test.search_nodes",
    };

    /// Frontier pops every fake route costs.
    const POPS: usize = 10;

    /// A track crossing `(ix, iy)`.
    type Crossing = (i64, i64);

    /// Two layers of `Technology::ispd_like` over 10 × 10 tracks (pitch 20,
    /// tracks at 10, 30, ..., 190), with one two-pin net per entry of
    /// `ends`, its pins on layer 0 at the two given track crossings.
    fn crossings(ends: &[(Crossing, Crossing)]) -> (Design, GridGraph) {
        let dot = |(ix, iy): Crossing| {
            let (x, y) = (10 + 20 * ix, 10 + 20 * iy);
            Rect::from_coords(x - 2, y - 2, x + 2, y + 2)
        };
        let mut builder = DesignBuilder::new(
            "crossings",
            Technology::ispd_like(2),
            Rect::from_coords(0, 0, 200, 200),
        );
        for (i, &(a, b)) in ends.iter().enumerate() {
            let a = builder.add_pin_shape(format!("{i}a"), 0, dot(a));
            let b = builder.add_pin_shape(format!("{i}b"), 0, dot(b));
            builder.add_net(format!("n{i}"), vec![a, b]);
        }
        let design = builder.build().unwrap();
        let grid = GridGraph::build(&design);
        (design, grid)
    }

    /// A fake router's route along `layer` from track crossing `from` to
    /// `to`, which share a row or a column.
    fn straight(
        grid: &GridGraph,
        layer: usize,
        from: (usize, usize),
        to: (usize, usize),
    ) -> NetRoute {
        let vertices: Vec<VertexId> = if from.0 == to.0 {
            (from.1..=to.1)
                .map(|iy| grid.vertex(layer, from.0, iy))
                .collect()
        } else {
            (from.0..=to.0)
                .map(|ix| grid.vertex(layer, ix, from.1))
                .collect()
        };
        let (mut routed, mut labels) = (RoutedNet::new(), Vec::new());
        emit_wires(grid, &vertices, |_| (), &mut routed, &mut labels);
        NetRoute {
            routed,
            labels,
            vertices,
            complete: true,
            search_nodes: POPS,
            ..NetRoute::default()
        }
    }

    /// Net 0 along row 5 and net 1 along column 4: they tie in
    /// [`Design::nets_by_bbox`], so net 0 routes first and loses vertex
    /// (4, 5) of layer 0 to net 1.
    const CROSS: [(Crossing, Crossing); 2] = [((0, 5), (9, 5)), ((4, 0), (4, 9))];

    /// The layer-0 routes of [`CROSS`].
    fn cross(grid: &GridGraph, net: NetId) -> NetRoute {
        match net.index() {
            0 => straight(grid, 0, (0, 5), (9, 5)),
            _ => straight(grid, 0, (4, 0), (4, 9)),
        }
    }

    #[test]
    fn a_victim_reroutes_in_the_next_pass_against_the_charged_history() {
        let (design, grid) = crossings(&CROSS);
        let shared = grid.vertex(0, 4, 5);
        let mut seen = None;
        let run = negotiate(
            &design,
            &grid,
            &RouteBudget::default(),
            3,
            TRACE,
            &mut OverlapRule {
                history_increment: 2,
            },
            |turn, state, _| match (turn.pass, turn.net.index()) {
                (0, _) => cross(&grid, turn.net),
                (1, 0) => {
                    // Net 0 is ripped up; net 1 keeps the shared vertex.
                    seen = Some((
                        state.history(shared),
                        state.occupant(shared),
                        state.occupant(grid.vertex(0, 0, 5)),
                    ));
                    straight(&grid, 1, (0, 5), (9, 5))
                }
                _ => panic!("unexpected turn {turn:?}"),
            },
        );
        assert_eq!(seen, Some((2, Some(NetId::new(1)), None)));
        assert_eq!(run.left_by_pass, vec![1, 0]);
        assert_eq!((run.rrr_iterations, run.left, run.failed_nets), (1, 0, 0));
        assert_eq!(run.search_nodes, 3 * POPS);
        assert_eq!(run.outcome, Outcome::Complete);
        assert_eq!(
            run.solution.get(NetId::new(0)),
            Some(&straight(&grid, 1, (0, 5), (9, 5)).routed)
        );
    }

    #[test]
    fn the_run_stops_when_a_pass_leaves_nothing_or_after_the_last_pass() {
        // Rows 2 and 7 share no vertex: one pass.
        let (design, grid) = crossings(&[((0, 2), (9, 2)), ((0, 7), (9, 7))]);
        let mut turns = 0;
        let run = negotiate(
            &design,
            &grid,
            &RouteBudget::default(),
            3,
            TRACE,
            &mut OverlapRule {
                history_increment: 2,
            },
            |turn, _, _| {
                turns += 1;
                let row = 2 + 5 * turn.net.index();
                straight(&grid, 0, (0, row), (9, row))
            },
        );
        assert_eq!((turns, run.rrr_iterations), (2, 0));
        assert_eq!(run.left_by_pass, vec![0]);

        // Nets that never move keep losing the vertex to each other until
        // the last pass; each pass but the last charges it once more.
        let (design, grid) = crossings(&CROSS);
        let shared = grid.vertex(0, 4, 5);
        let mut turns = Vec::new();
        let run = negotiate(
            &design,
            &grid,
            &RouteBudget::default(),
            2,
            TRACE,
            &mut OverlapRule {
                history_increment: 2,
            },
            |turn, state, _| {
                turns.push((turn.pass, turn.net.index(), state.history(shared)));
                cross(&grid, turn.net)
            },
        );
        assert_eq!(turns, vec![(0, 0, 0), (0, 1, 0), (1, 0, 2), (2, 1, 4)]);
        assert_eq!(run.left_by_pass, vec![1, 1, 1]);
        assert_eq!((run.rrr_iterations, run.left), (2, 1));
    }

    #[test]
    fn a_net_that_loses_several_vertices_reroutes_once() {
        // The short net 0 routes first along row 5; net 1's longer run along
        // the same row takes all four of its vertices.
        let (design, grid) = crossings(&[((3, 5), (6, 5)), ((0, 5), (9, 5))]);
        let mut turns = Vec::new();
        let run = negotiate(
            &design,
            &grid,
            &RouteBudget::default(),
            3,
            TRACE,
            &mut OverlapRule {
                history_increment: 2,
            },
            |turn, _, _| {
                turns.push((turn.pass, turn.net.index()));
                match (turn.pass, turn.net.index()) {
                    (0, 0) => straight(&grid, 0, (3, 5), (6, 5)),
                    (0, _) => straight(&grid, 0, (0, 5), (9, 5)),
                    _ => straight(&grid, 1, (3, 5), (6, 5)),
                }
            },
        );
        assert_eq!(turns, vec![(0, 0), (0, 1), (1, 0)]);
        assert_eq!(run.left_by_pass, vec![4, 0]);
    }

    #[test]
    fn a_budget_stop_mid_pass_keeps_the_previous_route() {
        // Two short columns route first; the row then takes a vertex of
        // each, so both columns reroute in pass 1.  The budget covers pass
        // 0 and one reroute: the second column keeps its pass-0 route, and
        // holds it while the first reroutes.
        let (design, grid) = crossings(&[((2, 3), (2, 7)), ((7, 3), (7, 7)), ((0, 5), (9, 5))]);
        let column = |layer, ix| straight(&grid, layer, (ix, 3), (ix, 7));
        let mut turns = Vec::new();
        let mut second_column_held = None;
        let run = negotiate(
            &design,
            &grid,
            &RouteBudget::with_max_search_nodes(4 * POPS as u64),
            3,
            TRACE,
            &mut OverlapRule {
                history_increment: 2,
            },
            |turn, state, _| {
                turns.push((turn.pass, turn.net.index()));
                match (turn.pass, turn.net.index()) {
                    (0, 0) => column(0, 2),
                    (0, 1) => column(0, 7),
                    (0, _) => straight(&grid, 0, (0, 5), (9, 5)),
                    (_, 0) => {
                        second_column_held = Some(state.occupant(grid.vertex(0, 7, 3)));
                        column(1, 2)
                    }
                    _ => panic!("unexpected turn {turn:?}"),
                }
            },
        );
        assert_eq!(turns, vec![(0, 0), (0, 1), (0, 2), (1, 0)]);
        assert_eq!(second_column_held, Some(Some(NetId::new(1))));
        assert_eq!(run.outcome, Outcome::Degraded(StopReason::SearchNodes));
        assert_eq!(run.left_by_pass, vec![2, 1]);
        assert_eq!((run.rrr_iterations, run.failed_nets), (1, 0));
        assert_eq!(run.search_nodes, 4 * POPS);
        assert_eq!(run.solution.get(NetId::new(1)), Some(&column(0, 7).routed));
    }
}
