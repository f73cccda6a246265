//! The colour rule of the negotiation Mr.TPL and the DAC'12 baseline share
//! ([`tpl_grid::negotiate`]).

use crate::{ColorMap, ColoredLayout, ConflictPair, Feature, Mask};
use tpl_design::{Design, NetId};
use tpl_grid::{GridGraph, GridState, NegotiationRule, NetRoute, VertexId};

/// The negotiation rule of the colour routers.  It keeps the [`ColorMap`]
/// of the committed nets' masked wires and pins, which the routers price
/// colour pressure against; a pass leaves the colour conflicts of the map's
/// [`ColoredLayout`], whose victims ([`ColoredLayout::victims`]) reroute
/// with `history_increment` more history under both features.
#[derive(Debug)]
pub struct ColorRule<'a> {
    design: &'a Design,
    grid: &'a GridGraph,
    history_increment: u32,
    map: ColorMap,
    /// The layout of the last pass and its conflicts.
    detected: Option<(ColoredLayout, Vec<ConflictPair>)>,
}

impl<'a> ColorRule<'a> {
    /// A rule with an empty colour map of `design` over `grid`.
    pub fn new(design: &'a Design, grid: &'a GridGraph, history_increment: u32) -> Self {
        Self {
            design,
            grid,
            history_increment,
            map: ColorMap::new(grid, design.tech().dcolor()),
            detected: None,
        }
    }

    /// The committed nets' coloured wires and pins.
    pub fn map(&self) -> &ColorMap {
        &self.map
    }

    /// The coloured layout the last pass left; panics before a pass ended.
    pub fn into_layout(self) -> ColoredLayout {
        self.detected.expect("every pass ends with a detection").0
    }
}

impl NegotiationRule for ColorRule<'_> {
    type Label = Option<Mask>;

    fn rip_up(&mut self, net: NetId) {
        self.map.remove_net(net);
    }

    fn commit(&mut self, net: NetId, route: &NetRoute<Option<Mask>>) {
        for (seg, mask) in route.routed.segments.iter().zip(&route.labels) {
            self.map
                .insert(Feature::wire(net, seg.layer, seg.rect(), *mask));
        }
        for &(pin, mask) in &route.pins {
            for (layer, rect) in self.design.pin(pin).shapes() {
                self.map.insert(Feature::pin(net, *layer, *rect, mask));
            }
        }
    }

    fn detect(&mut self, _: &GridState, _: &[Vec<VertexId>]) -> usize {
        let layout = ColoredLayout::of_map(self.design, &self.map);
        let conflicts = layout.conflicts();
        let found = conflicts.len();
        self.detected = Some((layout, conflicts));
        found
    }

    fn victims(&mut self, state: &mut GridState, _: &[Vec<VertexId>]) -> Vec<NetId> {
        let (layout, conflicts) = self.detected.as_ref().expect("victims follow a detection");
        layout.victims(conflicts, self.grid, state, self.history_increment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, LayerId, RouteSegment, RoutedNet, Technology};
    use tpl_geom::{Rect, Segment};
    use tpl_grid::{negotiate, Negotiation, NetTurn, Outcome, RouteBudget, StopReason, TraceNames};

    const TRACE: TraceNames = TraceNames {
        pass: "test.pass",
        rip_up: "test.rip_up",
        commit: "test.commit",
        detect: "test.conflict_detect",
        found: "test.conflicts_found",
        search_nodes: "test.search_nodes",
    };

    /// Frontier pops every fake route costs.
    const POPS: usize = 10;

    /// Negotiates under the colour rule with a history increment of 1.
    fn negotiate_colors(
        design: &Design,
        grid: &GridGraph,
        budget: &RouteBudget,
        max_rrr_iterations: usize,
        mut route_net: impl FnMut(NetTurn, &mut GridState, &ColorMap) -> NetRoute<Option<Mask>>,
    ) -> Negotiation<Option<Mask>> {
        negotiate(
            design,
            grid,
            budget,
            max_rrr_iterations,
            TRACE,
            &mut ColorRule::new(design, grid, 1),
            |turn, state, rule| route_net(turn, state, rule.map()),
        )
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
    fn straight(
        design: &Design,
        grid: &GridGraph,
        net: NetId,
        row: usize,
        mask: Mask,
    ) -> NetRoute<Option<Mask>> {
        let vertices: Vec<VertexId> = (1..=15).map(|ix| grid.vertex(0, ix, row)).collect();
        let mut routed = RoutedNet::new();
        routed.segments.push(RouteSegment::new(
            LayerId::new(0),
            Segment::new(grid.point_of(vertices[0]), grid.point_of(vertices[14])),
            8,
        ));
        NetRoute {
            routed,
            labels: vec![Some(mask)],
            pins: design
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
            .filter(|f| f.net == net)
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
        let run = negotiate_colors(
            &design,
            &grid,
            &RouteBudget::default(),
            5,
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
        assert_eq!(run.left_by_pass.len(), 2);
        assert_eq!((run.left, run.rrr_iterations), (0, 1));
        assert_eq!(run.labels[0], vec![Some(Mask::Green)]);
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
    ) -> NetRoute<Option<Mask>> {
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
        let run = negotiate_colors(
            &design,
            &grid,
            &RouteBudget::with_max_search_nodes(25),
            5,
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
        let run = negotiate_colors(
            &design,
            &grid,
            &RouteBudget::with_max_search_nodes(3 * POPS as u64),
            5,
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
        assert_eq!(run.labels[1], vec![Some(Mask::Red)]);
        assert!(run.solution.get(NetId::new(1)).is_some());
    }

    #[test]
    fn the_loop_stops_without_conflicts_or_after_the_last_pass() {
        // Nets three rows apart never conflict: one pass.
        let (design, grid) = rows_design(&[1, 4]);
        let mut turns = 0;
        let run = negotiate_colors(&design, &grid, &RouteBudget::default(), 5, |turn, _, _| {
            turns += 1;
            straight(
                &design,
                &grid,
                turn.net,
                1 + 3 * turn.net.index(),
                Mask::Red,
            )
        });
        assert_eq!((turns, run.rrr_iterations), (2, 0));
        assert_eq!(run.left_by_pass, vec![0]);
        assert_eq!((run.outcome, run.failed_nets), (Outcome::Complete, 0));

        // Nets that never change mask keep conflicting until the last pass.
        let (design, grid) = rows_design(&[2, 3]);
        let mut passes = Vec::new();
        let run = negotiate_colors(&design, &grid, &RouteBudget::default(), 2, |turn, _, _| {
            passes.push(turn.pass);
            straight(&design, &grid, turn.net, 2 + turn.net.index(), Mask::Red)
        });
        assert_eq!(passes, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(run.rrr_iterations, 2);
        assert_eq!(run.left_by_pass.len(), 3);
        assert!(run.left > 0);
        assert_eq!(run.left, *run.left_by_pass.last().unwrap());
    }
}
