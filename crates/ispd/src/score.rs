//! ISPD-2018-style routing cost scoring.
//!
//! The contest score is a weighted sum of wirelength, via count, out-of-guide
//! wirelength, wrong-way wirelength and design-rule (spacing) violations.
//! The absolute weights here follow the contest's relative magnitudes; the
//! Table II "cost" column compares two routers under the *same* scorer, so
//! only the relative weighting matters for the reproduction.

use std::collections::HashSet;
use std::fmt;
use tpl_design::{Design, NetId, RouteGuides, RoutingSolution};
use tpl_geom::{BinIndex, Dbu};

/// Weights of the individual cost terms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreWeights {
    /// Cost per track-pitch of wirelength.
    pub wirelength: f64,
    /// Cost per via.
    pub via: f64,
    /// Extra cost per track-pitch of wire outside the net's route guide.
    pub out_of_guide: f64,
    /// Extra cost per track-pitch of wire routed against the preferred axis.
    pub wrong_way: f64,
    /// Cost per spacing violation between different nets (or net/obstacle).
    pub spacing_violation: f64,
    /// Cost per net left unrouted.
    pub unrouted_net: f64,
}

impl Default for ScoreWeights {
    fn default() -> Self {
        // Mirrors the ISPD 2018 evaluation: WL 0.5/track, via 4, off-guide 1,
        // wrong-way 1, hard violation 500.
        Self {
            wirelength: 0.5,
            via: 4.0,
            out_of_guide: 1.0,
            wrong_way: 1.0,
            spacing_violation: 500.0,
            unrouted_net: 5000.0,
        }
    }
}

/// The individual terms making up a routing score.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    /// Total wirelength in database units.
    pub wirelength_dbu: Dbu,
    /// Number of vias.
    pub vias: usize,
    /// Wirelength outside the route guide, in database units.
    pub out_of_guide_dbu: Dbu,
    /// Wirelength routed against the preferred axis, in database units.
    pub wrong_way_dbu: Dbu,
    /// Number of different-net spacing violations.
    pub spacing_violations: usize,
    /// Number of nets without routed geometry.
    pub unrouted_nets: usize,
    /// The weighted total.
    pub total: f64,
}

impl CostBreakdown {
    /// The weighted total score.
    pub fn total(&self) -> f64 {
        self.total
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wl={} vias={} offguide={} wrongway={} spacing={} unrouted={} total={:.4e}",
            self.wirelength_dbu,
            self.vias,
            self.out_of_guide_dbu,
            self.wrong_way_dbu,
            self.spacing_violations,
            self.unrouted_nets,
            self.total
        )
    }
}

/// Scores a routing solution with the given weights.
///
/// The score covers every net of the design; nets missing from the solution
/// are charged the `unrouted_net` penalty.
pub fn score_solution(
    design: &Design,
    guides: &RouteGuides,
    solution: &RoutingSolution,
    weights: &ScoreWeights,
) -> CostBreakdown {
    let pitch = design.tech().layers()[0].pitch.max(1);
    let mut breakdown = CostBreakdown::default();

    // Per-layer spatial index over (net, rect) for spacing checks.
    let num_layers = design.tech().num_layers();
    let mut indexes: Vec<BinIndex> = (0..num_layers)
        .map(|_| BinIndex::new(design.die(), 16 * pitch))
        .collect();
    // Entry id encoding: net index (or obstacle marker) packed with a serial.
    let mut entry_net: Vec<NetId> = Vec::new();
    const OBSTACLE_NET: u32 = u32::MAX;

    for (net_id, routed) in solution.iter() {
        for seg in &routed.segments {
            let layer = design.tech().layer(seg.layer);
            let len = seg.length();
            breakdown.wirelength_dbu += len;
            if seg.seg.axis().map(|a| a != layer.axis).unwrap_or(false) {
                breakdown.wrong_way_dbu += len;
            }
            if !guides.covers(net_id, seg.layer, &seg.rect()) {
                breakdown.out_of_guide_dbu += len;
            }
            let idx = entry_net.len() as u64;
            entry_net.push(net_id);
            indexes[seg.layer.index()].insert(idx, seg.rect());
        }
        breakdown.vias += routed.via_count();
    }

    // Obstacles participate in spacing checks too.
    let obstacle_base = entry_net.len() as u64;
    for obs in design.obstacles() {
        let idx = entry_net.len() as u64;
        entry_net.push(NetId::new(OBSTACLE_NET));
        indexes[obs.layer.index()].insert(idx, obs.rect);
    }
    let _ = obstacle_base;

    // Spacing violations: different-net pairs closer than the layer spacing.
    let mut violating_pairs: HashSet<(u64, u64)> = HashSet::new();
    for (net_id, routed) in solution.iter() {
        for seg in &routed.segments {
            let layer = design.tech().layer(seg.layer);
            let window = seg.rect().expanded(layer.spacing);
            for (other_id, other_rect) in indexes[seg.layer.index()].query_entries(&window) {
                let other_net = entry_net[other_id as usize];
                if other_net == net_id {
                    continue;
                }
                if seg.rect().spacing_to(&other_rect) < layer.spacing {
                    // Identify the pair by the spatial-index ids to avoid
                    // double counting; the segment's own id is recovered by
                    // searching its rect (cheaper: use position in entry_net).
                    let my_id = indexes[seg.layer.index()]
                        .query_entries(&seg.rect())
                        .into_iter()
                        .find(|(id, r)| entry_net[*id as usize] == net_id && *r == seg.rect())
                        .map(|(id, _)| id)
                        .unwrap_or(u64::MAX);
                    let key = if my_id < other_id {
                        (my_id, other_id)
                    } else {
                        (other_id, my_id)
                    };
                    violating_pairs.insert(key);
                }
            }
        }
    }
    breakdown.spacing_violations = violating_pairs.len();

    breakdown.unrouted_nets = design
        .nets()
        .iter()
        .filter(|n| solution.get(n.id()).map(|r| r.is_empty()).unwrap_or(true))
        .count();

    let pitchf = pitch as f64;
    breakdown.total = weights.wirelength * breakdown.wirelength_dbu as f64 / pitchf
        + weights.via * breakdown.vias as f64
        + weights.out_of_guide * breakdown.out_of_guide_dbu as f64 / pitchf
        + weights.wrong_way * breakdown.wrong_way_dbu as f64 / pitchf
        + weights.spacing_violation * breakdown.spacing_violations as f64
        + weights.unrouted_net * breakdown.unrouted_nets as f64;
    breakdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{
        DesignBuilder, LayerId as L, RouteSegment, RoutedNet, Technology, ViaInstance,
    };
    use tpl_geom::{Point, Rect, Segment};

    fn design() -> Design {
        let mut b = DesignBuilder::new(
            "score",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(200, 200, 210, 210));
        let p2 = b.add_pin_shape("c", 0, Rect::from_coords(400, 10, 410, 20));
        let p3 = b.add_pin_shape("d", 0, Rect::from_coords(600, 600, 610, 610));
        b.add_net("n0", vec![p0, p1]);
        b.add_net("n1", vec![p2, p3]);
        b.build().unwrap()
    }

    fn straight_route(layer: u32, from: Point, to: Point) -> RoutedNet {
        let mut rn = RoutedNet::new();
        rn.segments
            .push(RouteSegment::new(L::new(layer), Segment::new(from, to), 8));
        rn
    }

    #[test]
    fn unrouted_nets_are_penalised() {
        let d = design();
        let guides = RouteGuides::new(d.nets().len());
        let sol = RoutingSolution::new(d.nets().len());
        let score = score_solution(&d, &guides, &sol, &ScoreWeights::default());
        assert_eq!(score.unrouted_nets, 2);
        assert!(score.total >= 10_000.0);
    }

    #[test]
    fn wirelength_and_vias_are_counted() {
        let d = design();
        let guides = RouteGuides::new(d.nets().len());
        let mut sol = RoutingSolution::new(d.nets().len());
        let mut rn = straight_route(0, Point::new(5, 5), Point::new(205, 5));
        rn.vias
            .push(ViaInstance::new(L::new(0), Point::new(205, 5)));
        sol.set(NetId::new(0), rn);
        let score = score_solution(&d, &guides, &sol, &ScoreWeights::default());
        assert_eq!(score.wirelength_dbu, 200);
        assert_eq!(score.vias, 1);
        assert_eq!(score.unrouted_nets, 1);
        // Horizontal wire on the horizontal layer M1: no wrong-way length.
        assert_eq!(score.wrong_way_dbu, 0);
    }

    #[test]
    fn wrong_way_wire_is_flagged() {
        let d = design();
        let guides = RouteGuides::new(d.nets().len());
        let mut sol = RoutingSolution::new(d.nets().len());
        // Vertical wire on the horizontal layer M1.
        sol.set(
            NetId::new(0),
            straight_route(0, Point::new(5, 5), Point::new(5, 205)),
        );
        let score = score_solution(&d, &guides, &sol, &ScoreWeights::default());
        assert_eq!(score.wrong_way_dbu, 200);
    }

    #[test]
    fn out_of_guide_wire_is_charged() {
        let d = design();
        let mut guides = RouteGuides::new(d.nets().len());
        guides.add(
            NetId::new(0),
            (L::new(0), L::new(0)),
            Rect::from_coords(0, 0, 100, 100),
        );
        let mut sol = RoutingSolution::new(d.nets().len());
        // Entirely outside the guide box.
        sol.set(
            NetId::new(0),
            straight_route(0, Point::new(300, 300), Point::new(500, 300)),
        );
        let score = score_solution(&d, &guides, &sol, &ScoreWeights::default());
        assert_eq!(score.out_of_guide_dbu, 200);
    }

    #[test]
    fn spacing_violations_between_nets_are_detected() {
        let d = design();
        let guides = RouteGuides::new(d.nets().len());
        let mut sol = RoutingSolution::new(d.nets().len());
        // Two parallel wires 4 dbu apart edge to edge (violates spacing 8).
        sol.set(
            NetId::new(0),
            straight_route(0, Point::new(0, 100), Point::new(300, 100)),
        );
        sol.set(
            NetId::new(1),
            straight_route(0, Point::new(0, 112), Point::new(300, 112)),
        );
        let score = score_solution(&d, &guides, &sol, &ScoreWeights::default());
        assert_eq!(score.spacing_violations, 1);

        // Moving the second wire a full pitch away removes the violation.
        let mut sol2 = RoutingSolution::new(d.nets().len());
        sol2.set(
            NetId::new(0),
            straight_route(0, Point::new(0, 100), Point::new(300, 100)),
        );
        sol2.set(
            NetId::new(1),
            straight_route(0, Point::new(0, 120), Point::new(300, 120)),
        );
        let score2 = score_solution(&d, &guides, &sol2, &ScoreWeights::default());
        assert_eq!(score2.spacing_violations, 0);
        assert!(score2.total < score.total);
    }

    #[test]
    fn display_mentions_total() {
        let b = CostBreakdown {
            total: 1234.5,
            ..Default::default()
        };
        assert!(b.to_string().contains("total=1.2345e3"));
    }
}
