//! Evaluation metrics and report tables for the Mr.TPL reproduction.
//!
//! The crate turns raw router outputs into the rows of the paper's tables:
//! per-case conflict/stitch/cost/runtime records, improvement percentages and
//! plain-text table rendering used by the `mrtpl-bench` binary of
//! `tpl-bench`.

#![warn(missing_docs)]

mod report;
mod summary;

pub use report::{format_table, TableRow};
pub use summary::{
    geomean_speedup, improvement_percent, safe_speedup, CaseRecord, SuiteSummary, SuiteTotals,
};

use tpl_color::{ColoredLayout, Feature, Mask};
use tpl_design::{Design, NetId, RoutingSolution};

/// Builds a coloured layout from a routing solution plus a per-net,
/// per-segment mask assignment (wires and pins).
///
/// Routers that already maintain an incremental colour map return their own
/// [`ColoredLayout`]; this helper exists for post-hoc colourings (e.g. a
/// decomposition of a colour-blind router's output stored separately).
pub fn layout_from_assignment(
    design: &Design,
    solution: &RoutingSolution,
    segment_masks: &[Vec<Option<Mask>>],
    pin_masks: &dyn Fn(NetId, usize) -> Option<Mask>,
) -> ColoredLayout {
    let mut layout = ColoredLayout::new(
        design.die(),
        design.tech().num_layers(),
        design.tech().dcolor(),
    );
    for (net_id, routed) in solution.iter() {
        for (i, seg) in routed.segments.iter().enumerate() {
            let mask = segment_masks
                .get(net_id.index())
                .and_then(|m| m.get(i))
                .copied()
                .flatten();
            layout.add(Feature::wire(net_id, seg.layer, seg.rect(), mask));
        }
    }
    for pin in design.pins() {
        let net = pin.net();
        for (k, (layer, rect)) in pin.shapes().iter().enumerate() {
            layout.add(Feature::pin(net, *layer, *rect, pin_masks(net, k)));
        }
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, LayerId, RouteSegment, RoutedNet, Technology};
    use tpl_geom::{Point, Rect, Segment};

    #[test]
    fn layout_from_assignment_collects_wires_and_pins() {
        let mut b = DesignBuilder::new(
            "m",
            Technology::ispd_like(2),
            Rect::from_coords(0, 0, 400, 400),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(200, 0, 210, 10));
        let net = b.add_net("n", vec![p0, p1]);
        let design = b.build().unwrap();

        let mut sol = RoutingSolution::new(1);
        let mut rn = RoutedNet::new();
        rn.segments.push(RouteSegment::new(
            LayerId::new(0),
            Segment::new(Point::new(5, 5), Point::new(205, 5)),
            8,
        ));
        sol.set(net, rn);
        let masks = vec![vec![Some(Mask::Green)]];
        let layout = layout_from_assignment(&design, &sol, &masks, &|_, _| Some(Mask::Green));
        assert_eq!(layout.features().len(), 3);
        assert_eq!(layout.count_conflicts(), 0);
        assert_eq!(layout.count_stitches(), 0);
    }
}
