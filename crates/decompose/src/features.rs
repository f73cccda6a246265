//! Feature extraction and stitch-candidate generation.

use tpl_color::FeatureKind;
use tpl_design::{Design, LayerId, NetId, RoutingSolution};
use tpl_geom::{Dbu, Rect};

/// One vertex of the conflict graph: a wire chunk or a pin shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeatureNode {
    /// The owning net.
    pub net: NetId,
    /// The layer of the feature.
    pub layer: LayerId,
    /// The geometry of the feature.
    pub rect: Rect,
    /// Wire chunk or pin.
    pub kind: FeatureKind,
}

/// Extracts conflict-graph vertices from a routed layout.
///
/// Wire segments are cut into chunks of at most `chunk_pitches` layer pitches
/// along their long axis; each chunk boundary is a stitch candidate (two
/// adjacent chunks of the same wire may end up on different masks, which the
/// evaluator then counts as a stitch).  Pin shapes are kept whole.
pub fn extract_features(
    design: &Design,
    solution: &RoutingSolution,
    chunk_pitches: i64,
) -> Vec<FeatureNode> {
    let _span = tpl_trace::span!("decompose.extract");
    let mut nodes = Vec::new();
    let pitch = design.tech().layers()[0].pitch.max(1);
    let chunk_len: Dbu = (chunk_pitches.max(1)) * pitch;

    for (net_id, routed) in solution.iter() {
        for seg in &routed.segments {
            let rect = seg.rect();
            let horizontal = rect.width() >= rect.height();
            let length = if horizontal {
                rect.width()
            } else {
                rect.height()
            };
            let chunks = ((length + chunk_len - 1) / chunk_len).max(1);
            for k in 0..chunks {
                let lo = k * chunk_len;
                let hi = ((k + 1) * chunk_len).min(length);
                let chunk_rect = if horizontal {
                    Rect::from_coords(rect.lo.x + lo, rect.lo.y, rect.lo.x + hi, rect.hi.y)
                } else {
                    Rect::from_coords(rect.lo.x, rect.lo.y + lo, rect.hi.x, rect.lo.y + hi)
                };
                nodes.push(FeatureNode {
                    net: net_id,
                    layer: seg.layer,
                    rect: chunk_rect,
                    kind: FeatureKind::Wire,
                });
            }
        }
    }
    for pin in design.pins() {
        for (layer, rect) in pin.shapes() {
            nodes.push(FeatureNode {
                net: pin.net(),
                layer: *layer,
                rect: *rect,
                kind: FeatureKind::Pin,
            });
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, RouteSegment, RoutedNet, Technology};
    use tpl_geom::{Point, Segment};

    fn routed_design() -> (Design, RoutingSolution) {
        let mut b = DesignBuilder::new(
            "f",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(500, 0, 510, 10));
        let net = b.add_net("n0", vec![p0, p1]);
        let d = b.build().unwrap();
        let mut sol = RoutingSolution::new(1);
        let mut rn = RoutedNet::new();
        rn.segments.push(RouteSegment::new(
            tpl_design::LayerId::new(1),
            Segment::new(Point::new(5, 5), Point::new(505, 5)),
            8,
        ));
        sol.set(net, rn);
        (d, sol)
    }

    #[test]
    fn long_wires_are_chunked_and_chunks_cover_the_wire() {
        let (d, sol) = routed_design();
        let nodes = extract_features(&d, &sol, 6);
        let wire_chunks: Vec<_> = nodes
            .iter()
            .filter(|n| n.kind == FeatureKind::Wire)
            .collect();
        // 500 dbu of wire cut into 120-dbu chunks -> 5 chunks.
        assert_eq!(wire_chunks.len(), 5);
        // Chunks tile the full wire without gaps: consecutive chunks touch.
        let full = wire_chunks
            .iter()
            .map(|n| n.rect)
            .reduce(|a, b| a.hull(&b))
            .unwrap();
        assert_eq!(full, Rect::from_coords(1, 1, 509, 9));
        for w in wire_chunks.windows(2) {
            assert!(w[0].rect.intersects(&w[1].rect));
        }
        // Pins appear as pin features.
        assert_eq!(
            nodes.iter().filter(|n| n.kind == FeatureKind::Pin).count(),
            2
        );
    }

    #[test]
    fn huge_chunk_length_keeps_wires_whole() {
        let (d, sol) = routed_design();
        let nodes = extract_features(&d, &sol, 1_000);
        assert_eq!(
            nodes.iter().filter(|n| n.kind == FeatureKind::Wire).count(),
            1
        );
    }
}
