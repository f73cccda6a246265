//! Property-based tests for the decomposition graph.

use proptest::prelude::*;
use tpl_color::{ColoredLayout, Feature};
use tpl_decompose::ConflictGraph;
use tpl_design::{LayerId, NetId};
use tpl_geom::Rect;

/// The colour distance of the layouts.
const DCOLOR: i64 = 45;

/// Up to 40 unmasked wires and pins of 4 nets on 2 layers, on a 20-unit
/// grid: wires along one row touch end to end, pins sit on them.
fn arb_features() -> impl Strategy<Value = Vec<Feature>> {
    let feature = (0u32..4, 0u32..2, (0i64..12, 0i64..12), 1i64..6, 0u8..3);
    let feature = feature.prop_map(|(net, layer, (gx, gy), len, shape)| {
        let (x, y) = (gx * 20, gy * 20);
        let rect = match shape {
            0 => Rect::from_coords(x, y, x + len * 20, y + 8),
            1 => Rect::from_coords(x, y, x + 8, y + len * 20),
            _ => Rect::from_coords(x, y, x + 2 * len, y + 2 * len),
        };
        let (net, layer) = (NetId::new(net), LayerId::new(layer));
        if shape < 2 {
            Feature::wire(net, layer, rect, None)
        } else {
            Feature::pin(net, layer, rect, None)
        }
    });
    prop::collection::vec(feature, 1..40)
}

proptest! {
    /// The graph's neighbours, edge count and siblings equal brute-force
    /// O(n^2) recounts: different nets on one layer closer than `Dcolor`
    /// (pin-pin pairs included) are neighbours, intersecting features of
    /// one net on one layer are siblings, both listed ascending.
    #[test]
    fn graph_matches_bruteforce(features in arb_features()) {
        let mut layout = ColoredLayout::new(Rect::from_coords(0, 0, 400, 400), 2, DCOLOR);
        for f in &features {
            layout.add(*f);
        }
        let graph = ConflictGraph::build(&layout);
        let mut edges = 0;
        for (v, f) in features.iter().enumerate() {
            let mut neighbors = Vec::new();
            let mut siblings = Vec::new();
            for (u, g) in features.iter().enumerate() {
                if u == v || g.layer != f.layer {
                    continue;
                }
                if g.net != f.net && g.rect.spacing_to(&f.rect) < DCOLOR {
                    neighbors.push(u);
                    edges += usize::from(u > v);
                }
                if g.net == f.net && g.rect.intersects(&f.rect) {
                    siblings.push(u);
                }
            }
            prop_assert_eq!(graph.neighbors(v), &neighbors[..]);
            prop_assert_eq!(graph.siblings(v), &siblings[..]);
        }
        prop_assert_eq!(graph.num_nodes(), features.len());
        prop_assert_eq!(graph.num_edges(), edges);
    }
}
