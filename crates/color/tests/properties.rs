//! Property-based tests for the colour substrate.

use proptest::prelude::*;
use tpl_color::{ColorMap, ColorState, ColoredLayout, Feature, Mask};
use tpl_design::{DesignBuilder, LayerId, NetId, Technology};
use tpl_geom::Rect;
use tpl_grid::GridGraph;

/// Half-width of a vertex's wire footprint, as the routers' searches see it.
const HALF_WIDTH: i64 = 4;

/// The grid of an empty `layers`-layer design on a `size` x `size` die.
fn grid(layers: usize, size: i64) -> GridGraph {
    let design = DesignBuilder::new(
        "map",
        Technology::ispd_like(layers),
        Rect::from_coords(0, 0, size, size),
    )
    .build()
    .unwrap();
    GridGraph::build(&design)
}

fn arb_state() -> impl Strategy<Value = ColorState> {
    (0u8..8).prop_map(ColorState::from_bits)
}

fn arb_mask() -> impl Strategy<Value = Mask> {
    (0usize..3).prop_map(Mask::from_index)
}

proptest! {
    #[test]
    fn intersection_is_subset_of_both(a in arb_state(), b in arb_state()) {
        let i = a.intersect(b);
        for m in i.candidates() {
            prop_assert!(a.contains(m));
            prop_assert!(b.contains(m));
        }
        prop_assert!(i.len() <= a.len().min(b.len()));
    }

    #[test]
    fn union_contains_both(a in arb_state(), b in arb_state()) {
        let u = a.union(b);
        for m in a.candidates().chain(b.candidates()) {
            prop_assert!(u.contains(m));
        }
        prop_assert_eq!(a.shares_color(b), !a.intersect(b).is_empty());
    }

    #[test]
    fn with_and_without_are_inverse(a in arb_state(), m in arb_mask()) {
        prop_assert!(a.with(m).contains(m));
        prop_assert!(!a.without(m).contains(m));
        prop_assert_eq!(a.with(m).without(m), a.without(m));
    }

    #[test]
    fn single_agrees_with_len(a in arb_state()) {
        match a.single() {
            Some(m) => {
                prop_assert_eq!(a.len(), 1);
                prop_assert!(a.contains(m));
            }
            None => prop_assert!(a.len() != 1),
        }
    }

    #[test]
    fn display_roundtrips_through_bits(a in arb_state()) {
        let text = a.to_string();
        let bits = u8::from_str_radix(&text, 2).unwrap();
        prop_assert_eq!(ColorState::from_bits(bits), a);
    }

    /// Random wire soup: the number of conflicts counted by ColoredLayout
    /// equals a brute-force O(n^2) recount, and colouring every wire with a
    /// distinct-mask greedy scheme never *increases* conflicts relative to
    /// all-same-mask colouring.
    #[test]
    fn conflict_count_matches_bruteforce(
        wires in prop::collection::vec(
            (0u32..6, 0i64..30, 0i64..30, 1i64..10, any::<bool>(), 0usize..3),
            1..25
        )
    ) {
        let die = Rect::from_coords(0, 0, 2000, 2000);
        let dcolor = 45;
        let mut layout = ColoredLayout::new(die, 2, dcolor);
        let mut features = Vec::new();
        for (net, gx, gy, len, horizontal, mask) in wires {
            let x = gx * 20;
            let y = gy * 20;
            let rect = if horizontal {
                Rect::from_coords(x, y, x + len * 20, y + 8)
            } else {
                Rect::from_coords(x, y, x + 8, y + len * 20)
            };
            let f = Feature::wire(NetId::new(net), LayerId::new(0), rect, Some(Mask::from_index(mask)));
            features.push(f);
            layout.add(f);
        }
        // Brute force recount.
        let mut expected = 0;
        for i in 0..features.len() {
            for j in (i + 1)..features.len() {
                let (a, b) = (&features[i], &features[j]);
                if a.net != b.net
                    && a.mask == b.mask
                    && a.rect.spacing_to(&b.rect) < dcolor
                {
                    expected += 1;
                }
            }
        }
        prop_assert_eq!(layout.count_conflicts(), expected);
    }

    /// The ColorMap's mask pressure around a rectangle equals a brute-force
    /// recount over the inserted features.
    #[test]
    fn mask_pressure_matches_bruteforce(
        wires in prop::collection::vec(
            (0u32..5, 0i64..40, 0i64..40, 1i64..8, 0usize..3),
            1..20
        ),
        query in (0i64..40, 0i64..40, 1i64..8),
    ) {
        let dcolor = 45;
        let mut map = ColorMap::new(&grid(2, 2000), dcolor);
        let mut features = Vec::new();
        for (net, gx, gy, len, mask) in wires {
            let rect = Rect::from_coords(gx * 20, gy * 20, gx * 20 + len * 20, gy * 20 + 8);
            let f = Feature::wire(NetId::new(net), LayerId::new(0), rect, Some(Mask::from_index(mask)));
            features.push(f);
            map.insert(f);
        }
        let qrect = Rect::from_coords(query.0 * 20, query.1 * 20, query.0 * 20 + query.2 * 20, query.1 * 20 + 8);
        let qnet = NetId::new(99);
        let pressure = map.mask_pressure(qnet, LayerId::new(0), &qrect);
        let mut expected = [0usize; 3];
        for f in &features {
            if f.rect.spacing_to(&qrect) < dcolor {
                expected[f.mask.unwrap().index()] += 1;
            }
        }
        prop_assert_eq!(pressure, expected);
    }

    /// Removing a net from the ColorMap removes exactly its features.
    #[test]
    fn remove_net_is_exact(
        wires in prop::collection::vec((0u32..4, 0i64..40, 0i64..40, 0usize..3), 1..30),
        victim in 0u32..4,
    ) {
        let mut map = ColorMap::new(&grid(1, 2000), 45);
        let mut victim_count = 0;
        for (net, gx, gy, mask) in &wires {
            let rect = Rect::from_coords(gx * 20, gy * 20, gx * 20 + 20, gy * 20 + 8);
            map.insert(Feature::wire(NetId::new(*net), LayerId::new(0), rect, Some(Mask::from_index(*mask))));
            if *net == victim {
                victim_count += 1;
            }
        }
        let before = map.len();
        let removed = map.remove_net(NetId::new(victim));
        prop_assert_eq!(removed, victim_count);
        prop_assert_eq!(map.len(), before - victim_count);
        // No live feature of the victim remains.
        prop_assert!(map.live_features().all(|f| f.net != Some(NetId::new(victim))));
    }

    /// Under random insert / remove_net sequences (wires and pins, every
    /// mask and none, rects past the die, features exactly `dcolor - 1` and
    /// `dcolor` from a vertex footprint), the maintained per-vertex pressure
    /// equals a fresh `mask_pressure` query over the vertex's footprint
    /// after every operation, at every vertex, both for a net with live
    /// features (own-net exclusion) and for one without.
    #[test]
    fn vertex_pressure_matches_a_fresh_query_after_every_operation(
        ops in prop::collection::vec(
            (0u8..8, 0u32..4, 0usize..2, -100i64..500, -100i64..500, 1i64..200, 0usize..4, any::<bool>()),
            1..40
        ),
    ) {
        let grid = grid(2, 400);
        let dcolor = 45;
        let mut map = ColorMap::new(&grid, dcolor);
        let unused = NetId::new(7);
        for (kind, net, layer, a, b, len, mask, flag) in ops {
            let net = NetId::new(net);
            if kind == 0 {
                map.remove_net(net);
            } else {
                let layer = LayerId::from(layer);
                let mask = (mask < 3).then(|| Mask::from_index(mask));
                let feature = match kind {
                    // A wire anywhere, possibly past the die.
                    1..=3 => {
                        let (w, h) = if flag { (len, 8) } else { (8, len) };
                        Feature::wire(net, layer, Rect::from_coords(a, b, a + w, b + h), mask)
                    }
                    // A pin shape.
                    4 => {
                        let side = len % 30 + 1;
                        Feature::pin(net, layer, Rect::from_coords(a, b, a + side, b + side), mask)
                    }
                    // A wire or pin `dcolor - 1` or `dcolor` from the
                    // footprint of the vertex nearest (a, b): east, west,
                    // north, south or diagonally off it.
                    _ => {
                        let p = grid.point_of(grid.vertex(0, grid.ix_near(a), grid.iy_near(b)));
                        let near = HALF_WIDTH + if flag { dcolor - 1 } else { dcolor };
                        let (x, y) = match len % 5 {
                            0 => (p.x + near, p.y - HALF_WIDTH),
                            1 => (p.x - near - len, p.y - HALF_WIDTH),
                            2 => (p.x - HALF_WIDTH, p.y + near),
                            3 => (p.x - HALF_WIDTH, p.y - near - len),
                            _ => (p.x + near, p.y + near),
                        };
                        let rect = Rect::from_coords(x, y, x + len, y + len);
                        if kind == 5 {
                            Feature::pin(net, layer, rect, mask)
                        } else {
                            Feature::wire(net, layer, rect, mask)
                        }
                    }
                };
                map.insert(feature);
            }
            let owner = map.live_features().find_map(|f| f.net).unwrap_or(net);
            for v in grid.iter_vertices() {
                let footprint = Rect::from_point(grid.point_of(v)).expanded(HALF_WIDTH);
                for queried in [owner, unused] {
                    prop_assert_eq!(
                        (queried, v, map.vertex_pressure(queried, v)),
                        (queried, v, map.mask_pressure(queried, grid.layer_of(v), &footprint))
                    );
                }
            }
        }
    }
}
