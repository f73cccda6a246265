//! Routed-net data model shared by every router in the workspace.

use crate::{Design, LayerId, NetId};
use tpl_geom::{Dbu, Point, Rect, Segment};

/// A straight routed wire piece on one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteSegment {
    /// The layer of the wire.
    pub layer: LayerId,
    /// The centre line of the wire.
    pub seg: Segment,
    /// Total wire width.
    pub width: Dbu,
}

impl RouteSegment {
    /// Creates a segment.
    pub fn new(layer: LayerId, seg: Segment, width: Dbu) -> Self {
        Self { layer, seg, width }
    }

    /// The physical metal rectangle of the wire.
    #[inline]
    pub fn rect(&self) -> Rect {
        self.seg.to_rect(self.width)
    }

    /// Centre-line length of the wire.
    #[inline]
    pub fn length(&self) -> Dbu {
        self.seg.length()
    }
}

/// A via connecting `lower_layer` and `lower_layer + 1` at a point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViaInstance {
    /// The lower of the two layers connected by the via.
    pub lower_layer: LayerId,
    /// The via location (cut centre).
    pub at: Point,
}

impl ViaInstance {
    /// Creates a via.
    pub fn new(lower_layer: LayerId, at: Point) -> Self {
        Self { lower_layer, at }
    }

    /// The layer above the cut.
    #[inline]
    pub fn upper_layer(&self) -> LayerId {
        LayerId::new(self.lower_layer.0 + 1)
    }
}

/// The routed geometry of one net.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutedNet {
    /// Wire segments.
    pub segments: Vec<RouteSegment>,
    /// Vias.
    pub vias: Vec<ViaInstance>,
}

impl RoutedNet {
    /// Creates an empty routed net.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total centre-line wirelength.
    pub fn wirelength(&self) -> Dbu {
        self.segments.iter().map(|s| s.length()).sum()
    }

    /// Number of vias.
    pub fn via_count(&self) -> usize {
        self.vias.len()
    }

    /// `true` when the net has no geometry at all.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty() && self.vias.is_empty()
    }

    /// Checks that the routed geometry electrically connects every pin of
    /// `net` in `design`.
    ///
    /// Connectivity is evaluated with a union–find over pin shapes, wire
    /// rectangles and vias: shapes on the same layer connect when their
    /// rectangles touch or overlap; a via connects whatever it touches on its
    /// two layers.
    pub fn connects_all_pins(&self, design: &Design, net: NetId) -> bool {
        #[derive(Clone, Copy)]
        struct Item {
            layer: u32,
            rect: Rect,
        }

        let mut items: Vec<Item> = Vec::new();
        let mut pin_first_item: Vec<usize> = Vec::new();

        for pin_id in design.net(net).pins() {
            let pin = design.pin(*pin_id);
            pin_first_item.push(items.len());
            for (layer, rect) in pin.shapes() {
                items.push(Item {
                    layer: layer.0,
                    rect: *rect,
                });
            }
        }
        let num_pin_items = items.len();
        if num_pin_items == 0 {
            return true;
        }

        for seg in &self.segments {
            items.push(Item {
                layer: seg.layer.0,
                rect: seg.rect(),
            });
        }
        // A via is modelled as two stacked unit shapes, one per layer.
        let mut via_pairs: Vec<(usize, usize)> = Vec::new();
        for via in &self.vias {
            let r = Rect::from_point(via.at).expanded(1);
            let lower = items.len();
            items.push(Item {
                layer: via.lower_layer.0,
                rect: r,
            });
            let upper = items.len();
            items.push(Item {
                layer: via.upper_layer().0,
                rect: r,
            });
            via_pairs.push((lower, upper));
        }

        // Union-find.
        let mut parent: Vec<usize> = (0..items.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        fn union(parent: &mut Vec<usize>, a: usize, b: usize) {
            let ra = find(parent, a);
            let rb = find(parent, b);
            if ra != rb {
                parent[rb] = ra;
            }
        }

        for (a, b) in &via_pairs {
            union(&mut parent, *a, *b);
        }
        for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                if items[i].layer == items[j].layer && items[i].rect.intersects(&items[j].rect) {
                    union(&mut parent, i, j);
                }
            }
        }

        // Every pin's first item must be in the same component.  Pins connect
        // through any of their shapes, so first merge a pin's own shapes.
        let mut pin_roots = Vec::new();
        for (k, pin_id) in design.net(net).pins().iter().enumerate() {
            let start = pin_first_item[k];
            let count = design.pin(*pin_id).shapes().len();
            if count == 0 {
                continue;
            }
            for off in 1..count {
                union(&mut parent, start, start + off);
            }
            pin_roots.push(find(&mut parent, start));
        }
        pin_roots.windows(2).all(|w| {
            let a = w[0];
            let b = w[1];
            find(&mut parent, a) == find(&mut parent, b)
        })
    }
}

/// The routing result for a whole design.
///
/// Nets that have not been routed yet map to `None`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingSolution {
    nets: Vec<Option<RoutedNet>>,
}

impl RoutingSolution {
    /// Creates an empty solution able to hold `num_nets` nets.
    pub fn new(num_nets: usize) -> Self {
        Self {
            nets: vec![None; num_nets],
        }
    }

    /// Number of nets the solution can hold.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Stores (or replaces) the routed geometry of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    pub fn set(&mut self, net: NetId, routed: RoutedNet) {
        self.nets[net.index()] = Some(routed);
    }

    /// Removes the routed geometry of a net (rip-up) and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    pub fn rip_up(&mut self, net: NetId) -> Option<RoutedNet> {
        self.nets[net.index()].take()
    }

    /// The routed geometry of a net, if present.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    #[inline]
    pub fn get(&self, net: NetId) -> Option<&RoutedNet> {
        self.nets[net.index()].as_ref()
    }

    /// Iterates over routed nets as `(NetId, &RoutedNet)`.
    pub fn iter(&self) -> impl Iterator<Item = (NetId, &RoutedNet)> {
        self.nets
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|r| (NetId::from(i), r)))
    }

    /// Number of nets with stored geometry.
    pub fn routed_count(&self) -> usize {
        self.nets.iter().filter(|n| n.is_some()).count()
    }

    /// Total wirelength over all routed nets.
    pub fn total_wirelength(&self) -> Dbu {
        self.iter().map(|(_, n)| n.wirelength()).sum()
    }

    /// Total via count over all routed nets.
    pub fn total_vias(&self) -> usize {
        self.iter().map(|(_, n)| n.via_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignBuilder, Technology};

    fn two_pin_design() -> (Design, NetId) {
        let mut b = DesignBuilder::new(
            "t",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(200, 200, 210, 210));
        let n = b.add_net("n0", vec![p0, p1]);
        (b.build().unwrap(), n)
    }

    #[test]
    fn wirelength_and_vias_accumulate() {
        let mut rn = RoutedNet::new();
        rn.segments.push(RouteSegment::new(
            LayerId::new(1),
            Segment::new(Point::new(0, 0), Point::new(100, 0)),
            8,
        ));
        rn.segments.push(RouteSegment::new(
            LayerId::new(2),
            Segment::new(Point::new(100, 0), Point::new(100, 50)),
            8,
        ));
        rn.vias
            .push(ViaInstance::new(LayerId::new(1), Point::new(100, 0)));
        assert_eq!(rn.wirelength(), 150);
        assert_eq!(rn.via_count(), 1);
        assert!(!rn.is_empty());
    }

    #[test]
    fn connectivity_detects_connected_and_broken_routes() {
        let (design, net) = two_pin_design();

        // A legitimate L-shaped connection entirely on layer 0.
        let mut good = RoutedNet::new();
        good.segments.push(RouteSegment::new(
            LayerId::new(0),
            Segment::new(Point::new(5, 5), Point::new(5, 205)),
            8,
        ));
        good.segments.push(RouteSegment::new(
            LayerId::new(0),
            Segment::new(Point::new(5, 205), Point::new(205, 205)),
            8,
        ));
        assert!(good.connects_all_pins(&design, net));

        // A broken route that stops short of the second pin.
        let mut bad = RoutedNet::new();
        bad.segments.push(RouteSegment::new(
            LayerId::new(0),
            Segment::new(Point::new(5, 5), Point::new(5, 100)),
            8,
        ));
        assert!(!bad.connects_all_pins(&design, net));

        // Same shape as `good` but on the wrong layer without vias: broken.
        let mut wrong_layer = RoutedNet::new();
        wrong_layer.segments.push(RouteSegment::new(
            LayerId::new(1),
            Segment::new(Point::new(5, 5), Point::new(5, 205)),
            8,
        ));
        wrong_layer.segments.push(RouteSegment::new(
            LayerId::new(1),
            Segment::new(Point::new(5, 205), Point::new(205, 205)),
            8,
        ));
        assert!(!wrong_layer.connects_all_pins(&design, net));

        // Adding vias at both pins fixes the wrong-layer route.
        let mut with_vias = wrong_layer.clone();
        with_vias
            .vias
            .push(ViaInstance::new(LayerId::new(0), Point::new(5, 5)));
        with_vias
            .vias
            .push(ViaInstance::new(LayerId::new(0), Point::new(205, 205)));
        assert!(with_vias.connects_all_pins(&design, net));
    }

    #[test]
    fn solution_set_get_rip_up() {
        let (design, net) = two_pin_design();
        let mut sol = RoutingSolution::new(design.nets().len());
        assert_eq!(sol.routed_count(), 0);
        let mut rn = RoutedNet::new();
        rn.segments.push(RouteSegment::new(
            LayerId::new(0),
            Segment::new(Point::new(0, 0), Point::new(10, 0)),
            8,
        ));
        sol.set(net, rn.clone());
        assert_eq!(sol.routed_count(), 1);
        assert_eq!(sol.get(net), Some(&rn));
        assert_eq!(sol.total_wirelength(), 10);
        let ripped = sol.rip_up(net);
        assert_eq!(ripped, Some(rn));
        assert_eq!(sol.routed_count(), 0);
        assert_eq!(sol.get(net), None);
    }

    #[test]
    fn via_upper_layer_is_one_above() {
        let v = ViaInstance::new(LayerId::new(2), Point::new(0, 0));
        assert_eq!(v.upper_layer(), LayerId::new(3));
    }
}
