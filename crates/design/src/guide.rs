//! Route guides produced by the global router.

use crate::{LayerId, NetId};
use tpl_geom::Rect;

/// A rectangular guide region over an inclusive span of layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuideRegion {
    /// The lowest and highest layer the region applies to (inclusive).
    pub layers: (LayerId, LayerId),
    /// The guided area in database units.
    pub rect: Rect,
}

/// Route guides for every net of a design.
///
/// A net's guide is the union of its regions, each a rectangle over a span
/// of layers; the global router emits one region per run of gcells along a
/// gcell row, spanning every layer.  A detailed router is free to leave the
/// guide, but pays an out-of-guide penalty (exactly as in the ISPD
/// contests).  Mr.TPL additionally uses the guide region to pre-compute
/// colour costs ("Calculate Color Cost by GR Guide" in the paper's flow).
#[derive(Clone, Debug, Default)]
pub struct RouteGuides {
    per_net: Vec<Vec<GuideRegion>>,
}

impl RouteGuides {
    /// Creates empty guides for `num_nets` nets.
    pub fn new(num_nets: usize) -> Self {
        Self {
            per_net: vec![Vec::new(); num_nets],
        }
    }

    /// Number of nets covered.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.per_net.len()
    }

    /// Adds a guide region for a net over the inclusive layer span `layers`;
    /// `(l, l)` guides layer `l` alone.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range or the span's low layer is above
    /// its high one.
    pub fn add(&mut self, net: NetId, layers: (LayerId, LayerId), rect: Rect) {
        assert!(
            layers.0 <= layers.1,
            "guide layer span {layers:?} is reversed"
        );
        self.per_net[net.index()].push(GuideRegion { layers, rect });
    }

    /// The guide regions of one net (possibly empty = unguided).
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    #[inline]
    pub fn regions(&self, net: NetId) -> &[GuideRegion] {
        &self.per_net[net.index()]
    }

    /// `true` if the given location is inside any guide region of the net
    /// whose span includes that layer.  Nets without any region are treated
    /// as fully guided (no penalty anywhere).
    pub fn covers(&self, net: NetId, layer: LayerId, rect: &Rect) -> bool {
        let regions = self.regions(net);
        if regions.is_empty() {
            return true;
        }
        regions
            .iter()
            .any(|g| g.layers.0 <= layer && layer <= g.layers.1 && g.rect.intersects(rect))
    }

    /// The union bounding box of a net's guide (ignoring layers), if any.
    pub fn bbox(&self, net: NetId) -> Option<Rect> {
        let regions = self.regions(net);
        let mut it = regions.iter().map(|g| g.rect);
        let first = it.next()?;
        Some(it.fold(first, |acc, r| acc.hull(&r)))
    }

    /// Total number of guide regions over all nets.
    pub fn total_regions(&self) -> usize {
        self.per_net.iter().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_guides_cover_everything() {
        let g = RouteGuides::new(2);
        assert!(g.covers(
            NetId::new(0),
            LayerId::new(3),
            &Rect::from_coords(0, 0, 5, 5)
        ));
        assert_eq!(g.bbox(NetId::new(0)), None);
        assert_eq!(g.total_regions(), 0);
    }

    #[test]
    fn covers_checks_layer_and_geometry() {
        let mut g = RouteGuides::new(1);
        let m1 = LayerId::new(1);
        g.add(NetId::new(0), (m1, m1), Rect::from_coords(0, 0, 100, 100));
        assert!(g.covers(
            NetId::new(0),
            LayerId::new(1),
            &Rect::from_coords(50, 50, 60, 60)
        ));
        assert!(!g.covers(
            NetId::new(0),
            LayerId::new(2),
            &Rect::from_coords(50, 50, 60, 60)
        ));
        assert!(!g.covers(
            NetId::new(0),
            LayerId::new(1),
            &Rect::from_coords(500, 500, 600, 600)
        ));
    }

    #[test]
    fn covers_checks_the_whole_layer_span_and_nothing_past_it() {
        let mut g = RouteGuides::new(1);
        let rect = Rect::from_coords(0, 0, 100, 100);
        g.add(NetId::new(0), (LayerId::new(1), LayerId::new(2)), rect);
        let probe = Rect::from_coords(50, 50, 60, 60);
        let covered: Vec<bool> = (0..4u32)
            .map(|l| g.covers(NetId::new(0), LayerId::new(l), &probe))
            .collect();
        assert_eq!(covered, [false, true, true, false]);
        assert_eq!(g.total_regions(), 1);
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn a_reversed_layer_span_is_rejected() {
        let mut g = RouteGuides::new(1);
        let rect = Rect::from_coords(0, 0, 100, 100);
        g.add(NetId::new(0), (LayerId::new(2), LayerId::new(1)), rect);
    }

    #[test]
    fn bbox_is_union_of_regions() {
        let mut g = RouteGuides::new(1);
        let (m0, m1) = (LayerId::new(0), LayerId::new(1));
        g.add(NetId::new(0), (m0, m0), Rect::from_coords(0, 0, 10, 10));
        g.add(NetId::new(0), (m1, m1), Rect::from_coords(90, 90, 120, 100));
        assert_eq!(
            g.bbox(NetId::new(0)),
            Some(Rect::from_coords(0, 0, 120, 100))
        );
        assert_eq!(g.total_regions(), 2);
    }
}
