//! Incremental spatial map of coloured features.

use crate::Mask;
use tpl_design::{LayerId, NetId};
use tpl_geom::{BinIndex, Dbu, Rect};

/// What kind of layout object a feature represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureKind {
    /// A routed wire segment.
    Wire,
    /// A pin shape.
    Pin,
    /// A pre-placed obstacle.
    Obstacle,
}

/// A coloured (or not-yet-coloured) rectangle on one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Feature {
    /// The owning net; `None` for obstacles.
    pub net: Option<NetId>,
    /// The layer the feature sits on.
    pub layer: LayerId,
    /// The feature geometry.
    pub rect: Rect,
    /// The mask the feature is printed on, if decided.
    pub mask: Option<Mask>,
    /// The feature kind.
    pub kind: FeatureKind,
}

impl Feature {
    /// A wire feature.
    pub fn wire(net: NetId, layer: LayerId, rect: Rect, mask: Option<Mask>) -> Self {
        Feature {
            net: Some(net),
            layer,
            rect,
            mask,
            kind: FeatureKind::Wire,
        }
    }

    /// A pin feature.
    pub fn pin(net: NetId, layer: LayerId, rect: Rect, mask: Option<Mask>) -> Self {
        Feature {
            net: Some(net),
            layer,
            rect,
            mask,
            kind: FeatureKind::Pin,
        }
    }

    /// An obstacle feature.
    pub fn obstacle(layer: LayerId, rect: Rect, mask: Option<Mask>) -> Self {
        Feature {
            net: None,
            layer,
            rect,
            mask,
            kind: FeatureKind::Obstacle,
        }
    }
}

/// An incremental spatial index of coloured features.
///
/// Routers insert each net's coloured wires as they commit them and query the
/// map while routing later nets: [`ColorMap::mask_pressure`] answers "how
/// many features of *other* nets printed on mask *m* lie within `Dcolor` of
/// this rectangle?" — the per-mask colour cost of Eq. (1).  Rip-up removes a
/// net's features again.
#[derive(Clone, Debug)]
pub struct ColorMap {
    dcolor: Dbu,
    per_layer: Vec<BinIndex>,
    features: Vec<Feature>,
    alive: Vec<bool>,
}

impl ColorMap {
    /// Creates an empty map covering `die` with `num_layers` layers and the
    /// given colour-spacing distance.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers` is zero or `dcolor` is not positive.
    pub fn new(die: Rect, num_layers: usize, dcolor: Dbu) -> Self {
        assert!(num_layers > 0, "need at least one layer");
        assert!(dcolor > 0, "dcolor must be positive");
        let bin = (4 * dcolor).max(64);
        Self {
            dcolor,
            per_layer: (0..num_layers).map(|_| BinIndex::new(die, bin)).collect(),
            features: Vec::new(),
            alive: Vec::new(),
        }
    }

    /// The colour-spacing distance the map was built with.
    #[inline]
    pub fn dcolor(&self) -> Dbu {
        self.dcolor
    }

    /// Number of live features.
    pub fn len(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// `true` when the map holds no live features.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a feature and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the feature's layer is out of range.
    pub fn insert(&mut self, feature: Feature) -> usize {
        assert!(
            feature.layer.index() < self.per_layer.len(),
            "feature layer {} out of range",
            feature.layer
        );
        let id = self.features.len();
        self.per_layer[feature.layer.index()].insert(id as u64, feature.rect);
        self.features.push(feature);
        self.alive.push(true);
        id
    }

    /// Removes every live feature of the given net (rip-up).  Returns how
    /// many features were removed.
    pub fn remove_net(&mut self, net: NetId) -> usize {
        let mut removed = 0;
        for (id, feature) in self.features.iter().enumerate() {
            if self.alive[id] && feature.net == Some(net) {
                self.alive[id] = false;
                self.per_layer[feature.layer.index()].remove(id as u64, feature.rect);
                removed += 1;
            }
        }
        removed
    }

    /// Per-mask pressure around a rectangle on `layer`: `result[m]` is the
    /// number of live features of *other* nets printed on mask `m` within
    /// `dcolor`.  Features of `net` itself (a net never conflicts with
    /// itself) and features without a mask exert no pressure.  The query
    /// does not allocate.
    pub fn mask_pressure(&self, net: NetId, layer: LayerId, rect: &Rect) -> [usize; 3] {
        let window = rect.expanded(self.dcolor - 1);
        let mut pressure = [0usize; 3];
        self.per_layer[layer.index()].for_each_intersecting(&window, |id, _| {
            let id = id as usize;
            let f = &self.features[id];
            if !self.alive[id] || f.net == Some(net) {
                return;
            }
            if let Some(mask) = f.mask {
                if f.rect.spacing_to(rect) < self.dcolor {
                    pressure[mask.index()] += 1;
                }
            }
        });
        pressure
    }

    /// All live features (mostly for building the final [`crate::ColoredLayout`]).
    pub fn live_features(&self) -> impl Iterator<Item = &Feature> {
        self.features
            .iter()
            .enumerate()
            .filter(|(i, _)| self.alive[*i])
            .map(|(_, f)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ColorMap {
        ColorMap::new(Rect::from_coords(0, 0, 1000, 1000), 3, 45)
    }

    #[test]
    fn insert_and_query_pressure() {
        let mut m = map();
        m.insert(Feature::wire(
            NetId::new(0),
            LayerId::new(1),
            Rect::from_coords(100, 100, 200, 108),
            Some(Mask::Red),
        ));
        m.insert(Feature::wire(
            NetId::new(1),
            LayerId::new(1),
            Rect::from_coords(100, 120, 200, 128),
            Some(Mask::Green),
        ));
        // Query as net 2 near the two wires.
        let p = m.mask_pressure(
            NetId::new(2),
            LayerId::new(1),
            &Rect::from_coords(100, 140, 200, 148),
        );
        // The green wire is 12 dbu away (< 45); the red one is 32 away (< 45).
        assert_eq!(p, [1, 1, 0]);
        // Far away there is no pressure.
        let p = m.mask_pressure(
            NetId::new(2),
            LayerId::new(1),
            &Rect::from_coords(600, 600, 700, 608),
        );
        assert_eq!(p, [0, 0, 0]);
        // On a different layer there is no pressure either.
        let p = m.mask_pressure(
            NetId::new(2),
            LayerId::new(2),
            &Rect::from_coords(100, 140, 200, 148),
        );
        assert_eq!(p, [0, 0, 0]);
    }

    #[test]
    fn own_net_features_are_ignored() {
        let mut m = map();
        m.insert(Feature::wire(
            NetId::new(0),
            LayerId::new(0),
            Rect::from_coords(0, 0, 100, 8),
            Some(Mask::Blue),
        ));
        let p = m.mask_pressure(
            NetId::new(0),
            LayerId::new(0),
            &Rect::from_coords(0, 20, 100, 28),
        );
        assert_eq!(p, [0, 0, 0]);
    }

    #[test]
    fn uncolored_features_exert_no_pressure() {
        let mut m = map();
        m.insert(Feature::pin(
            NetId::new(0),
            LayerId::new(0),
            Rect::from_coords(0, 0, 10, 10),
            None,
        ));
        let p = m.mask_pressure(
            NetId::new(1),
            LayerId::new(0),
            &Rect::from_coords(0, 20, 10, 30),
        );
        assert_eq!(p, [0, 0, 0]);
    }

    #[test]
    fn remove_net_erases_its_features() {
        let mut m = map();
        m.insert(Feature::wire(
            NetId::new(3),
            LayerId::new(0),
            Rect::from_coords(0, 0, 100, 8),
            Some(Mask::Red),
        ));
        m.insert(Feature::wire(
            NetId::new(4),
            LayerId::new(0),
            Rect::from_coords(0, 30, 100, 38),
            Some(Mask::Green),
        ));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove_net(NetId::new(3)), 1);
        assert_eq!(m.len(), 1);
        let p = m.mask_pressure(
            NetId::new(9),
            LayerId::new(0),
            &Rect::from_coords(0, 10, 100, 18),
        );
        assert_eq!(p, [0, 1, 0]);
    }

    #[test]
    fn exactly_dcolor_away_is_not_a_neighbor() {
        let mut m = map();
        m.insert(Feature::wire(
            NetId::new(0),
            LayerId::new(0),
            Rect::from_coords(0, 0, 100, 10),
            Some(Mask::Red),
        ));
        // Spacing exactly dcolor (45) is legal: rule is `< dcolor`.
        let p = m.mask_pressure(
            NetId::new(1),
            LayerId::new(0),
            &Rect::from_coords(0, 55, 100, 65),
        );
        assert_eq!(p, [0, 0, 0]);
        // One dbu closer violates.
        let p = m.mask_pressure(
            NetId::new(1),
            LayerId::new(0),
            &Rect::from_coords(0, 54, 100, 64),
        );
        assert_eq!(p, [1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inserting_on_a_missing_layer_panics() {
        let mut m = map();
        m.insert(Feature::wire(
            NetId::new(0),
            LayerId::new(9),
            Rect::from_coords(0, 0, 10, 10),
            Some(Mask::Red),
        ));
    }
}
