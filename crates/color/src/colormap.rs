//! Incremental spatial map of coloured features.

use crate::Mask;
use tpl_design::{LayerId, NetId};
use tpl_geom::{BinIndex, Dbu, Point, Rect};
use tpl_grid::{GridGraph, VertexId};

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

/// Half-width of the wire footprint a route through a vertex would occupy.
const HALF_WIDTH: Dbu = 4;

/// The wire footprint of a route through the vertex at `p`.
fn footprint(p: Point) -> Rect {
    Rect::from_point(p).expanded(HALF_WIDTH)
}

/// An incremental spatial index of coloured features.
///
/// Routers insert each net's coloured wires as they commit them and query the
/// map while routing later nets.  Rip-up removes a net's features again.  The
/// map answers the per-mask colour cost of Eq. (1), "how many features of
/// *other* nets printed on mask *m* lie within `Dcolor`?", two ways:
///
/// * [`ColorMap::vertex_pressure`] for the wire footprint of a grid vertex.
///   The map keeps every vertex's per-mask count current as features come
///   and go, so the routers' searches read it in O(1) instead of querying
///   the spatial index per visited vertex.
/// * [`ColorMap::mask_pressure`] for an arbitrary rectangle (pin shapes),
///   answered by a spatial-index query.
#[derive(Clone, Debug)]
pub struct ColorMap {
    dcolor: Dbu,
    grid: GridGraph,
    per_layer: Vec<BinIndex>,
    features: Vec<Feature>,
    alive: Vec<bool>,
    /// The live feature ids of each net, indexed by net.
    by_net: Vec<Vec<u32>>,
    /// Per vertex, per mask: the live masked features within `dcolor` of
    /// the vertex's footprint, whatever their net.
    pressure: Vec<[u32; 3]>,
}

impl ColorMap {
    /// Creates an empty map over `grid`'s die and layers with the given
    /// colour-spacing distance.
    ///
    /// # Panics
    ///
    /// Panics if `dcolor` is not positive.
    pub fn new(grid: &GridGraph, dcolor: Dbu) -> Self {
        assert!(dcolor > 0, "dcolor must be positive");
        let bin = (4 * dcolor).max(64);
        Self {
            dcolor,
            grid: grid.clone(),
            per_layer: (0..grid.num_layers())
                .map(|_| BinIndex::new(grid.die(), bin))
                .collect(),
            features: Vec::new(),
            alive: Vec::new(),
            by_net: Vec::new(),
            pressure: vec![[0; 3]; grid.num_vertices()],
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
        if let Some(net) = feature.net {
            if self.by_net.len() <= net.index() {
                self.by_net.resize_with(net.index() + 1, Vec::new);
            }
            self.by_net[net.index()].push(id as u32);
        }
        self.features.push(feature);
        self.alive.push(true);
        let updates = self.update_pressure(&feature, true);
        tpl_trace::counter!("color.pressure_updates", updates);
        id
    }

    /// Removes every live feature of the given net (rip-up), in O(net).
    /// Returns how many features were removed.
    pub fn remove_net(&mut self, net: NetId) -> usize {
        let Some(ids) = self.by_net.get_mut(net.index()) else {
            return 0;
        };
        let mut ids = std::mem::take(ids);
        let mut updates = 0;
        for &id in &ids {
            let feature = self.features[id as usize];
            self.alive[id as usize] = false;
            self.per_layer[feature.layer.index()].remove(id as u64, feature.rect);
            updates += self.update_pressure(&feature, false);
        }
        tpl_trace::counter!("color.pressure_updates", updates);
        let removed = ids.len();
        ids.clear();
        self.by_net[net.index()] = ids;
        removed
    }

    /// Adds (or removes) a feature's contribution to the pressure of every
    /// vertex on its layer whose footprint lies within `dcolor` of it.
    /// Returns the number of vertices updated.
    fn update_pressure(&mut self, feature: &Feature, add: bool) -> usize {
        let Some(mask) = feature.mask else {
            return 0;
        };
        let layer = feature.layer.index();
        let window = feature.rect.expanded(self.dcolor + HALF_WIDTH);
        let (xs, ys) = self.grid.tracks_in_rect(&window);
        let mut updates = 0;
        for iy in ys {
            for ix in xs.clone() {
                let at = footprint(Point::new(self.grid.x_of(ix), self.grid.y_of(iy)));
                if feature.rect.spacing_to(&at) >= self.dcolor {
                    continue;
                }
                let count =
                    &mut self.pressure[self.grid.vertex(layer, ix, iy).index()][mask.index()];
                if add {
                    *count += 1;
                } else {
                    *count -= 1;
                }
                updates += 1;
            }
        }
        updates
    }

    /// Per-mask pressure on the wire footprint of vertex `v` (its point
    /// expanded by the wire half-width): `result[m]` is the number of live
    /// features of *other* nets printed on mask `m` within `dcolor`.  Equal
    /// to [`mask_pressure`](Self::mask_pressure) over that footprint, read
    /// from the maintained count minus `net`'s own nearby features (none
    /// while the routers search a ripped-up net).
    #[inline]
    pub fn vertex_pressure(&self, net: NetId, v: VertexId) -> [usize; 3] {
        let mut pressure = self.pressure[v.index()].map(|c| c as usize);
        let own = self.by_net.get(net.index()).map_or(&[][..], Vec::as_slice);
        if !own.is_empty() {
            let layer = self.grid.layer_of(v);
            let at = footprint(self.grid.point_of(v));
            for &id in own {
                let f = &self.features[id as usize];
                if let Some(mask) = f.mask {
                    if f.layer == layer && f.rect.spacing_to(&at) < self.dcolor {
                        pressure[mask.index()] -= 1;
                    }
                }
            }
        }
        pressure
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

    /// The mask of a pin of `net` with `shapes` whose wire arrives on
    /// `wire`: the least-pressed mask over the shapes
    /// ([`mask_pressure`](Self::mask_pressure) summed), `wire` first among
    /// equals and then mask order.  So the pin keeps its wire's mask unless
    /// a feature of another net presses it harder than another mask, and
    /// pays a stitch rather than a conflict: pin geometry cannot move.
    /// Both colour routers apply it through [`color_route`](crate::color_route).
    pub fn pin_mask(&self, net: NetId, shapes: &[(LayerId, Rect)], wire: Mask) -> Mask {
        let mut pressure = [0usize; 3];
        for (layer, rect) in shapes {
            let p = self.mask_pressure(net, *layer, rect);
            for m in 0..3 {
                pressure[m] += p[m];
            }
        }
        Mask::ALL
            .into_iter()
            .min_by_key(|m| (pressure[m.index()], *m != wire, m.index()))
            .expect("three masks")
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
    use tpl_design::{DesignBuilder, Technology};

    fn map() -> ColorMap {
        let design = DesignBuilder::new(
            "map",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        )
        .build()
        .unwrap();
        ColorMap::new(&GridGraph::build(&design), 45)
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

    #[test]
    fn a_pin_keeps_its_wire_mask_unless_another_net_presses_it() {
        let mut m = map();
        let (a, b) = (
            Rect::from_coords(100, 100, 110, 110),
            Rect::from_coords(500, 100, 510, 110),
        );
        let pin = [(LayerId::new(0), a)];
        let pin_net = NetId::new(0);
        // Nothing nearby: every wire mask is kept.
        for wire in Mask::ALL {
            assert_eq!(m.pin_mask(pin_net, &pin, wire), wire);
        }
        // The pin's own net exerts no pressure.
        let near_a = Rect::from_coords(100, 120, 110, 130);
        m.insert(Feature::wire(
            pin_net,
            LayerId::new(0),
            near_a,
            Some(Mask::Red),
        ));
        assert_eq!(m.pin_mask(pin_net, &pin, Mask::Red), Mask::Red);
        // A red wire of another net: a red pin moves to the least pressed
        // mask, green before blue; a free mask stays.
        m.insert(Feature::wire(
            NetId::new(1),
            LayerId::new(0),
            near_a,
            Some(Mask::Red),
        ));
        assert_eq!(m.pin_mask(pin_net, &pin, Mask::Red), Mask::Green);
        assert_eq!(m.pin_mask(pin_net, &pin, Mask::Blue), Mask::Blue);
        // Every mask pressed once: the wire's mask wins the tie.
        m.insert(Feature::wire(
            NetId::new(2),
            LayerId::new(0),
            near_a,
            Some(Mask::Green),
        ));
        m.insert(Feature::wire(
            NetId::new(3),
            LayerId::new(0),
            near_a,
            Some(Mask::Blue),
        ));
        assert_eq!(m.pin_mask(pin_net, &pin, Mask::Green), Mask::Green);
        // Pressure sums over the shapes: two green wires by the second
        // shape press green hardest, so a green pin moves to red and a red
        // one stays.
        let near_b = Rect::from_coords(500, 120, 510, 130);
        m.insert(Feature::wire(
            NetId::new(4),
            LayerId::new(0),
            near_b,
            Some(Mask::Green),
        ));
        m.insert(Feature::wire(
            NetId::new(5),
            LayerId::new(0),
            near_b,
            Some(Mask::Green),
        ));
        let both = [(LayerId::new(0), a), (LayerId::new(0), b)];
        assert_eq!(m.pin_mask(pin_net, &both, Mask::Red), Mask::Red);
        assert_eq!(m.pin_mask(pin_net, &both, Mask::Green), Mask::Red);
    }
}
