//! Mapping pins onto the grid vertices they cover.

use crate::{EpochMap, GridGraph, VertexId};
use tpl_design::{Design, NetId, PinId};

/// Pre-computed pin-to-vertex coverage for a design.
///
/// A pin covers every grid vertex on one of its shape layers whose point lies
/// within the shape expanded by half a pitch; this guarantees at least one
/// access vertex even for off-grid pins.  Routers use the coverage both to
/// seed searches (sources) and to detect when a search has reached an
/// unconnected pin (targets), mirroring `get_covered_vertices` in
/// Algorithm 1 of the paper.
#[derive(Clone, Debug)]
pub struct PinCoverage {
    per_pin: Vec<Vec<VertexId>>,
    /// For each vertex: the raw id of the pin covering it, or [`NO_PIN`]
    /// (first pin wins; the generator never lets pins of different nets
    /// overlap).
    vertex_pin: Vec<u32>,
    /// The net of each pin, so the owner of a vertex costs no read of the
    /// design.
    pin_net: Vec<NetId>,
}

/// The `vertex_pin` entry of a vertex no pin covers.
const NO_PIN: u32 = u32::MAX;

impl PinCoverage {
    /// Computes the coverage of every pin of the design.
    pub fn build(grid: &GridGraph, design: &Design) -> Self {
        let mut per_pin: Vec<Vec<VertexId>> = Vec::with_capacity(design.pins().len());
        let mut vertex_pin = vec![NO_PIN; grid.num_vertices()];
        for pin in design.pins() {
            let mut covered = Vec::new();
            for (layer, rect) in pin.shapes() {
                for v in grid.vertices_in_rect(*layer, rect) {
                    covered.push(v);
                }
            }
            covered.sort_unstable();
            covered.dedup();
            // Guarantee at least one access point: snap the shape centre to
            // the nearest vertex on the shape's layer.
            if covered.is_empty() {
                if let Some((layer, rect)) = pin.shapes().first() {
                    let c = rect.center();
                    let v = grid.vertex(layer.index(), grid.ix_near(c.x), grid.iy_near(c.y));
                    covered.push(v);
                }
            }
            for v in &covered {
                if vertex_pin[v.index()] == NO_PIN {
                    vertex_pin[v.index()] = pin.id().0;
                }
            }
            per_pin.push(covered);
        }
        Self {
            per_pin,
            vertex_pin,
            pin_net: design.pins().iter().map(|pin| pin.net()).collect(),
        }
    }

    /// The vertices covered by a pin.
    ///
    /// # Panics
    ///
    /// Panics if the pin id is out of range.
    #[inline]
    pub fn vertices(&self, pin: PinId) -> &[VertexId] {
        &self.per_pin[pin.index()]
    }

    /// The pin covering a vertex, if any.
    #[inline]
    pub fn pin_at(&self, v: VertexId) -> Option<PinId> {
        let pin = self.vertex_pin[v.index()];
        (pin != NO_PIN).then_some(PinId::new(pin))
    }

    /// Whether a pin of a net other than `net` covers `v`.
    #[inline]
    pub fn is_foreign_pin(&self, v: VertexId, net: NetId) -> bool {
        let pin = self.vertex_pin[v.index()];
        pin != NO_PIN && self.pin_net[pin as usize] != net
    }

    /// Number of pins covered.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.per_pin.len()
    }
}

/// The goals of one search: which vertices end it, and for which pin.
///
/// Marks are epoch-stamped, so starting a new search's marks costs O(1) and
/// the goal test on a pop is one stamp and one slot read.
#[derive(Clone, Debug)]
pub struct GoalMarks {
    /// The raw id of the pin each marked vertex ends the search for.
    pin: EpochMap<u32>,
}

impl GoalMarks {
    /// Marks over `num_vertices` vertices, none set.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            pin: EpochMap::new(num_vertices),
        }
    }

    /// Clears every mark in O(1).
    pub fn begin(&mut self) {
        self.pin.begin();
    }

    /// Marks `v` as a goal for `pin`.
    #[inline]
    pub fn mark(&mut self, v: VertexId, pin: PinId) {
        self.pin.insert(v.index(), pin.0);
    }

    /// Clears every mark, then marks the vertices an `unreached` pin owns: a
    /// vertex `v` of `coverage.vertices(pin)` is a goal for `pin` exactly
    /// when `coverage.pin_at(v)` names that pin.  Costs O(targets).
    pub fn mark_unreached(&mut self, coverage: &PinCoverage, unreached: &[PinId]) {
        self.begin();
        for &pin in unreached {
            for &v in coverage.vertices(pin) {
                if coverage.pin_at(v) == Some(pin) {
                    self.mark(v, pin);
                }
            }
        }
    }

    /// The pin `v` is marked for, if any.
    #[inline]
    pub fn pin(&self, v: VertexId) -> Option<PinId> {
        self.pin.get(v.index()).map(PinId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::Rect;

    fn setup() -> (Design, GridGraph, PinCoverage) {
        let mut b = DesignBuilder::new(
            "p",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 400, 400),
        );
        // Pin centred on the track crossing (30, 30).
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(26, 26, 34, 34));
        // Off-grid pin between crossings.
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(218, 218, 222, 222));
        // Large pin covering several crossings on layer 1.
        let p2 = b.add_pin_shape("c", 1, Rect::from_coords(100, 100, 180, 120));
        b.add_net("n0", vec![p0, p1, p2]);
        let d = b.build().unwrap();
        let g = GridGraph::build(&d);
        let cov = PinCoverage::build(&g, &d);
        (d, g, cov)
    }

    #[test]
    fn on_grid_pin_covers_its_crossing() {
        let (_, g, cov) = setup();
        let expected = g.vertex(0, 1, 1); // x=30, y=30
        assert!(cov.vertices(PinId::new(0)).contains(&expected));
        assert_eq!(cov.pin_at(expected), Some(PinId::new(0)));
    }

    #[test]
    fn off_grid_pin_still_gets_an_access_vertex() {
        let (_, _, cov) = setup();
        assert!(!cov.vertices(PinId::new(1)).is_empty());
    }

    #[test]
    fn wide_pin_covers_multiple_vertices_on_its_layer() {
        let (_, g, cov) = setup();
        let vs = cov.vertices(PinId::new(2));
        assert!(
            vs.len() >= 4,
            "wide pin should cover several crossings, got {vs:?}"
        );
        for v in vs {
            assert_eq!(g.layer_of(*v).index(), 1);
        }
    }

    #[test]
    fn a_foreign_pin_belongs_to_another_net_than_the_one_asking() {
        let (d, g, cov) = setup();
        // Every pin is net 0's; net 1 sees them all as foreign.
        for v in g.iter_vertices() {
            for net in [NetId::new(0), NetId::new(1)] {
                let want = cov.pin_at(v).is_some_and(|pin| d.pin(pin).net() != net);
                assert_eq!(cov.is_foreign_pin(v, net), want, "{v:?} {net:?}");
            }
        }
        let covered = cov.vertices(PinId::new(0))[0];
        assert!(cov.is_foreign_pin(covered, NetId::new(1)));
    }

    #[test]
    fn goal_marks_hold_the_owning_unreached_pins_until_the_next_search() {
        let (_, g, cov) = setup();
        let mut marks = GoalMarks::new(g.num_vertices());
        let (a, c) = (PinId::new(0), PinId::new(2));
        marks.mark_unreached(&cov, &[c]);
        for v in g.iter_vertices() {
            let want = (cov.pin_at(v) == Some(c)).then_some(c);
            assert_eq!(marks.pin(v), want, "{v:?}");
        }
        marks.mark_unreached(&cov, &[a]);
        assert!(cov.vertices(c).iter().all(|&v| marks.pin(v).is_none()));
        assert!(cov.vertices(a).iter().all(|&v| marks.pin(v) == Some(a)));
    }
}
