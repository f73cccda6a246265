//! Counting conflicts and stitches on a finished, coloured layout.

use crate::{ColorMap, Feature, FeatureKind, Mask};
use tpl_design::{Design, LayerId, NetId};
use tpl_geom::{BinIndex, Dbu, Rect};
use tpl_grid::{GridGraph, GridState};

/// A colour conflict: two features of different nets printed on the same mask
/// closer than `Dcolor`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictPair {
    /// Index of the first feature (into the layout's feature list).
    pub a: usize,
    /// Index of the second feature.
    pub b: usize,
    /// The layer the conflict happens on.
    pub layer: LayerId,
    /// The shared mask.
    pub mask: Mask,
}

/// A stitch: two touching features of the *same* net on the same layer
/// printed on different masks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StitchSite {
    /// The net the stitch belongs to.
    pub net: NetId,
    /// The layer of the stitch.
    pub layer: LayerId,
    /// The index of the first feature.
    pub a: usize,
    /// The index of the second feature.
    pub b: usize,
}

/// Aggregate statistics of a coloured layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayoutStats {
    /// Number of colour conflicts (unordered feature pairs).
    pub conflicts: usize,
    /// Number of stitches.
    pub stitches: usize,
    /// Number of features that never received a mask.
    pub uncolored: usize,
    /// Total number of features.
    pub features: usize,
}

/// A fully coloured layout ready for evaluation.
///
/// The evaluation mirrors the paper's tables: the **conflict** column counts
/// unordered pairs of different-net features on the same layer and the same
/// mask with spacing below `Dcolor`; the **stitch** column counts mask
/// changes inside a net (touching same-net features with different masks).
///
/// # Examples
///
/// ```
/// use tpl_color::{ColoredLayout, Feature, Mask};
/// use tpl_design::{LayerId, NetId};
/// use tpl_geom::Rect;
///
/// let mut layout = ColoredLayout::new(Rect::from_coords(0, 0, 1000, 1000), 2, 45);
/// layout.add(Feature::wire(NetId::new(0), LayerId::new(0),
///     Rect::from_coords(0, 0, 200, 8), Some(Mask::Red)));
/// layout.add(Feature::wire(NetId::new(1), LayerId::new(0),
///     Rect::from_coords(0, 20, 200, 28), Some(Mask::Red)));
/// assert_eq!(layout.count_conflicts(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ColoredLayout {
    die: Rect,
    num_layers: usize,
    dcolor: Dbu,
    features: Vec<Feature>,
}

impl ColoredLayout {
    /// Creates an empty layout.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers` is zero or `dcolor` is not positive.
    pub fn new(die: Rect, num_layers: usize, dcolor: Dbu) -> Self {
        assert!(num_layers > 0 && dcolor > 0, "invalid layout parameters");
        Self {
            die,
            num_layers,
            dcolor,
            features: Vec::new(),
        }
    }

    /// The layout of a design's live colour map: every feature the map
    /// currently holds, in the map's order.
    pub fn of_map(design: &Design, map: &ColorMap) -> Self {
        let mut layout = Self::new(
            design.die(),
            design.tech().num_layers(),
            design.tech().dcolor(),
        );
        for f in map.live_features() {
            layout.add(*f);
        }
        layout
    }

    /// Adds a feature and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the feature's layer is out of range.
    pub fn add(&mut self, feature: Feature) -> usize {
        assert!(feature.layer.index() < self.num_layers);
        self.features.push(feature);
        self.features.len() - 1
    }

    /// The features of the layout.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// The colour-spacing distance used for conflict counting.
    pub fn dcolor(&self) -> Dbu {
        self.dcolor
    }

    fn layer_indexes(&self) -> Vec<BinIndex> {
        let bin = (4 * self.dcolor).max(64);
        let mut idx: Vec<BinIndex> = (0..self.num_layers)
            .map(|_| BinIndex::new(self.die, bin))
            .collect();
        for (i, f) in self.features.iter().enumerate() {
            idx[f.layer.index()].insert(i as u64, f.rect);
        }
        idx
    }

    fn conflict_pairs(&self, include_pin_pairs: bool) -> Vec<ConflictPair> {
        let idx = self.layer_indexes();
        let mut out = Vec::new();
        for (i, f) in self.features.iter().enumerate() {
            let (Some(net_i), Some(mask_i)) = (f.net, f.mask) else {
                continue;
            };
            let window = f.rect.expanded(self.dcolor - 1);
            for j in idx[f.layer.index()].query(&window) {
                let j = j as usize;
                if j <= i {
                    continue;
                }
                let g = &self.features[j];
                let (Some(net_j), Some(mask_j)) = (g.net, g.mask) else {
                    continue;
                };
                if net_i == net_j || mask_i != mask_j {
                    continue;
                }
                let both_pins = f.kind == FeatureKind::Pin && g.kind == FeatureKind::Pin;
                if both_pins != include_pin_pairs {
                    continue;
                }
                if f.rect.spacing_to(&g.rect) < self.dcolor {
                    out.push(ConflictPair {
                        a: i,
                        b: j,
                        layer: f.layer,
                        mask: mask_i,
                    });
                }
            }
        }
        out
    }

    /// All routing-induced colour conflicts, each unordered pair reported
    /// once.
    ///
    /// Pairs where *both* features are pins are excluded here: pin geometry
    /// is a fixed input that no router (or decomposer working on a routed
    /// layout) can change, so such conflicts are a property of the benchmark
    /// rather than of the routing/colouring method.  They are available
    /// separately through [`ColoredLayout::input_conflicts`], and every
    /// method in the evaluation is measured under the same rule.
    pub fn conflicts(&self) -> Vec<ConflictPair> {
        self.conflict_pairs(false)
    }

    /// Pin-to-pin colour conflicts (intrinsic to the input pin fabric).
    pub fn input_conflicts(&self) -> Vec<ConflictPair> {
        self.conflict_pairs(true)
    }

    /// Number of routing-induced colour conflicts.
    pub fn count_conflicts(&self) -> usize {
        self.conflicts().len()
    }

    /// All stitches, each unordered pair reported once.
    ///
    /// Only wire and pin features participate; a mask change against an
    /// obstacle is not a stitch.
    pub fn stitches(&self) -> Vec<StitchSite> {
        let idx = self.layer_indexes();
        let mut out = Vec::new();
        for (i, f) in self.features.iter().enumerate() {
            let (Some(net_i), Some(mask_i)) = (f.net, f.mask) else {
                continue;
            };
            if f.kind == FeatureKind::Obstacle {
                continue;
            }
            for j in idx[f.layer.index()].query(&f.rect) {
                let j = j as usize;
                if j <= i {
                    continue;
                }
                let g = &self.features[j];
                let (Some(net_j), Some(mask_j)) = (g.net, g.mask) else {
                    continue;
                };
                if g.kind == FeatureKind::Obstacle {
                    continue;
                }
                if net_i != net_j || mask_i == mask_j {
                    continue;
                }
                if f.rect.intersects(&g.rect) {
                    out.push(StitchSite {
                        net: net_i,
                        layer: f.layer,
                        a: i,
                        b: j,
                    });
                }
            }
        }
        out
    }

    /// Number of stitches.
    pub fn count_stitches(&self) -> usize {
        self.stitches().len()
    }

    /// The conflict-negotiation step of the colour-aware routers: names the
    /// nets to rip up for `conflicts` (pairs into this layout) and charges
    /// the conflict regions with history cost.
    ///
    /// A wire-pin conflict rips up both nets: a rerouted net picks its pin
    /// masks again, so the pin's net can resolve the conflict as well as
    /// the wire's.  Between two wires, or two pins, the larger net id
    /// loses; rerouting either net of a pin-pin conflict re-colours its pin
    /// with full knowledge of the other.  Conflicts involving an obstacle
    /// are skipped.  Every grid vertex under
    /// either feature of a conflict gets `history_increment`, once per
    /// conflict, so the reroute avoids the region.  The victims come back
    /// sorted by id and deduplicated.
    pub fn victims(
        &self,
        conflicts: &[ConflictPair],
        grid: &GridGraph,
        state: &mut GridState,
        history_increment: f64,
    ) -> Vec<NetId> {
        let mut victims = Vec::new();
        for c in conflicts {
            let (fa, fb) = (&self.features[c.a], &self.features[c.b]);
            let (Some(na), Some(nb)) = (fa.net, fb.net) else {
                continue;
            };
            if fa.kind == fb.kind {
                victims.push(na.max(nb));
            } else {
                victims.extend([na, nb]);
            }
            for rect in [fa.rect, fb.rect] {
                for v in grid.vertices_in_rect(c.layer, &rect) {
                    state.add_history(v, history_increment);
                }
            }
        }
        victims.sort_unstable();
        victims.dedup();
        victims
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> LayoutStats {
        LayoutStats {
            conflicts: self.count_conflicts(),
            stitches: self.count_stitches(),
            uncolored: self
                .features
                .iter()
                .filter(|f| f.net.is_some() && f.mask.is_none())
                .count(),
            features: self.features.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ColoredLayout {
        ColoredLayout::new(Rect::from_coords(0, 0, 1000, 1000), 3, 45)
    }

    fn wire(net: u32, layer: u32, rect: Rect, mask: Mask) -> Feature {
        Feature::wire(NetId::new(net), LayerId::new(layer), rect, Some(mask))
    }

    #[test]
    fn same_mask_close_wires_conflict() {
        let mut l = layout();
        l.add(wire(0, 0, Rect::from_coords(0, 0, 200, 8), Mask::Red));
        l.add(wire(1, 0, Rect::from_coords(0, 20, 200, 28), Mask::Red));
        assert_eq!(l.count_conflicts(), 1);
        assert_eq!(l.conflicts()[0].mask, Mask::Red);
    }

    #[test]
    fn different_masks_do_not_conflict() {
        let mut l = layout();
        l.add(wire(0, 0, Rect::from_coords(0, 0, 200, 8), Mask::Red));
        l.add(wire(1, 0, Rect::from_coords(0, 20, 200, 28), Mask::Green));
        assert_eq!(l.count_conflicts(), 0);
    }

    #[test]
    fn far_apart_same_mask_wires_do_not_conflict() {
        let mut l = layout();
        l.add(wire(0, 0, Rect::from_coords(0, 0, 200, 8), Mask::Red));
        l.add(wire(1, 0, Rect::from_coords(0, 60, 200, 68), Mask::Red));
        assert_eq!(l.count_conflicts(), 0);
    }

    #[test]
    fn same_net_never_conflicts_with_itself() {
        let mut l = layout();
        l.add(wire(0, 0, Rect::from_coords(0, 0, 200, 8), Mask::Red));
        l.add(wire(0, 0, Rect::from_coords(0, 20, 200, 28), Mask::Red));
        assert_eq!(l.count_conflicts(), 0);
    }

    #[test]
    fn conflicts_are_per_layer() {
        let mut l = layout();
        l.add(wire(0, 0, Rect::from_coords(0, 0, 200, 8), Mask::Blue));
        l.add(wire(1, 1, Rect::from_coords(0, 20, 200, 28), Mask::Blue));
        assert_eq!(l.count_conflicts(), 0);
    }

    #[test]
    fn four_packed_wires_cannot_avoid_a_conflict_with_three_masks() {
        // The Fig. 1(a) situation: four parallel wires on adjacent tracks
        // (pitch 20 < dcolor 45 even two tracks apart).  Whatever the masks,
        // at least one pair conflicts; with a "best" colouring exactly one.
        let mut l = layout();
        l.add(wire(0, 0, Rect::from_coords(0, 0, 400, 8), Mask::Red));
        l.add(wire(1, 0, Rect::from_coords(0, 20, 400, 28), Mask::Green));
        l.add(wire(2, 0, Rect::from_coords(0, 40, 400, 48), Mask::Blue));
        l.add(wire(3, 0, Rect::from_coords(0, 60, 400, 68), Mask::Green));
        // Wires at y=20 and y=60 are 32 apart (< 45) and share green.
        assert_eq!(l.count_conflicts(), 1);
    }

    #[test]
    fn touching_same_net_different_masks_is_a_stitch() {
        let mut l = layout();
        l.add(wire(0, 0, Rect::from_coords(0, 0, 100, 8), Mask::Red));
        l.add(wire(0, 0, Rect::from_coords(100, 0, 200, 8), Mask::Green));
        assert_eq!(l.count_stitches(), 1);
        assert_eq!(l.count_conflicts(), 0);
        let s = l.stitches();
        assert_eq!(s[0].net, NetId::new(0));
    }

    #[test]
    fn touching_same_net_same_mask_is_not_a_stitch() {
        let mut l = layout();
        l.add(wire(0, 0, Rect::from_coords(0, 0, 100, 8), Mask::Red));
        l.add(wire(0, 0, Rect::from_coords(100, 0, 200, 8), Mask::Red));
        assert_eq!(l.count_stitches(), 0);
    }

    #[test]
    fn disjoint_same_net_different_masks_is_not_a_stitch() {
        let mut l = layout();
        l.add(wire(0, 0, Rect::from_coords(0, 0, 100, 8), Mask::Red));
        l.add(wire(0, 0, Rect::from_coords(300, 0, 400, 8), Mask::Green));
        assert_eq!(l.count_stitches(), 0);
    }

    #[test]
    fn uncolored_features_are_reported_in_stats() {
        let mut l = layout();
        l.add(Feature::wire(
            NetId::new(0),
            LayerId::new(0),
            Rect::from_coords(0, 0, 100, 8),
            None,
        ));
        l.add(wire(1, 0, Rect::from_coords(0, 20, 100, 28), Mask::Red));
        let stats = l.stats();
        assert_eq!(stats.uncolored, 1);
        assert_eq!(stats.features, 2);
        assert_eq!(stats.conflicts, 0);
    }

    #[test]
    fn pin_to_pin_pairs_are_reported_as_input_conflicts_only() {
        let mut l = layout();
        l.add(Feature::pin(
            NetId::new(0),
            LayerId::new(0),
            Rect::from_coords(0, 0, 8, 8),
            Some(Mask::Red),
        ));
        l.add(Feature::pin(
            NetId::new(1),
            LayerId::new(0),
            Rect::from_coords(0, 30, 8, 38),
            Some(Mask::Red),
        ));
        // Fixed pin geometry: not counted as a routing conflict...
        assert_eq!(l.count_conflicts(), 0);
        // ...but visible through the input-conflict accessor.
        assert_eq!(l.input_conflicts().len(), 1);
        // A wire next to a same-mask pin is a routing conflict.
        l.add(wire(2, 0, Rect::from_coords(0, 60, 200, 68), Mask::Red));
        assert_eq!(l.count_conflicts(), 1);
    }

    fn pin(net: u32, rect: Rect, mask: Mask) -> Feature {
        Feature::pin(NetId::new(net), LayerId::new(0), rect, Some(mask))
    }

    /// An empty design's grid (pitch 20, tracks at 10, 30, 50, ...) and
    /// state, over the same die as [`layout`].
    fn grid() -> (GridGraph, GridState) {
        let design = tpl_design::DesignBuilder::new(
            "victims",
            tpl_design::Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        )
        .build()
        .unwrap();
        let grid = GridGraph::build(&design);
        let state = GridState::new(&grid, &design);
        (grid, state)
    }

    fn victims(l: &ColoredLayout, conflicts: &[ConflictPair]) -> Vec<NetId> {
        let (grid, mut state) = grid();
        l.victims(conflicts, &grid, &mut state, 1.0)
    }

    #[test]
    fn a_wire_pin_conflict_rips_up_both_nets() {
        let (p, w) = (
            pin(5, Rect::from_coords(0, 0, 8, 8), Mask::Red),
            wire(1, 0, Rect::from_coords(0, 30, 200, 38), Mask::Red),
        );
        // Both feature orders, so the wire is once `a` and once `b`.
        for features in [[p, w], [w, p]] {
            let mut l = layout();
            for f in features {
                l.add(f);
            }
            assert_eq!(
                victims(&l, &l.conflicts()),
                vec![NetId::new(1), NetId::new(5)]
            );
        }
    }

    #[test]
    fn between_two_wires_or_two_pins_the_larger_net_id_loses() {
        let mut l = layout();
        l.add(wire(7, 0, Rect::from_coords(0, 0, 200, 8), Mask::Red));
        l.add(wire(2, 0, Rect::from_coords(0, 20, 200, 28), Mask::Red));
        assert_eq!(victims(&l, &l.conflicts()), vec![NetId::new(7)]);

        let mut l = layout();
        l.add(pin(3, Rect::from_coords(0, 0, 8, 8), Mask::Red));
        l.add(pin(4, Rect::from_coords(0, 30, 8, 38), Mask::Red));
        assert_eq!(victims(&l, &l.input_conflicts()), vec![NetId::new(4)]);
    }

    #[test]
    fn obstacle_conflicts_name_no_victim_and_charge_no_history() {
        let mut l = layout();
        let a = l.add(wire(1, 0, Rect::from_coords(0, 0, 200, 8), Mask::Red));
        let b = l.add(Feature::obstacle(
            LayerId::new(0),
            Rect::from_coords(0, 20, 200, 28),
            Some(Mask::Red),
        ));
        let pair = ConflictPair {
            a,
            b,
            layer: LayerId::new(0),
            mask: Mask::Red,
        };
        let (grid, mut state) = grid();
        assert!(l.victims(&[pair], &grid, &mut state, 1.0).is_empty());
        assert!(grid.iter_vertices().all(|v| state.history(v) == 0.0));
    }

    #[test]
    fn victims_come_back_sorted_and_deduplicated() {
        // Net 9 conflicts with nets 2 and 3 (it loses both), and 3 with 2.
        let mut l = layout();
        l.add(wire(9, 0, Rect::from_coords(0, 0, 200, 8), Mask::Red));
        l.add(wire(2, 0, Rect::from_coords(0, 20, 200, 28), Mask::Red));
        l.add(wire(3, 0, Rect::from_coords(0, 40, 200, 48), Mask::Red));
        assert_eq!(l.count_conflicts(), 3);
        assert_eq!(
            victims(&l, &l.conflicts()),
            vec![NetId::new(3), NetId::new(9)]
        );
    }

    #[test]
    fn history_is_charged_once_per_conflict_under_both_features() {
        // A (y 0..8) conflicts with B (y 30..38), B with C (y 60..68); A and
        // C are 52 apart.  Their vertices lie on tracks y = 10, 30 and 50/70.
        let mut l = layout();
        l.add(wire(1, 0, Rect::from_coords(0, 0, 200, 8), Mask::Red));
        l.add(wire(2, 0, Rect::from_coords(0, 30, 200, 38), Mask::Red));
        l.add(wire(3, 0, Rect::from_coords(0, 60, 200, 68), Mask::Red));
        let conflicts = l.conflicts();
        assert_eq!(conflicts.len(), 2);
        let (grid, mut state) = grid();
        let victims = l.victims(&conflicts, &grid, &mut state, 2.5);
        assert_eq!(victims, vec![NetId::new(2), NetId::new(3)]);
        for (layer, ix, iy, want) in [
            (0, 0, 0, 2.5),  // under A only
            (0, 10, 1, 5.0), // under B, which is in both conflicts
            (0, 5, 2, 2.5),  // under C only
            (0, 5, 3, 2.5),
            (0, 5, 4, 0.0),  // above C
            (0, 11, 0, 0.0), // right of A
            (1, 0, 0, 0.0),  // another layer
        ] {
            let v = grid.vertex(layer, ix, iy);
            assert_eq!(state.history(v), want, "vertex ({layer}, {ix}, {iy})");
        }
    }

    #[test]
    fn obstacles_do_not_create_stitches() {
        let mut l = layout();
        l.add(wire(0, 0, Rect::from_coords(0, 0, 100, 8), Mask::Red));
        l.add(Feature::obstacle(
            LayerId::new(0),
            Rect::from_coords(100, 0, 200, 8),
            Some(Mask::Green),
        ));
        assert_eq!(l.count_stitches(), 0);
    }
}
