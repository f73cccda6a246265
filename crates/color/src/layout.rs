//! Counting conflicts and stitches on a finished, coloured layout.

use crate::{ColorMap, Feature, FeatureKind, Mask};
use std::sync::OnceLock;
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

/// A coloured layout ready for evaluation.
///
/// The evaluation mirrors the paper's tables: the **conflict** column counts
/// unordered pairs of different-net features on the same layer and the same
/// mask with spacing below `Dcolor`; the **stitch** column counts mask
/// changes inside a net (touching same-net features with different masks).
///
/// Both columns read one scan of the features, which lists each layer's
/// interacting pairs once: *near* pairs (different nets, spacing below
/// `Dcolor`) and *touching* pairs (one net, intersecting rectangles).  The
/// scan runs at the first query after the last [`add`](Self::add) and does
/// not read masks, so [`set_mask`](Self::set_mask) keeps it.  The layout
/// decomposition baseline colours its conflict graph from these same pairs.
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
    /// The scan of the current features, once a query has run it.
    pairs: OnceLock<Pairs>,
}

/// Each layer's interacting feature pairs `(i, j)`, `i < j`, in ascending
/// order.
#[derive(Clone, Debug, Default)]
struct Pairs {
    /// Different nets, spacing below `dcolor`.
    near: Vec<(u32, u32)>,
    /// One net, intersecting rectangles.
    touching: Vec<(u32, u32)>,
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
            pairs: OnceLock::new(),
        }
    }

    /// An empty layout over a design's die, layers and `Dcolor`.
    pub fn of_design(design: &Design) -> Self {
        Self::new(
            design.die(),
            design.tech().num_layers(),
            design.tech().dcolor(),
        )
    }

    /// The layout of a design's live colour map: every feature the map
    /// currently holds, in the map's order.
    pub fn of_map(design: &Design, map: &ColorMap) -> Self {
        let mut layout = Self::of_design(design);
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
        assert!(self.features.len() < u32::MAX as usize, "too many features");
        self.pairs.take();
        self.features.push(feature);
        self.features.len() - 1
    }

    /// Prints feature `index` on `mask`.  The pair scan does not read
    /// masks, so it is kept.
    pub fn set_mask(&mut self, index: usize, mask: Option<Mask>) {
        self.features[index].mask = mask;
    }

    /// The features of the layout.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// The colour-spacing distance used for conflict counting.
    pub fn dcolor(&self) -> Dbu {
        self.dcolor
    }

    /// The pair scan of the current features, run on first use.
    fn pairs(&self) -> &Pairs {
        self.pairs.get_or_init(|| self.scan())
    }

    /// Lists every layer's near and touching pairs in one pass over a
    /// spatial index of each layer.  The query window, the `Dcolor` halo
    /// less one, contains the feature itself, so it holds every candidate
    /// of both kinds.
    fn scan(&self) -> Pairs {
        let bin = (4 * self.dcolor).max(64);
        let mut index: Vec<BinIndex> = (0..self.num_layers)
            .map(|_| BinIndex::new(self.die, bin))
            .collect();
        for (i, f) in self.features.iter().enumerate() {
            index[f.layer.index()].insert(i as u64, f.rect);
        }
        let mut pairs = Pairs::default();
        let mut later = Vec::new();
        for (i, f) in self.features.iter().enumerate() {
            later.clear();
            let window = f.rect.expanded(self.dcolor - 1);
            index[f.layer.index()].for_each_intersecting(&window, |j, _| {
                if j as usize > i {
                    later.push(j as u32);
                }
            });
            later.sort_unstable();
            for &j in &later {
                let g = &self.features[j as usize];
                if f.net != g.net {
                    if f.rect.spacing_to(&g.rect) < self.dcolor {
                        pairs.near.push((i as u32, j));
                    }
                } else if f.rect.intersects(&g.rect) {
                    pairs.touching.push((i as u32, j));
                }
            }
        }
        pairs
    }

    /// Every pair `(i, j)`, `i < j`, of features of different nets on one
    /// layer closer than `Dcolor`, whatever their masks, in ascending order.
    pub fn near_pairs(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        let pairs = &self.pairs().near;
        pairs.iter().map(|&(i, j)| (i as usize, j as usize))
    }

    /// Every pair `(i, j)`, `i < j`, of intersecting features of one net on
    /// one layer, whatever their masks, in ascending order.
    pub fn touching_pairs(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        let pairs = &self.pairs().touching;
        pairs.iter().map(|&(i, j)| (i as usize, j as usize))
    }

    /// All routing-induced colour conflicts, each unordered pair reported
    /// once, in ascending `(a, b)` order: the near pairs printed on one mask.
    ///
    /// Pairs where *both* features are pins are excluded: pin geometry is a
    /// fixed input that no router (or decomposer working on a routed
    /// layout) can change, so such conflicts are a property of the benchmark
    /// rather than of the routing/colouring method, and every method in the
    /// evaluation is measured under the same rule.
    pub fn conflicts(&self) -> Vec<ConflictPair> {
        self.near_pairs()
            .filter_map(|(a, b)| {
                let (f, g) = (&self.features[a], &self.features[b]);
                let mask = f.mask?;
                let both_pins = f.kind == FeatureKind::Pin && g.kind == FeatureKind::Pin;
                (g.mask == Some(mask) && !both_pins).then_some(ConflictPair {
                    a,
                    b,
                    layer: f.layer,
                    mask,
                })
            })
            .collect()
    }

    /// Number of routing-induced colour conflicts.
    pub fn count_conflicts(&self) -> usize {
        self.conflicts().len()
    }

    /// All stitches, each unordered pair reported once, in ascending
    /// `(a, b)` order: the touching pairs printed on two masks.
    pub fn stitches(&self) -> Vec<StitchSite> {
        self.touching_pairs()
            .filter_map(|(a, b)| {
                let (f, g) = (&self.features[a], &self.features[b]);
                let stitched = matches!((f.mask, g.mask), (Some(m), Some(n)) if m != n);
                stitched.then_some(StitchSite {
                    net: f.net,
                    layer: f.layer,
                    a,
                    b,
                })
            })
            .collect()
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
    /// with full knowledge of the other.  Every grid vertex under
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
            if fa.kind == fb.kind {
                victims.push(fa.net.max(fb.net));
            } else {
                victims.extend([fa.net, fb.net]);
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
            uncolored: self.features.iter().filter(|f| f.mask.is_none()).count(),
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
    fn pin_to_pin_pairs_are_near_but_not_conflicts() {
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
        // ...but a near pair, which the decomposer's conflict graph reads.
        assert_eq!(l.near_pairs().collect::<Vec<_>>(), vec![(0, 1)]);
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

        // Pin-pin pairs are no conflicts, so this one is built by hand.
        let mut l = layout();
        let a = l.add(pin(3, Rect::from_coords(0, 0, 8, 8), Mask::Red));
        let b = l.add(pin(4, Rect::from_coords(0, 30, 8, 38), Mask::Red));
        let pair = ConflictPair {
            a,
            b,
            layer: LayerId::new(0),
            mask: Mask::Red,
        };
        assert_eq!(victims(&l, &[pair]), vec![NetId::new(4)]);
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
}
