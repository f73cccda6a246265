//! Vertice colour-sets and segment colour-sets (Definitions 2 and 3).

use crate::ColorState;

/// Identifier of a vertice colour-set (`verSet`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VerSetId(pub u32);

/// Identifier of a segment colour-set (`segSet`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegSetId(pub u32);

#[derive(Clone, Debug)]
struct VerSet {
    seg: SegSetId,
    members: usize,
}

#[derive(Clone, Debug)]
struct SegSet {
    state: ColorState,
}

/// Arena holding the verSet / segSet structures used by the backtrace phase
/// (Algorithm 3).
///
/// * A **verSet** groups vertices that were searched consecutively, are
///   adjacent on the layout and share the same colour state.
/// * A **segSet** groups verSets that can be printed on one mask without a
///   stitch; two connected vertices belong to different segSets only when a
///   stitch is introduced between them.
///
/// The arena only tracks states and membership counts; the router keeps the
/// per-vertex pointer (`verSetPtr` in the paper) itself.
///
/// # Examples
///
/// ```
/// use tpl_color::{ColorSetArena, ColorState, Mask};
/// let mut arena = ColorSetArena::new();
/// let v = arena.make_ver_set(ColorState::all());
/// let seg = arena.seg_of(v);
/// arena.narrow_seg_state(seg, ColorState::from_mask(Mask::Red));
/// assert_eq!(arena.seg_state(seg).single(), Some(Mask::Red));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ColorSetArena {
    ver_sets: Vec<VerSet>,
    seg_sets: Vec<SegSet>,
}

impl ColorSetArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fresh verSet (and its own fresh segSet) with the given
    /// colour state, mirroring `make_verSet` / `make_segSet` in Algorithm 3.
    pub fn make_ver_set(&mut self, state: ColorState) -> VerSetId {
        let seg = SegSetId(self.seg_sets.len() as u32);
        self.seg_sets.push(SegSet { state });
        let ver = VerSetId(self.ver_sets.len() as u32);
        self.ver_sets.push(VerSet { seg, members: 1 });
        ver
    }

    /// The segSet a verSet currently belongs to.
    pub fn seg_of(&self, id: VerSetId) -> SegSetId {
        self.ver_sets[id.0 as usize].seg
    }

    /// Moves a verSet into another segSet (the pointer rewrite of
    /// Algorithm 3, line 14).
    pub fn set_seg_of(&mut self, ver: VerSetId, seg: SegSetId) {
        self.ver_sets[ver.0 as usize].seg = seg;
    }

    /// Records one more vertex joining a verSet.
    pub fn add_member(&mut self, ver: VerSetId) {
        self.ver_sets[ver.0 as usize].members += 1;
    }

    /// Number of vertices recorded in a verSet.
    pub fn members(&self, ver: VerSetId) -> usize {
        self.ver_sets[ver.0 as usize].members
    }

    /// The colour state of a segSet.
    pub fn seg_state(&self, id: SegSetId) -> ColorState {
        self.seg_sets[id.0 as usize].state
    }

    /// Replaces the colour state of a segSet (`change_state` in Algorithm 3).
    pub fn change_seg_state(&mut self, id: SegSetId, state: ColorState) {
        self.seg_sets[id.0 as usize].state = state;
    }

    /// Narrows the colour state of a segSet by intersecting it with `state`.
    /// Returns the new state.  If the intersection would be empty the state
    /// is left unchanged and `None` is returned — the caller must introduce a
    /// stitch instead.
    pub fn narrow_seg_state(&mut self, id: SegSetId, state: ColorState) -> Option<ColorState> {
        let current = self.seg_sets[id.0 as usize].state;
        let narrowed = current.intersect(state);
        if narrowed.is_empty() {
            None
        } else {
            self.seg_sets[id.0 as usize].state = narrowed;
            Some(narrowed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mask;

    #[test]
    fn make_ver_set_creates_matching_seg_set() {
        let mut a = ColorSetArena::new();
        let v = a.make_ver_set(ColorState::from_bits(0b110));
        assert_eq!(a.seg_state(a.seg_of(v)), ColorState::from_bits(0b110));
        assert_eq!(a.members(v), 1);
    }

    #[test]
    fn narrowing_keeps_non_empty_intersections() {
        let mut a = ColorSetArena::new();
        let v = a.make_ver_set(ColorState::all());
        let seg = a.seg_of(v);
        assert_eq!(
            a.narrow_seg_state(seg, ColorState::from_bits(0b101)),
            Some(ColorState::from_bits(0b101))
        );
        assert_eq!(
            a.narrow_seg_state(seg, ColorState::from_mask(Mask::Blue)),
            Some(ColorState::from_mask(Mask::Blue))
        );
        // Disjoint narrowing is rejected and does not modify the state.
        assert_eq!(
            a.narrow_seg_state(seg, ColorState::from_mask(Mask::Red)),
            None
        );
        assert_eq!(a.seg_state(seg), ColorState::from_mask(Mask::Blue));
    }

    #[test]
    fn ver_sets_can_be_rewired_to_another_seg_set() {
        let mut a = ColorSetArena::new();
        let v1 = a.make_ver_set(ColorState::all());
        let v2 = a.make_ver_set(ColorState::from_bits(0b011));
        let seg1 = a.seg_of(v1);
        a.set_seg_of(v2, seg1);
        assert_eq!(a.seg_of(v2), seg1);
    }

    #[test]
    fn member_counting() {
        let mut a = ColorSetArena::new();
        let v = a.make_ver_set(ColorState::all());
        a.add_member(v);
        a.add_member(v);
        assert_eq!(a.members(v), 3);
    }
}
