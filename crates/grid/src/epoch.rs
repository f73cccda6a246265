//! Generation-stamped validity tracking for reusable search buffers.
//!
//! A search kernel that runs thousands of times per case cannot afford to
//! re-initialise O(V) scratch vectors before every run.  [`EpochMap`]
//! implements the classic generation-counter trick: every slot carries the
//! epoch in which it was last written, and bumping the epoch invalidates all
//! slots in O(1).  The wrap-around case (`u32::MAX` epochs) is handled by
//! clearing the stamps once and restarting, so stale stamps from a previous
//! lap can never alias a fresh epoch.

/// Per-slot values with O(1) bulk invalidation.
///
/// Each slot holds a value beside the epoch that wrote it, in one record, so
/// a lookup reads one cache line.  A slot is *fresh* when its stamp equals
/// the current epoch; a stale slot's value is never returned.
#[derive(Debug, Clone)]
pub struct EpochMap<T> {
    epoch: u32,
    slots: Vec<(u32, T)>,
}

/// Per-slot generation stamps with no value: callers mark a slot fresh with
/// [`EpochStamps::touch`] after writing the payload arrays it guards, and
/// must treat the payload as garbage whenever [`EpochMap::is_fresh`] is
/// false.
pub type EpochStamps = EpochMap<()>;

impl<T: Copy + Default> EpochMap<T> {
    /// Creates `len` slots, all stale until the first `begin`.
    pub fn new(len: usize) -> Self {
        Self {
            // Slots start at 0 and the first `begin` moves the epoch to 1,
            // so a freshly-built instance has no accidentally-fresh slot.
            epoch: 0,
            slots: vec![(0, T::default()); len],
        }
    }

    /// Starts a new epoch, invalidating every slot in O(1).
    ///
    /// On `u32` exhaustion the stamps are cleared once and the counter
    /// restarts at 1, so stamps written billions of epochs ago can never
    /// collide with the new epoch.
    pub fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.slots.fill((0, T::default()));
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Current epoch value (diagnostic; tests use it to observe rollover).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Jumps the epoch counter to `epoch`.
    ///
    /// Test hook for exercising the `u32` wrap without 2^32 `begin` calls;
    /// production code has no reason to call this.
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// True when slot `i` was written in the current epoch.
    #[inline]
    pub fn is_fresh(&self, i: usize) -> bool {
        self.slots[i].0 == self.epoch
    }

    /// Slot `i`'s value, if it was written in the current epoch.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        let (stamp, value) = self.slots[i];
        (stamp == self.epoch).then_some(value)
    }

    /// Writes slot `i` in the current epoch.
    #[inline]
    pub fn insert(&mut self, i: usize, value: T) {
        self.slots[i] = (self.epoch, value);
    }

    /// Slot `i`'s value, written first from `f` unless the current epoch
    /// already wrote it.
    #[inline]
    pub fn get_or_insert_with(&mut self, i: usize, f: impl FnOnce() -> T) -> T {
        let epoch = self.epoch;
        let slot = &mut self.slots[i];
        if slot.0 != epoch {
            *slot = (epoch, f());
        }
        slot.1
    }
}

impl EpochStamps {
    /// Marks slot `i` fresh for the current epoch.
    #[inline]
    pub fn touch(&mut self, i: usize) {
        self.insert(i, ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_invalidates_all_slots() {
        let mut s = EpochStamps::new(4);
        s.begin();
        s.touch(1);
        s.touch(3);
        assert!(s.is_fresh(1));
        assert!(s.is_fresh(3));
        assert!(!s.is_fresh(0));
        s.begin();
        for i in 0..4 {
            assert!(!s.is_fresh(i), "slot {i} must be stale after begin");
        }
    }

    #[test]
    fn rollover_clears_stale_stamps() {
        let mut s = EpochStamps::new(3);
        s.begin();
        s.touch(0);
        // Jump to the last representable epoch and touch a different slot.
        s.force_epoch(u32::MAX - 1);
        s.begin(); // epoch == u32::MAX
        assert_eq!(s.epoch(), u32::MAX);
        s.touch(1);
        assert!(s.is_fresh(1));
        // The next begin wraps: every stamp (including the one written at
        // u32::MAX and the ancient one at 1) must read stale.
        s.begin();
        assert_eq!(s.epoch(), 1);
        for i in 0..3 {
            assert!(!s.is_fresh(i), "slot {i} leaked across the wrap");
        }
        // And the restarted counter behaves normally.
        s.touch(2);
        assert!(s.is_fresh(2));
    }

    #[test]
    fn values_are_read_back_only_in_the_epoch_that_wrote_them() {
        let mut m = EpochMap::<f64>::new(3);
        m.begin();
        assert_eq!(m.get(0), None);
        m.insert(0, 2.5);
        assert_eq!(m.get(0), Some(2.5));
        assert_eq!(m.get_or_insert_with(0, || unreachable!()), 2.5);
        assert_eq!(m.get_or_insert_with(1, || 4.0), 4.0);
        assert_eq!(m.get(1), Some(4.0));
        m.begin();
        assert_eq!((m.get(0), m.get(1)), (None, None));
        assert_eq!(m.get_or_insert_with(0, || 1.0), 1.0);
        // Across the wrap, nothing written before it is read back.
        m.force_epoch(u32::MAX);
        m.insert(2, 9.0);
        m.begin();
        assert_eq!((m.get(0), m.get(2)), (None, None));
    }
}
