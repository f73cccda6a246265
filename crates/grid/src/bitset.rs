//! A dense, word-packed bitset over grid vertices.

use std::ops::Range;

/// A fixed-size bitset packed into 64-bit words.
///
/// The routers keep one bit per grid vertex for blockages and per-net guide
/// membership; packing them 64-to-a-word keeps these masks resident in cache
/// while many worker threads read them concurrently, and makes clearing a
/// whole mask a `memset` instead of a per-element loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    /// Creates a bitset of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bitset of `len` bits, all set.
    pub fn full(len: usize) -> Self {
        let mut set = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        set.clear_tail();
        set
    }

    /// Zeroes the bits of the last partial word beyond `len`.
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the bitset has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Sets every bit of `range`, a word at a time.
    pub fn insert_range(&mut self, range: Range<usize>) {
        debug_assert!(range.end <= self.len);
        let (mut i, end) = (range.start, range.end);
        while i < end {
            let (word, bit) = (i / 64, i % 64);
            let n = (64 - bit).min(end - i);
            self.words[word] |= (u64::MAX >> (64 - n)) << bit;
            i += n;
        }
    }

    /// Clears bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.clear_tail();
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_clear_round_trip() {
        let mut s = DenseBitSet::new(130);
        assert_eq!(s.len(), 130);
        assert!(!s.get(0) && !s.get(129));
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.get(0) && s.get(64) && s.get(129));
        assert!(!s.get(1) && !s.get(65));
        assert_eq!(s.count_ones(), 3);
        s.remove(64);
        assert!(!s.get(64));
        s.clear_all();
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn insert_range_sets_exactly_the_range() {
        for (start, end) in [
            (0, 0),
            (0, 1),
            (3, 64),
            (0, 64),
            (63, 65),
            (5, 200),
            (64, 128),
        ] {
            let mut s = DenseBitSet::new(200);
            s.insert_range(start..end);
            for i in 0..200 {
                assert_eq!(s.get(i), (start..end).contains(&i), "{start}..{end} at {i}");
            }
        }
    }

    #[test]
    fn full_sets_exactly_len_bits() {
        for len in [0, 1, 63, 64, 65, 128, 200] {
            let s = DenseBitSet::full(len);
            assert_eq!(s.count_ones(), len, "len = {len}");
            let mut t = DenseBitSet::new(len);
            t.set_all();
            assert_eq!(t, s);
        }
        assert!(DenseBitSet::new(0).is_empty());
    }
}
