//! The frontier of [`Kernel`](crate::Kernel): a radix queue of
//! `(key, node)` entries that pops them in exactly ascending `(key, node)`
//! order.
//!
//! Every entry's key is at least the last popped key, `last`.  The nodes
//! queued at `last` sit in one vector in descending order, so the least
//! pops off its end; an entry above `last` sits in the bucket of the
//! highest bit in which its key differs from `last`.  When the vector runs
//! dry, the lowest non-empty bucket holds the least key: it becomes `last`,
//! its nodes are sorted into the vector, and the bucket's other entries
//! move to lower buckets.  Between rebases (below) an entry only moves to
//! a lower bucket, so it moves at most 64 times, and an entry that is
//! never popped may never move at all.
//!
//! A push at `last` is placed by binary insertion: a search relaxes many
//! nodes onto the key it is popping, some of them below the node just
//! popped, and those must pop next.  A push below `last` can only come from
//! `f64` rounding of a consistent bound in A\* order; it rebuckets the whole
//! frontier around the new least key, which keeps the order exact.

use std::cmp::Reverse;

/// Buckets of entries above the last popped key, one per bit of a `u64`.
const BUCKETS: usize = 64;

/// A min-queue of `(key, node)` pairs; equal pairs are indistinguishable.
#[derive(Debug)]
pub(crate) struct Frontier {
    /// The last popped key, 0 after [`clear`](Self::clear): no entry is
    /// below it.
    last: u64,
    /// The nodes queued at `last`, in descending order.
    current: Vec<u32>,
    /// `buckets[b]` holds the entries whose key's highest bit set in
    /// `key ^ last` is bit `b`.
    buckets: [Vec<(u64, u32)>; BUCKETS],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    len: usize,
}

impl Default for Frontier {
    fn default() -> Self {
        Self {
            last: 0,
            current: Vec::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            len: 0,
        }
    }
}

/// The bucket of `key` above `last`.
#[inline]
fn bucket(key: u64, last: u64) -> usize {
    (u64::BITS - 1 - (key ^ last).leading_zeros()) as usize
}

impl Frontier {
    /// Queued entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Empties the frontier, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.current.clear();
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.buckets[b].clear();
            self.occupied &= self.occupied - 1;
        }
        self.last = 0;
        self.len = 0;
    }

    /// Queues `node` under `key`.
    #[inline]
    pub(crate) fn push(&mut self, key: u64, node: u32) {
        if key < self.last {
            self.rebase(key);
        }
        self.len += 1;
        if key == self.last {
            let at = self.current.partition_point(|&n| n > node);
            self.current.insert(at, node);
        } else {
            let b = bucket(key, self.last);
            self.buckets[b].push((key, node));
            self.occupied |= 1 << b;
        }
    }

    /// Removes and returns the least `(key, node)` entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u64, u32)> {
        if self.current.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.settle();
        }
        self.len -= 1;
        self.current.pop().map(|node| (self.last, node))
    }

    /// Moves the least key of the lowest non-empty bucket to `last` and its
    /// nodes into `current`, and spreads the bucket's other entries over the
    /// buckets below it.  `current` must be empty.
    fn settle(&mut self) {
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut entries = std::mem::take(&mut self.buckets[b]);
        let least = entries.iter().map(|&(key, _)| key).min();
        self.last = least.expect("an occupied bucket has an entry");
        for &(key, node) in &entries {
            if key == self.last {
                self.current.push(node);
            } else {
                let to = bucket(key, self.last);
                self.buckets[to].push((key, node));
                self.occupied |= 1 << to;
            }
        }
        entries.clear();
        self.buckets[b] = entries;
        self.current.sort_unstable_by_key(|&node| Reverse(node));
    }

    /// Lowers `last` to `key` and rebuckets every queued entry around it.
    #[cold]
    fn rebase(&mut self, key: u64) {
        let mut entries: Vec<(u64, u32)> = self.current.drain(..).map(|n| (self.last, n)).collect();
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            entries.append(&mut self.buckets[b]);
            self.occupied &= self.occupied - 1;
        }
        self.last = key;
        for (key, node) in entries {
            let b = bucket(key, self.last);
            self.buckets[b].push((key, node));
            self.occupied |= 1 << b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Frontier;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The frontier beside a binary heap of packed `(key, node)` words:
    /// every operation is applied to both, and every pop must agree.
    struct Oracle {
        frontier: Frontier,
        heap: BinaryHeap<Reverse<u128>>,
        /// The last popped entry, `(0, 0)` after a clear.
        last: (u64, u32),
        /// Pushes below the last popped key.
        below: usize,
        /// Pushes at the last popped key below the last popped node.
        before: usize,
    }

    impl Oracle {
        fn new() -> Self {
            Self {
                frontier: Frontier::default(),
                heap: BinaryHeap::new(),
                last: (0, 0),
                below: 0,
                before: 0,
            }
        }

        fn push(&mut self, key: u64, node: u32) {
            self.below += usize::from(key < self.last.0);
            self.before += usize::from(key == self.last.0 && node < self.last.1);
            self.frontier.push(key, node);
            self.heap
                .push(Reverse((u128::from(key) << 32) | u128::from(node)));
            assert_eq!(self.frontier.len(), self.heap.len());
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            let want = self
                .heap
                .pop()
                .map(|Reverse(e)| ((e >> 32) as u64, e as u32));
            let got = self.frontier.pop();
            assert_eq!(got, want);
            assert_eq!(self.frontier.len(), self.heap.len());
            if let Some(entry) = got {
                self.last = entry;
            }
            got
        }

        fn clear(&mut self) {
            self.frontier.clear();
            self.heap.clear();
            self.last = (0, 0);
            assert_eq!(self.frontier.len(), 0);
            assert_eq!(self.frontier.pop(), None);
        }
    }

    #[test]
    fn pops_in_the_order_of_a_binary_heap_of_packed_entries() {
        let mut oracle = Oracle::new();
        let (mut saturated, mut pushed_back) = (0, 0);
        for seed in 0..200u64 {
            let mut rng = seed;
            oracle.clear();
            for _ in 0..2_000 {
                let r = splitmix(&mut rng);
                let node = (r >> 32) as u32 % 64;
                let (last_key, last_node) = oracle.last;
                match r % 100 {
                    // Near the last popped key, often on it.
                    0..=39 => oracle.push(last_key.saturating_add(r % 4), node),
                    // On the last popped key, below the last popped node.
                    40..=49 if last_node > 0 => oracle.push(last_key, node % last_node),
                    // Anywhere above it, up to a saturated `as u64` cast.
                    50..=54 => oracle.push(last_key.saturating_add(r >> 40), node),
                    55..=57 => {
                        saturated += 1;
                        oracle.push(u64::MAX, node);
                    }
                    // Rounding below the last popped key.
                    58 => oracle.push(last_key.saturating_sub(1 + r % 3), node),
                    // `run_one_pass` past its band: pop, and push the entry
                    // back.
                    59..=62 => {
                        if let Some((key, node)) = oracle.pop() {
                            pushed_back += 1;
                            oracle.push(key, node);
                            assert_eq!(oracle.pop(), Some((key, node)));
                        }
                    }
                    63 => oracle.clear(),
                    _ => {
                        oracle.pop();
                    }
                }
            }
            while oracle.pop().is_some() {}
        }
        assert!(oracle.below > 100, "{} pushes below", oracle.below);
        assert!(oracle.before > 1_000, "{} pushes before", oracle.before);
        assert!(saturated > 1_000 && pushed_back > 1_000);
    }

    #[test]
    fn a_push_below_the_last_key_pops_first_and_keeps_the_rest_in_order() {
        let mut oracle = Oracle::new();
        for (key, node) in [(5, 3), (5, 1), (9, 0), (6, 2), (u64::MAX, 7)] {
            oracle.push(key, node);
        }
        assert_eq!(oracle.pop(), Some((5, 1)));
        oracle.push(4, 8);
        oracle.push(5, 0);
        let mut popped = Vec::new();
        while let Some(entry) = oracle.pop() {
            popped.push(entry);
        }
        assert_eq!(
            popped,
            [(4, 8), (5, 0), (5, 3), (6, 2), (9, 0), (u64::MAX, 7)]
        );
    }
}
