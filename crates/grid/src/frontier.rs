//! The frontier of [`Kernel`](crate::Kernel): a radix queue of
//! `(key, node)` entries that pops them in exactly ascending `(key, node)`
//! order, or, ranked, in ascending `(key, dist[node], node)` order.
//!
//! Every entry's key is at least the last popped key, `last`.  The nodes
//! queued at `last` sit in one vector in descending order, so the least
//! pops off its end; an entry above `last` sits in the bucket of the
//! highest bit in which its key differs from `last`.  When the vector runs
//! dry, the lowest non-empty bucket holds the least key: it becomes `last`,
//! its nodes are sorted into the vector, and the bucket's other entries
//! move to lower buckets.  An entry only moves to a lower bucket, so it
//! moves at most 64 times, and an entry that is never popped may never move
//! at all.
//!
//! A push at `last` is placed by binary insertion: a search relaxes many
//! nodes onto the key it is popping, some of them below the node just
//! popped, and those must pop next.  No push lands below `last`: a key is an
//! exact whole-number cost, `dist + h` with a consistent `h`, so a
//! relaxation never keys below the entry it expands.  A debug assertion
//! checks it.
//!
//! Ranked (the `RANKED` parameter of [`push`](Frontier::push) and
//! [`pop`](Frontier::pop)), the nodes at one key are ordered by the
//! kernel's `dist` first.  Only the vector at `last` is ever ordered, and a
//! node's `dist` cannot change while it sits there: a lower `dist` would
//! queue it below `last`.  So the rank is read from `dist` when a bucket is
//! settled and when a node is inserted, and never stored.

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

    /// Queues `node` under `key`, which must not be below the last popped
    /// key.  `RANKED` must be the same for every call between two
    /// [`clear`](Self::clear)s, and `dist` the same slice (unread unranked).
    #[inline]
    pub(crate) fn push<const RANKED: bool>(&mut self, key: u64, node: u32, dist: &[u64]) {
        debug_assert!(
            key >= self.last,
            "push of key {key} below the last popped key {}",
            self.last
        );
        self.len += 1;
        if key == self.last {
            let at = if RANKED {
                let rank = (dist[node as usize], node);
                self.current
                    .partition_point(|&n| (dist[n as usize], n) > rank)
            } else {
                self.current.partition_point(|&n| n > node)
            };
            self.current.insert(at, node);
        } else {
            let b = bucket(key, self.last);
            self.buckets[b].push((key, node));
            self.occupied |= 1 << b;
        }
    }

    /// Removes and returns the least `(key, node)` entry, or with `RANKED`
    /// the least `(key, dist[node], node)` one.
    #[inline]
    pub(crate) fn pop<const RANKED: bool>(&mut self, dist: &[u64]) -> Option<(u64, u32)> {
        if self.current.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.settle::<RANKED>(dist);
        }
        self.len -= 1;
        self.current.pop().map(|node| (self.last, node))
    }

    /// Moves the least key of the lowest non-empty bucket to `last` and its
    /// nodes into `current`, and spreads the bucket's other entries over the
    /// buckets below it.  `current` must be empty.
    fn settle<const RANKED: bool>(&mut self, dist: &[u64]) {
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
        if RANKED {
            self.current
                .sort_unstable_by_key(|&node| Reverse((dist[node as usize], node)));
        } else {
            self.current.sort_unstable_by_key(|&node| Reverse(node));
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

    /// The frontier beside a binary heap of `(key, rank, node)` triples:
    /// every operation is applied to both, and every pop must agree.
    /// Ranked, a node's rank is its entry of `dist`; unranked, 0.
    struct Oracle<const RANKED: bool> {
        frontier: Frontier,
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        dist: Vec<u64>,
        /// The last popped entry, `(0, 0)` after a clear.
        last: (u64, u32),
        /// Pushes at the last popped key that order before the last popped
        /// node.
        before: usize,
    }

    impl<const RANKED: bool> Oracle<RANKED> {
        fn new(dist: Vec<u64>) -> Self {
            Self {
                frontier: Frontier::default(),
                heap: BinaryHeap::new(),
                dist,
                last: (0, 0),
                before: 0,
            }
        }

        fn rank(&self, node: u32) -> u64 {
            if RANKED {
                self.dist[node as usize]
            } else {
                0
            }
        }

        fn push(&mut self, key: u64, node: u32) {
            let (last_key, last_node) = self.last;
            self.before += usize::from(
                key == last_key && (self.rank(node), node) < (self.rank(last_node), last_node),
            );
            self.frontier.push::<RANKED>(key, node, &self.dist);
            self.heap.push(Reverse((key, self.rank(node), node)));
            assert_eq!(self.frontier.len(), self.heap.len());
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            let want = self.heap.pop().map(|Reverse((key, _, node))| (key, node));
            let got = self.frontier.pop::<RANKED>(&self.dist);
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
            assert_eq!(self.frontier.pop::<RANKED>(&self.dist), None);
        }
    }

    /// Random pushes, pops and clears on the frontier and a binary heap,
    /// ranked by a random `dist` of few distinct values.
    fn pops_in_the_order_of_a_binary_heap<const RANKED: bool>() {
        let mut rng = 0x5eed;
        let dist = (0..64).map(|_| splitmix(&mut rng) % 4).collect();
        let mut oracle = Oracle::<RANKED>::new(dist);
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
                    // Anywhere above it, up to the largest key.
                    50..=54 => oracle.push(last_key.saturating_add(r >> 40), node),
                    55..=57 => {
                        saturated += 1;
                        oracle.push(u64::MAX, node);
                    }
                    // `run_one_pass` past its band: pop, and push the entry
                    // back.
                    58..=62 => {
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
        assert!(oracle.before > 1_000, "{} pushes before", oracle.before);
        assert!(saturated > 1_000 && pushed_back > 1_000);
    }

    #[test]
    fn pops_in_the_order_of_a_binary_heap_of_key_node_pairs() {
        pops_in_the_order_of_a_binary_heap::<false>();
    }

    #[test]
    fn ranked_pops_in_the_order_of_a_binary_heap_of_key_dist_node_triples() {
        pops_in_the_order_of_a_binary_heap::<true>();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the last popped key")]
    fn a_push_below_the_last_popped_key_trips_the_assertion() {
        let mut frontier = Frontier::default();
        frontier.push::<false>(5, 3, &[]);
        frontier.push::<false>(9, 0, &[]);
        assert_eq!(frontier.pop::<false>(&[]), Some((5, 3)));
        frontier.push::<false>(4, 8, &[]);
    }
}
