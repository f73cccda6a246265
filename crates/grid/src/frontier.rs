//! The frontier of [`Kernel`](crate::Kernel): a radix queue of
//! `(key, node)` entries that pops them in ascending key order, and the
//! nodes of one key in one of three orders, the `TIES` parameter of
//! [`push`](Frontier::push) and [`pop`](Frontier::pop):
//!
//! * [`BY_NODE`]: ascending `node`, so the pops come in exactly the order
//!   of a binary heap of `(key, node)` pairs;
//! * [`BY_DIST`]: ascending `(dist[node], node)`, the order of a heap of
//!   `(key, dist, node)` triples;
//! * [`ANY`]: last in, first out, for a search whose answer does not read
//!   the order within a key.
//!
//! Every entry's key is at least the last popped key, `last`.  The nodes
//! queued at `last` sit in one vector, ordered (descending) unless `TIES`
//! is [`ANY`], so the next one pops off its end; an entry above `last` sits
//! in the bucket of the highest bit in which its key differs from `last`.
//! When the vector runs dry, the lowest non-empty bucket holds the least
//! key: it becomes `last`, its nodes move into the vector (sorted, unless
//! [`ANY`]), and the bucket's other entries move to lower buckets.  An entry
//! only moves to a lower bucket, so it moves at most 64 times, and an entry
//! that is never popped may never move at all.
//!
//! A push at `last` is placed by binary insertion (appended with [`ANY`]):
//! a search relaxes many nodes onto the key it is popping, some of them
//! below the node just popped, and in the ordered modes those must pop
//! next.  No push lands below `last`: a key is an exact whole-number cost,
//! `dist + h` with a consistent `h`, so a relaxation never keys below the
//! entry it expands.  A debug assertion checks it.
//!
//! With [`BY_DIST`], only the vector at `last` is ever ordered, and a
//! node's `dist` cannot change while it sits there: a lower `dist` would
//! queue it below `last`.  So the rank is read from the kernel's `dist`
//! when a bucket is settled and when a node is inserted, and never stored.

use std::cmp::Reverse;

/// Buckets of entries above the last popped key, one per bit of a `u64`.
const BUCKETS: usize = 64;

/// Equal keys pop in ascending `node` order.
pub(crate) const BY_NODE: u8 = 0;
/// Equal keys pop in ascending `(dist, node)` order.
pub(crate) const BY_DIST: u8 = 1;
/// Equal keys pop last in, first out.
pub(crate) const ANY: u8 = 2;

/// A min-queue of `(key, node)` pairs.
#[derive(Debug)]
pub(crate) struct Frontier {
    /// The last popped key, 0 after [`clear`](Self::clear): no entry is
    /// below it.
    last: u64,
    /// The nodes queued at `last`; the next to pop is the last one.
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
    /// key.  `TIES` must be the same for every call between two
    /// [`clear`](Self::clear)s, and `dist` the same function (called only
    /// with [`BY_DIST`]).
    #[inline]
    pub(crate) fn push<const TIES: u8>(&mut self, key: u64, node: u32, dist: impl Fn(u32) -> u64) {
        debug_assert!(
            key >= self.last,
            "push of key {key} below the last popped key {}",
            self.last
        );
        self.len += 1;
        if key == self.last {
            let at = match TIES {
                BY_NODE => self.current.partition_point(|&n| n > node),
                BY_DIST => {
                    let rank = (dist(node), node);
                    self.current.partition_point(|&n| (dist(n), n) > rank)
                }
                _ => self.current.len(),
            };
            self.current.insert(at, node);
        } else {
            let b = bucket(key, self.last);
            self.buckets[b].push((key, node));
            self.occupied |= 1 << b;
        }
    }

    /// Removes and returns an entry of the least key: of those, the least
    /// `node` ([`BY_NODE`]), the least `(dist(node), node)` ([`BY_DIST`]),
    /// or the last pushed ([`ANY`]).
    #[inline]
    pub(crate) fn pop<const TIES: u8>(&mut self, dist: impl Fn(u32) -> u64) -> Option<(u64, u32)> {
        if self.current.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.settle::<TIES>(dist);
        }
        self.len -= 1;
        self.current.pop().map(|node| (self.last, node))
    }

    /// Moves the least key of the lowest non-empty bucket to `last` and its
    /// nodes into `current`, and spreads the bucket's other entries over the
    /// buckets below it.  `current` must be empty.
    fn settle<const TIES: u8>(&mut self, dist: impl Fn(u32) -> u64) {
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
        match TIES {
            BY_NODE => self.current.sort_unstable_by_key(|&node| Reverse(node)),
            BY_DIST => self
                .current
                .sort_unstable_by_key(|&node| Reverse((dist(node), node))),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Frontier, ANY, BY_DIST, BY_NODE};
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
    /// every operation is applied to both, and every pop must agree.  With
    /// [`BY_DIST`] a node's rank is its entry of `dist`, otherwise 0.  With
    /// [`ANY`] a pop must agree on the key only, and the nodes popped at one
    /// key must be the same multiset.
    struct Oracle<const TIES: u8> {
        frontier: Frontier,
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        dist: Vec<u64>,
        /// The last popped entry, `(0, 0)` after a clear.
        last: (u64, u32),
        /// Pushes at the last popped key that order before the last popped
        /// node.
        before: usize,
        /// Per node, pops of it by the heap minus pops of it by the
        /// frontier at the last popped key.
        unmatched: Vec<i64>,
    }

    impl<const TIES: u8> Oracle<TIES> {
        fn new(dist: Vec<u64>) -> Self {
            let nodes = dist.len();
            Self {
                frontier: Frontier::default(),
                heap: BinaryHeap::new(),
                dist,
                last: (0, 0),
                before: 0,
                unmatched: vec![0; nodes],
            }
        }

        fn rank(&self, node: u32) -> u64 {
            if TIES == BY_DIST {
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
            let dist = &self.dist;
            self.frontier.push::<TIES>(key, node, |n| dist[n as usize]);
            self.heap.push(Reverse((key, self.rank(node), node)));
            assert_eq!(self.frontier.len(), self.heap.len());
        }

        /// Asserts that both sides popped the same nodes at the last popped
        /// key, counting the entries each still holds there.
        fn assert_key_matched(&mut self) {
            let key = self.last.0;
            for &Reverse((k, _, node)) in &self.heap {
                self.unmatched[node as usize] += i64::from(k == key);
            }
            for &node in &self.frontier.current {
                self.unmatched[node as usize] -= 1;
            }
            assert!(self.unmatched.iter().all(|&n| n == 0), "key {key}");
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            let next_key = self.heap.peek().map(|&Reverse((key, _, _))| key);
            if TIES == ANY && next_key.is_some_and(|key| key != self.last.0) {
                self.assert_key_matched();
            }
            let want = self.heap.pop().map(|Reverse((key, _, node))| (key, node));
            let dist = &self.dist;
            let got = self.frontier.pop::<TIES>(|n| dist[n as usize]);
            assert_eq!(self.frontier.len(), self.heap.len());
            if TIES == ANY {
                assert_eq!(got.map(|(key, _)| key), want.map(|(key, _)| key));
                if let (Some((_, mine)), Some((_, theirs))) = (got, want) {
                    self.unmatched[theirs as usize] += 1;
                    self.unmatched[mine as usize] -= 1;
                }
            } else {
                assert_eq!(got, want);
            }
            if let Some(entry) = got {
                self.last = entry;
            }
            got
        }

        fn clear(&mut self) {
            if TIES == ANY {
                self.assert_key_matched();
            }
            self.frontier.clear();
            self.heap.clear();
            self.last = (0, 0);
            assert_eq!(self.frontier.len(), 0);
            assert_eq!(self.frontier.pop::<TIES>(|_| 0), None);
        }
    }

    /// Random pushes, pops and clears on the frontier and a binary heap,
    /// ranked by a random `dist` of few distinct values.
    fn pops_in_the_order_of_a_binary_heap<const TIES: u8>() {
        let mut rng = 0x5eed;
        let dist = (0..64).map(|_| splitmix(&mut rng) % 4).collect();
        let mut oracle = Oracle::<TIES>::new(dist);
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
        oracle.clear();
        assert!(oracle.before > 1_000, "{} pushes before", oracle.before);
        assert!(saturated > 1_000 && pushed_back > 1_000);
    }

    #[test]
    fn pops_in_the_order_of_a_binary_heap_of_key_node_pairs() {
        pops_in_the_order_of_a_binary_heap::<BY_NODE>();
    }

    #[test]
    fn ranked_pops_in_the_order_of_a_binary_heap_of_key_dist_node_triples() {
        pops_in_the_order_of_a_binary_heap::<BY_DIST>();
    }

    #[test]
    fn unordered_pops_keys_in_heap_order_and_each_key_s_nodes_as_the_heap_does() {
        pops_in_the_order_of_a_binary_heap::<ANY>();
    }

    #[test]
    fn unordered_pops_the_nodes_of_one_key_last_in_first_out() {
        let mut frontier = Frontier::default();
        for node in [4, 9, 1] {
            frontier.push::<ANY>(7, node, |_| 0);
        }
        assert_eq!(frontier.pop::<ANY>(|_| 0), Some((7, 1)));
        frontier.push::<ANY>(7, 6, |_| 0);
        let rest: Vec<_> = std::iter::from_fn(|| frontier.pop::<ANY>(|_| 0)).collect();
        assert_eq!(rest, [(7, 6), (7, 9), (7, 4)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the last popped key")]
    fn a_push_below_the_last_popped_key_trips_the_assertion() {
        let mut frontier = Frontier::default();
        frontier.push::<BY_NODE>(5, 3, |_| 0);
        frontier.push::<BY_NODE>(9, 0, |_| 0);
        assert_eq!(frontier.pop::<BY_NODE>(|_| 0), Some((5, 3)));
        frontier.push::<BY_NODE>(4, 8, |_| 0);
    }
}
