//! The best-first search kernel every router in the workspace runs on.
//!
//! Mr.TPL's colour-state search, the DAC'12 vertex-splitting search, the
//! colour-blind maze of the Dr.CU-like router and the global router's gcell
//! maze differ only in the graph they search.  [`Kernel`] owns everything
//! else:
//!
//! * the frontier, one reused `BinaryHeap` of one-word entries
//!   `(key << 32) | node`, which pop in ascending `(key, node)` order, where
//!   the key is the `f64` priority quantised at the router's key
//!   resolution;
//! * epoch-stamped per-node `dist`, `prev` and payload (the colour state in
//!   Mr.TPL, `()` elsewhere), so a search starts in O(sources) and the
//!   buffers, the source list included, are allocated once per routing run;
//! * an epoch-stamped memo of the bound `h` ([`EpochMap`]), so one call of
//!   [`run`](Kernel::run) or [`run_dijkstra`](Kernel::run_dijkstra)
//!   evaluates `h` at most once per node, both passes of the latter
//!   included;
//! * the exact stale-entry test;
//! * the node-limit, deadline and cancellation probes;
//! * the pop counter, the pruned-entry counter and the frontier high-water
//!   mark.
//!
//! Per node that is 32 bytes plus the payload: `dist` (8 B), `prev` and its
//! stamp (4 B each), and the `h` memo's record of stamp and value (16 B,
//! read in one access).
//!
//! A router supplies a [`SearchSpace`] (its node encoding, `expand` and goal
//! test) and a consistent lower bound `h` on the cost still to go (such as
//! [`GoalBound`](crate::GoalBound)), and picks one of two search orders:
//!
//! * [`run`](Kernel::run) is A\*: it pops in `(key(dist + h), node)` order;
//! * [`run_dijkstra`](Kernel::run_dijkstra) returns exactly what plain
//!   Dijkstra (`run` with `h = 0`) returns, but uses `h` to expand only the
//!   nodes that can lie on an optimal path; its documentation gives the
//!   pruning rule and why it is exact.
//!
//! `h` must be a pure function of the node for the length of one call: a
//! router may re-aim its bound between calls, never within one.
//!
//! # Exact stale-entry test
//!
//! The kernel stores no per-node queued key.  Every relaxation leaves the
//! node queued under exactly `key(dist + h)` (`h = 0` in Dijkstra order), so
//! a popped `(k, node)` is live iff `k == key(dist[node] + h(node))`.  Two
//! costs that quantise to the same key never resurrect a stale entry, and an
//! improvement that lands on the already-queued key reuses that entry
//! instead of pushing a duplicate: the node is expanded once, with the
//! better distance.
//!
//! A frontier entry packs `(key, node)` into one `u128` whose integer order
//! is the pair's lexicographic order, and equal entries are
//! indistinguishable, so the pops come out exactly as they would from a
//! heap of pairs.

use crate::{EpochMap, EpochStamps, RouteBudget, StopReason};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pops between two deadline/cancellation probes, minus one.  The node
/// limit is checked on every pop.
const INTERRUPT_PROBE_MASK: usize = 0x0FFF;

/// The frontier entry of `node` queued under `key`.
#[inline]
fn pack(key: u64, node: u32) -> u128 {
    (u128::from(key) << 32) | u128::from(node)
}

/// The `(key, node)` pair of a frontier entry.
#[inline]
fn unpack(entry: u128) -> (u64, u32) {
    ((entry >> 32) as u64, entry as u32)
}

/// The graph a [`Kernel`] searches: node encoding, successors and goal test.
pub trait SearchSpace {
    /// Per-node state carried alongside the distance (e.g. a colour state).
    type Payload: Copy;
    /// What a successful search returns.
    type Goal;

    /// Called on every live pop before expansion; `Some` ends the search.
    /// `key` is the popped key and `search` the kernel's current state, so
    /// a stop rule may read settled distances.
    fn goal(&mut self, node: u32, key: u64, search: &Kernel<Self::Payload>) -> Option<Self::Goal>;

    /// Calls `relax(successor, dist + step, payload)` for every successor of
    /// `node`, which was popped with distance `dist` and `payload`.
    fn expand(
        &mut self,
        node: u32,
        dist: f64,
        payload: Self::Payload,
        relax: impl FnMut(u32, f64, Self::Payload),
    );
}

/// Reusable best-first search state over `num_nodes` nodes.
///
/// [`arm`](Kernel::arm) sets the pop allowance and the wall-clock probes and
/// restarts the counters; [`run`](Kernel::run) performs one search.  A search
/// that stops on a limit leaves the reason in
/// [`stop_reason`](Kernel::stop_reason), and every later `run` returns
/// `None` at once until the kernel is armed again.
#[derive(Debug)]
pub struct Kernel<P> {
    key_resolution: f64,
    stamps: EpochStamps,
    dist: Vec<f64>,
    prev: Vec<u32>,
    payload: Vec<P>,
    /// `h` of the nodes it was evaluated on in the current call.
    h_memo: EpochMap<f64>,
    frontier: BinaryHeap<Reverse<u128>>,
    popped: usize,
    pruned: usize,
    peak: usize,
    node_limit: u64,
    /// Deadline and cancellation token of the armed budget.
    probes: RouteBudget,
    stop: Option<StopReason>,
    /// The current search's sources, kept for the second pass of
    /// [`run_dijkstra`](Kernel::run_dijkstra).
    sources: Vec<(u32, P)>,
}

impl<P: Copy + Default> Kernel<P> {
    /// Creates an unbudgeted kernel over `num_nodes` nodes whose keys are
    /// costs times `key_resolution`.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` does not fit node ids in a `u32`.
    pub fn new(num_nodes: usize, key_resolution: f64) -> Self {
        assert!(
            u32::try_from(num_nodes).is_ok(),
            "{num_nodes} nodes do not fit u32 node ids"
        );
        Self {
            key_resolution,
            stamps: EpochStamps::new(num_nodes),
            dist: vec![f64::INFINITY; num_nodes],
            prev: vec![u32::MAX; num_nodes],
            payload: vec![P::default(); num_nodes],
            h_memo: EpochMap::new(num_nodes),
            frontier: BinaryHeap::new(),
            popped: 0,
            pruned: 0,
            peak: 0,
            node_limit: u64::MAX,
            probes: RouteBudget::default(),
            stop: None,
            sources: Vec::new(),
        }
    }

    /// Quantises a cost to its frontier key.
    #[inline]
    pub fn key(&self, cost: f64) -> u64 {
        (cost * self.key_resolution) as u64
    }

    /// Allows the next searches `node_limit` pops in total, probes the
    /// deadline and cancellation of `budget` every few thousand pops, and
    /// restarts the counters and the stop reason.
    pub fn arm(&mut self, node_limit: u64, budget: &RouteBudget) {
        self.node_limit = node_limit;
        self.probes = budget.clone();
        self.stop = None;
        self.popped = 0;
        self.pruned = 0;
        self.peak = 0;
    }

    /// Starts a new search: every node's distance, predecessor and payload
    /// become stale in O(1), and the frontier empties.
    pub fn begin(&mut self) {
        self.stamps.begin();
        self.frontier.clear();
    }

    /// Sets a node's distance, predecessor and payload in the current search
    /// (without queueing it).
    #[inline]
    pub fn relax(&mut self, node: u32, dist: f64, prev: Option<u32>, payload: P) {
        let i = node as usize;
        self.stamps.touch(i);
        self.dist[i] = dist;
        self.prev[i] = prev.unwrap_or(u32::MAX);
        self.payload[i] = payload;
    }

    /// Tentative distance of a node in the current search (infinite when the
    /// search has not reached it).
    #[inline]
    pub fn dist(&self, node: u32) -> f64 {
        if self.stamps.is_fresh(node as usize) {
            self.dist[node as usize]
        } else {
            f64::INFINITY
        }
    }

    /// Predecessor of a node in the current search.
    #[inline]
    pub fn prev(&self, node: u32) -> Option<u32> {
        let i = node as usize;
        (self.stamps.is_fresh(i) && self.prev[i] != u32::MAX).then_some(self.prev[i])
    }

    /// Payload a node was last relaxed with in the current search.
    #[inline]
    pub fn payload(&self, node: u32) -> Option<P> {
        let i = node as usize;
        self.stamps.is_fresh(i).then_some(self.payload[i])
    }

    /// The predecessor chain ending at `node`, source first.
    pub fn path(&self, node: u32) -> Vec<u32> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = self.prev(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Frontier pops since [`arm`](Kernel::arm), stale entries included: the
    /// search effort reported as `search_nodes`.
    #[inline]
    pub fn popped(&self) -> usize {
        self.popped
    }

    /// Frontier entries left unexpanded when searches ended, since `arm`
    /// (the second pass's only, in [`run_dijkstra`](Kernel::run_dijkstra)).
    #[inline]
    pub fn pruned(&self) -> usize {
        self.pruned
    }

    /// High-water mark of queued entries since `arm`.
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Why a search stopped early since `arm`, if one did.  A `None` result
    /// from [`run`](Kernel::run) with a stop reason set means "limit hit",
    /// not "no path exists".
    #[inline]
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// Test hook: jumps the epoch counters to `epoch` to exercise the `u32`
    /// wrap without 2^32 searches.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.stamps.force_epoch(epoch);
        self.h_memo.force_epoch(epoch);
    }

    /// A\* from `sources` (distance 0, each with its payload) in ascending
    /// `(key(dist + h), node)` order until `space` reports a goal.  Returns
    /// `None` when the frontier runs dry or a limit stops the search (see
    /// [`stop_reason`](Kernel::stop_reason)).  With `h = 0` this is plain
    /// Dijkstra.
    pub fn run<S, H>(
        &mut self,
        space: &mut S,
        sources: impl IntoIterator<Item = (u32, P)>,
        h: H,
    ) -> Option<S::Goal>
    where
        S: SearchSpace<Payload = P>,
        H: Fn(u32) -> f64,
    {
        if self.stop.is_some() {
            return None;
        }
        self.load(sources);
        self.search(space, &h, None).map(|(_, goal)| goal)
    }

    /// Returns exactly what `run(space, sources, |_| 0.0)` returns — the
    /// same goal, and the same `dist`, `prev` and payload on the path to it
    /// — while expanding only nodes whose `dist + h` can reach the optimum.
    ///
    /// It searches twice.  Pass 1 runs A\* to its first goal, whose
    /// distance `ub` bounds the optimum from above.  Pass 2 runs in Dijkstra
    /// order (`key(dist)`) and drops every relaxation with
    /// `key(nd + h(to)) > key(ub) + 1` before it touches `dist`, `prev`, the
    /// payload or the frontier.  The extra key quantum absorbs `f64`
    /// rounding: the same cost summed along another path, or with `h` added,
    /// can differ in the last bit and so cross a key boundary.  Both passes
    /// count in [`popped`](Kernel::popped) and against the node limit,
    /// deadline and cancellation; [`pruned`](Kernel::pruned) counts pass 2's
    /// leftover frontier only.
    ///
    /// Three conditions make the pruning exact: `h` is consistent
    /// (`h(u) <= step(u, v) + h(v)`) and zero on goals; every step costs at
    /// least one key quantum, so plain Dijkstra never improves a node it has
    /// already expanded; and `space`'s goal test depends on the node alone,
    /// since both passes call it.  Let `D` be plain Dijkstra's distance and
    /// call a node *inside* when `D(u) + h(u) <= ub`.  Then:
    ///
    /// * every distance pass 2 assigns is the cost of a real path, so never
    ///   below `D`;
    /// * an inside node's plain-Dijkstra predecessor `p` is inside too, by
    ///   consistency (`D(p) + h(p) <= D(p) + step + h(u) = D(u) + h(u)`), and
    ///   the relaxation from `p` is kept; by induction in pop order every
    ///   inside node gets `D`, and survivors with `D` pop in plain
    ///   Dijkstra's `(key, node)` order;
    /// * any node that relaxes an inside node `u` to `D(u)` lies on an
    ///   optimal path to `u`, so it is inside and already holds its own `D`:
    ///   the first such node to pop is the same in both searches, and `u`
    ///   gets plain Dijkstra's `prev` and payload;
    /// * plain Dijkstra's goal is inside (`h = 0` there, and its distance is
    ///   at most `ub`), and no other goal can pop before it, since one that
    ///   did would pop at least as early in plain Dijkstra.
    pub fn run_dijkstra<S, H>(
        &mut self,
        space: &mut S,
        sources: impl IntoIterator<Item = (u32, P)>,
        h: H,
    ) -> Option<S::Goal>
    where
        S: SearchSpace<Payload = P>,
        H: Fn(u32) -> f64,
    {
        if self.stop.is_some() {
            return None;
        }
        self.load(sources);
        let pruned = self.pruned;
        let (goal, _) = self.search(space, &h, None)?;
        self.pruned = pruned;
        let limit = self.key(self.dist[goal as usize]) + 1;
        self.search(space, &h, Some(limit)).map(|(_, goal)| goal)
    }

    /// Replaces the stored sources and forgets every memoised bound: the
    /// caller may have re-aimed `h` since the last call.
    fn load(&mut self, sources: impl IntoIterator<Item = (u32, P)>) {
        self.sources.clear();
        self.sources.extend(sources);
        self.h_memo.begin();
    }

    /// `h(node)`, evaluated on the node's first use in the current call and
    /// read from the memo afterwards.
    #[inline]
    fn bound(&mut self, node: u32, h: &impl Fn(u32) -> f64) -> f64 {
        self.h_memo.get_or_insert_with(node as usize, || h(node))
    }

    /// What the frontier adds to a node's distance: `h` in A\* order
    /// (`limit` is `None`), nothing in Dijkstra order.
    #[inline]
    fn order(&mut self, node: u32, h: &impl Fn(u32) -> f64, limit: Option<u64>) -> f64 {
        match limit {
            None => self.bound(node, h),
            Some(_) => 0.0,
        }
    }

    /// Whether a search with pass-2 key `limit` keeps a relaxation of `to`
    /// to distance `nd`: always in A\* order, and in Dijkstra order iff
    /// `key(nd + h(to)) <= limit`.
    #[inline]
    fn keep(&mut self, to: u32, nd: f64, h: &impl Fn(u32) -> f64, limit: Option<u64>) -> bool {
        match limit {
            None => true,
            Some(limit) => {
                let h_to = self.bound(to, h);
                self.key(nd + h_to) <= limit
            }
        }
    }

    /// One search from the stored sources: in `(key(dist + h), node)` order
    /// when `limit` is `None`, else in `(key(dist), node)` order relaxing
    /// only what [`keep`](Self::keep)s under `limit`.  Returns the goal node
    /// and what `space` made of it.
    fn search<S, H>(&mut self, space: &mut S, h: &H, limit: Option<u64>) -> Option<(u32, S::Goal)>
    where
        S: SearchSpace<Payload = P>,
        H: Fn(u32) -> f64,
    {
        self.begin();
        for i in 0..self.sources.len() {
            let (node, payload) = self.sources[i];
            if self.keep(node, 0.0, h, limit) {
                self.relax(node, 0.0, None, payload);
                let h_node = self.order(node, h, limit);
                self.push(self.key(h_node), node);
            }
        }
        let mut found = None;
        while let Some(Reverse(entry)) = self.frontier.pop() {
            if self.popped as u64 >= self.node_limit {
                self.stop = Some(StopReason::SearchNodes);
                break;
            }
            if self.popped & INTERRUPT_PROBE_MASK == 0 {
                if let Some(reason) = self.probes.interrupted() {
                    self.stop = Some(reason);
                    break;
                }
            }
            self.popped += 1;
            let (k, node) = unpack(entry);
            let i = node as usize;
            let live = self.stamps.is_fresh(i) && {
                let h_node = self.order(node, h, limit);
                k == self.key(self.dist[i] + h_node)
            };
            if !live {
                continue; // stale entry
            }
            if let Some(goal) = space.goal(node, k, self) {
                found = Some((node, goal));
                break;
            }
            let (dist, payload) = (self.dist[i], self.payload[i]);
            space.expand(node, dist, payload, |to, nd, p| {
                self.improve(node, to, nd, p, h, limit);
            });
        }
        self.pruned += self.frontier.len();
        found
    }

    /// Lowers `to` to distance `nd` via `from` if that is an improvement the
    /// search [`keep`](Self::keep)s, and queues it unless it already sits in
    /// the frontier under the same key.
    #[inline]
    fn improve(
        &mut self,
        from: u32,
        to: u32,
        nd: f64,
        payload: P,
        h: &impl Fn(u32) -> f64,
        limit: Option<u64>,
    ) {
        let i = to as usize;
        let fresh = self.stamps.is_fresh(i);
        if fresh && nd >= self.dist[i] {
            return;
        }
        if !self.keep(to, nd, h, limit) {
            return;
        }
        let h_to = self.order(to, h, limit);
        let key = self.key(nd + h_to);
        let queued = fresh && self.key(self.dist[i] + h_to) == key;
        self.relax(to, nd, Some(from), payload);
        if !queued {
            self.push(key, to);
        }
    }

    #[inline]
    fn push(&mut self, key: u64, node: u32) {
        self.frontier.push(Reverse(pack(key, node)));
        self.peak = self.peak.max(self.frontier.len());
    }
}
