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
//!   [`run`](Kernel::run), [`run_dijkstra`](Kernel::run_dijkstra) or
//!   [`run_one_pass`](Kernel::run_one_pass) evaluates `h` at most once per
//!   node, both passes of `run_dijkstra` included;
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
//! [`GoalBound`](crate::GoalBound)), and picks one of three searches:
//!
//! * [`run`](Kernel::run) is A\*: it pops in `(key(dist + h), node)` order;
//! * [`run_dijkstra`](Kernel::run_dijkstra) returns exactly what plain
//!   Dijkstra (`run` with `h = 0`) returns, but uses `h` to expand only the
//!   nodes that can lie on an optimal path.  It searches twice: an A\* pass
//!   learns the optimum, and a pruned pass in Dijkstra order reproduces
//!   plain Dijkstra's tie-breaks.  Its documentation gives the pruning rule,
//!   why it is exact, and the unpruned rerun it falls back on when a step's
//!   cost reads the payload and A\* undercuts plain Dijkstra.  Mr.TPL's
//!   colour-state search, whose steps read the payload, uses it.
//! * [`run_one_pass`](Kernel::run_one_pass) returns plain Dijkstra's answer
//!   too, in a single A\*-order pass, for searches without a payload
//!   (`Kernel<()>`), whose steps depend on the nodes alone: it breaks
//!   distance ties towards plain Dijkstra's predecessor and keeps popping
//!   past the first goal through a one-quantum band.  Its documentation
//!   gives the rules and why they are exact.  The Dr.CU-like maze and the
//!   DAC'12 search use it.
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
//! better distance.  The one pass of
//! [`run_one_pass`](Kernel::run_one_pass) is the exception: it queues every
//! improvement afresh, because in A\* order a node can be improved within
//! its key after it was expanded (a neighbour popped later under the same
//! key, with a larger share of `h`, can undercut it), and the pass must
//! expand it again to stay exact.
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

/// The frontier order of one [`Kernel`] search, and which relaxations it
/// keeps.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// `(key(dist + h), node)`, every relaxation kept: A\*.
    AStar,
    /// `(key(dist), node)`, keeping a relaxation of `to` to `nd` iff
    /// `key(nd + h(to))` is at most the limit: the second pass of
    /// [`Kernel::run_dijkstra`].
    Bounded(u64),
    /// `(key(dist), node)`, every relaxation kept: plain Dijkstra.
    Dijkstra,
}

/// The graph a [`Kernel`] searches: node encoding, successors and goal test.
pub trait SearchSpace {
    /// Per-node state carried alongside the distance (e.g. a colour state).
    type Payload: Copy;
    /// What a successful search returns.
    type Goal;

    /// Called on every live pop before expansion; `Some` ends the search
    /// (in [`Kernel::run_one_pass`], records a goal and skips the
    /// expansion).  `key` is the popped key and `search` the kernel's
    /// current state, so a stop rule may read settled distances.
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
    /// (in [`run_dijkstra`](Kernel::run_dijkstra), those of its
    /// Dijkstra-order passes only).
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
        self.search::<S, H, false>(space, &h, Order::AStar)
            .map(|(_, goal)| goal)
    }

    /// Returns exactly what `run(space, sources, |_| 0.0)` returns — the
    /// same goal, and the same `dist`, `prev` and payload on the path to it
    /// — while expanding, as a rule, only nodes whose `dist + h` can reach
    /// the optimum.
    ///
    /// Pass 1 runs A\* to its first goal, at distance `ub`.  Pass 2 runs in
    /// Dijkstra order (`key(dist)`) and drops every relaxation with
    /// `key(nd + h(to)) > key(ub) + 1` before it touches `dist`, `prev`, the
    /// payload or the frontier.  The extra key quantum absorbs `f64`
    /// rounding: the same cost summed along another path, or with `h` added,
    /// can differ in the last bit and so cross a key boundary.  If pass 2
    /// pops no goal and no limit stopped it, pass 3 reruns in Dijkstra order
    /// without pruning, which is plain Dijkstra itself (the
    /// `grid.dijkstra_reruns` trace counter counts these).  Every pass
    /// counts in [`popped`](Kernel::popped) and against the node limit,
    /// deadline and cancellation; [`pruned`](Kernel::pruned) counts the
    /// leftover frontier of the Dijkstra-order passes only.
    ///
    /// Three conditions make the pruning exact: `h` is consistent
    /// (`h(u) <= step(u, v) + h(v)` for every step, whatever the payload)
    /// and zero on goals; every step costs at least one key quantum, so
    /// plain Dijkstra never improves a node it has already expanded; and
    /// `space`'s goal test and successors depend on the node alone, since
    /// every pass calls them.  Let `D` be plain Dijkstra's distance and call
    /// a node *inside* when `D(u) + h(u) <= ub`.  Then, by induction in pop
    /// order:
    ///
    /// * pass 2 pops a subsequence of plain Dijkstra's pops, each with plain
    ///   Dijkstra's distance and payload, so every relaxation it makes is
    ///   one plain Dijkstra makes and no distance falls below `D`;
    /// * an inside node's plain-Dijkstra predecessor `p` is inside too, by
    ///   consistency (`D(p) + h(p) <= D(p) + step + h(u) = D(u) + h(u)`), and
    ///   the relaxation from `p` is kept, so every inside node gets `D`;
    /// * any node that relaxes an inside node `u` to `D(u)` lies on plain
    ///   Dijkstra's path to `u`, so it is inside: the first such node to pop
    ///   is the same in both searches, and `u` gets plain Dijkstra's `prev`
    ///   and payload;
    /// * a goal pass 2 pops is inside; a goal that plain Dijkstra pops
    ///   later has at least its key (`h = 0` on goals), so if plain
    ///   Dijkstra's goal is not inside, pass 2 pops no goal at all.
    ///
    /// So a goal pass 2 returns is plain Dijkstra's.  When a step's cost
    /// depends on the nodes alone, `D` is the true shortest distance and
    /// plain Dijkstra's goal is inside (its distance is at most `ub`), so
    /// pass 2 finds it.  When a step's cost also reads the payload, as
    /// Mr.TPL's colour-state steps do (a stitch is charged unless the
    /// inherited colour state holds the mask), plain Dijkstra keeps the
    /// payload of the first relaxation that reaches a node's distance, and
    /// A\*, popping in another order, may keep one whose later steps are
    /// cheaper.  Then `ub` can fall below plain Dijkstra's goal distance,
    /// pass 2 runs dry, and pass 3 returns plain Dijkstra's answer.
    ///
    /// A search without a payload gets the same answer in one pass from
    /// [`run_one_pass`](Kernel::run_one_pass); this two-pass form is for
    /// searches whose steps read the payload, where A\* order alone cannot
    /// tell which payload plain Dijkstra would have kept.
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
        let first = self.search::<S, H, false>(space, &h, Order::AStar);
        self.pruned = pruned;
        let (goal, _) = first?;
        let limit = self.key(self.dist[goal as usize]) + 1;
        if let Some((_, goal)) = self.search::<S, H, false>(space, &h, Order::Bounded(limit)) {
            return Some(goal);
        }
        if self.stop.is_some() {
            return None;
        }
        tpl_trace::counter!("grid.dijkstra_reruns", 1);
        self.search::<S, H, false>(space, &h, Order::Dijkstra)
            .map(|(_, goal)| goal)
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

    /// What the frontier adds to a node's distance: `h` in A\* order,
    /// nothing in Dijkstra order.
    #[inline]
    fn order(&mut self, node: u32, h: &impl Fn(u32) -> f64, order: Order) -> f64 {
        match order {
            Order::AStar => self.bound(node, h),
            Order::Bounded(_) | Order::Dijkstra => 0.0,
        }
    }

    /// Whether a search in `order` keeps a relaxation of `to` to distance
    /// `nd`: always, except in [`Order::Bounded`].
    #[inline]
    fn keep(&mut self, to: u32, nd: f64, h: &impl Fn(u32) -> f64, order: Order) -> bool {
        match order {
            Order::AStar | Order::Dijkstra => true,
            Order::Bounded(limit) => {
                let h_to = self.bound(to, h);
                self.key(nd + h_to) <= limit
            }
        }
    }

    /// One search from the stored sources in `order`, relaxing only what
    /// [`keep`](Self::keep)s.  Returns the goal node and what `space` made
    /// of it: the first goal popped, or with `ONE_PASS` (the rules of
    /// [`run_one_pass`](Kernel::run_one_pass), in A\* order) the least
    /// `(key, node)` goal popped inside the band.  Returns `None` when a
    /// limit stopped the search.
    fn search<S, H, const ONE_PASS: bool>(
        &mut self,
        space: &mut S,
        h: &H,
        order: Order,
    ) -> Option<(u32, S::Goal)>
    where
        S: SearchSpace<Payload = P>,
        H: Fn(u32) -> f64,
    {
        self.begin();
        for i in 0..self.sources.len() {
            let (node, payload) = self.sources[i];
            if self.keep(node, 0.0, h, order) {
                self.relax(node, 0.0, None, payload);
                let h_node = self.order(node, h, order);
                self.push(self.key(h_node), node);
            }
        }
        let mut found: Option<(u64, u32, S::Goal)> = None;
        // The largest key still popped; with `ONE_PASS`, the first goal
        // narrows it.
        let mut band = u64::MAX;
        while let Some(Reverse(entry)) = self.frontier.pop() {
            let (k, node) = unpack(entry);
            if k > band {
                self.frontier.push(Reverse(entry)); // left unexpanded
                break;
            }
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
            let i = node as usize;
            let live = self.stamps.is_fresh(i) && {
                let h_node = self.order(node, h, order);
                k == self.key(self.dist[i] + h_node)
            };
            if !live {
                continue; // stale entry
            }
            if let Some(goal) = space.goal(node, k, self) {
                if found
                    .as_ref()
                    .is_none_or(|&(best, at, _)| (k, node) < (best, at))
                {
                    found = Some((k, node, goal));
                }
                if !ONE_PASS {
                    break;
                }
                if band == u64::MAX {
                    band = k + 1;
                }
                continue; // goals are not expanded
            }
            let (dist, payload) = (self.dist[i], self.payload[i]);
            space.expand(node, dist, payload, |to, nd, p| {
                self.improve::<ONE_PASS>(node, to, nd, p, h, order);
            });
        }
        self.pruned += self.frontier.len();
        if self.stop.is_some() {
            return None;
        }
        found.map(|(_, node, goal)| (node, goal))
    }

    /// Lowers `to` to distance `nd` via `from` if that is an improvement the
    /// search [`keep`](Self::keep)s, and queues it unless it already sits in
    /// the frontier under the same key.  With `ONE_PASS` it queues every
    /// improvement, and a relaxation that ties `to`'s distance exactly
    /// applies the tie rule of [`run_one_pass`](Kernel::run_one_pass).
    #[inline]
    fn improve<const ONE_PASS: bool>(
        &mut self,
        from: u32,
        to: u32,
        nd: f64,
        payload: P,
        h: &impl Fn(u32) -> f64,
        order: Order,
    ) {
        let i = to as usize;
        let fresh = self.stamps.is_fresh(i);
        if fresh && nd >= self.dist[i] {
            if ONE_PASS && nd == self.dist[i] {
                self.break_tie(from, i);
            }
            return;
        }
        if !self.keep(to, nd, h, order) {
            return;
        }
        let h_to = self.order(to, h, order);
        let key = self.key(nd + h_to);
        let queued = !ONE_PASS && fresh && self.key(self.dist[i] + h_to) == key;
        self.relax(to, nd, Some(from), payload);
        if !queued {
            self.push(key, to);
        }
    }

    /// The tie rule of [`run_one_pass`](Kernel::run_one_pass): node `to`,
    /// reached by `from` at exactly its distance, takes `from` as its
    /// predecessor when plain Dijkstra would expand `from` first, that is
    /// when `(key(dist), node)` of `from` is less than of the current
    /// predecessor.  A source keeps having none.
    #[inline]
    fn break_tie(&mut self, from: u32, to: usize) {
        let prev = self.prev[to];
        if prev == u32::MAX {
            return;
        }
        let rank = |node: u32| (self.key(self.dist[node as usize]), node);
        if rank(from) < rank(prev) {
            self.prev[to] = from;
        }
    }

    #[inline]
    fn push(&mut self, key: u64, node: u32) {
        self.frontier.push(Reverse(pack(key, node)));
        self.peak = self.peak.max(self.frontier.len());
    }
}

impl Kernel<()> {
    /// Returns exactly what `run(space, sources, |_| 0.0)` returns — the
    /// same goal, and the same `dist` and `prev` on the path to it — in one
    /// pass in A\* order, `(key(dist + h), node)`, where
    /// [`run_dijkstra`](Kernel::run_dijkstra) needs two.  The pass differs
    /// from [`run`](Kernel::run) in three rules:
    ///
    /// * **Tie rule.** A relaxation that reaches `to` at exactly its current
    ///   distance makes `from` its predecessor when `(key(dist[from]),
    ///   from) < (key(dist[prev[to]]), prev[to])`: of the two, plain
    ///   Dijkstra expands `from` first, and keeps it.
    /// * **Goals.** A goal pop is recorded and not expanded.  The first one
    ///   sets the band limit `key(dist) + 1`; the extra key quantum is the
    ///   `f64` rounding slack that `run_dijkstra`'s pruned pass allows too.
    /// * **End.** The search stops at the first frontier entry above the
    ///   band, or when the frontier runs dry, and returns the recorded goal
    ///   with the least `(key(dist), node)`.  A limit stop returns `None`,
    ///   with the reason in [`stop_reason`](Kernel::stop_reason), even if a
    ///   goal was recorded.
    ///
    /// An improvement always queues a fresh frontier entry here (see the
    /// stale-entry test in the module docs), so a node that A\* order
    /// improves after expanding it is expanded again.  Every pop counts in
    /// [`popped`](Kernel::popped) and against the node limit, deadline and
    /// cancellation; [`pruned`](Kernel::pruned) counts the frontier left
    /// when the pass ends.
    ///
    /// The rules are exact under three conditions: `h` is consistent and
    /// zero on goals; every step costs at least one key quantum; and
    /// `space`'s steps and goal test depend on the node alone, as they do
    /// when there is no payload to read.  Let `D` be the distance plain
    /// Dijkstra settles a node at (goals are never expanded by either
    /// search, so they are sinks), `G` its goal, and call `p` a *tight
    /// predecessor* of `v` when `D(p) + step(p, v) == D(v)`.  Then:
    ///
    /// * a tight predecessor has a strictly smaller key than its node, as a
    ///   step is at least one quantum, so plain Dijkstra expands every tight
    ///   predecessor of a node it pops, with its `D`, before that node, and
    ///   in `(key(D), node)` order; the first one sets the node's `prev` and
    ///   the later ones only tie, so plain Dijkstra's `prev` is the least
    ///   `(key(D), node)` tight predecessor;
    /// * no distance in the pass falls below `D`, since each is a sum along
    ///   a path, and `f64` addition is monotone;
    /// * every tight predecessor `p` of a node `v` on plain Dijkstra's path
    ///   has `D(p) + h(p) <= D(v) + h(v) <= D(G)` by consistency, so its
    ///   frontier key is inside the band, which is at least `key(D(G)) + 1`:
    ///   the first goal the pass pops has a distance of at least its `D`,
    ///   no goal's `D` has a smaller key than `G`'s, and the extra quantum
    ///   absorbs the rounding of `D(p) + h(p)`.  By induction on the key,
    ///   the pass expands `p` with `D(p)` (last, if it improved `p` after
    ///   an earlier expansion), which relaxes `v` to `D(v)`;
    /// * each such relaxation either lowers `v` to `D(v)` or ties, and the
    ///   tie rule compares the current keys, which only fall; the least
    ///   tight predecessor's last relaxation comes with its final key, which
    ///   nothing beats afterwards, so `v` ends with plain Dijkstra's `prev`;
    /// * no goal is a tight predecessor of a node on the path, since plain
    ///   Dijkstra, popping it first, would have stopped there; so recording
    ///   goals instead of expanding them loses no predecessor;
    /// * every goal whose key is at most `G`'s is recorded with its `D`, so
    ///   the least recorded `(key(dist), node)` is `G`, the goal plain
    ///   Dijkstra pops first.
    ///
    /// A search whose steps read the payload, such as Mr.TPL's colour-state
    /// search, cannot take this pass: plain Dijkstra keeps the payload of
    /// the first relaxation to reach a node's distance, and a later, tying
    /// relaxation with another payload prices the node's successors
    /// differently.  The `()` payload keeps such searches on
    /// `run_dijkstra`.
    pub fn run_one_pass<S, H>(
        &mut self,
        space: &mut S,
        sources: impl IntoIterator<Item = (u32, ())>,
        h: H,
    ) -> Option<S::Goal>
    where
        S: SearchSpace<Payload = ()>,
        H: Fn(u32) -> f64,
    {
        if self.stop.is_some() {
            return None;
        }
        self.load(sources);
        self.search::<S, H, true>(space, &h, Order::AStar)
            .map(|(_, goal)| goal)
    }
}
