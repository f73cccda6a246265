//! The best-first search kernel every detailed router in the workspace runs
//! on.
//!
//! Mr.TPL's colour-state search, the DAC'12 vertex-splitting search and the
//! colour-blind maze of the Dr.CU-like router differ only in the graph they
//! search.  [`Kernel`] owns everything else:
//!
//! * the frontier, one reused radix queue of `(key, node)` entries that pop
//!   in ascending key order, where the key is the priority itself, a
//!   whole-number cost (see below), and equal keys in the order the search
//!   needs (see *Equal keys*);
//! * one epoch-stamped record per node: `dist`, `prev`, the bound `h` and
//!   the payload (the colour state in Mr.TPL, `()` elsewhere), so a search
//!   starts in O(sources), the buffer is allocated once per routing run, and
//!   one call of [`run`](Kernel::run) or
//!   [`run_one_pass`](Kernel::run_one_pass) evaluates `h` once per node it
//!   touches, on the first touch;
//! * the exact stale-entry test;
//! * the node-limit, deadline and cancellation probes;
//! * the pop counter, the pruned-entry counter and the frontier high-water
//!   mark.
//!
//! A node's record is 24 bytes plus the payload, read and written together:
//! the stamp and `prev` (4 B each), `dist` and `h` (8 B each).  Mr.TPL's
//! one-byte colour state pads it to 32 B.
//!
//! A router supplies a [`SearchSpace`] (its node encoding, `expand` and goal
//! test) and a consistent lower bound `h` on the cost still to go (such as
//! [`GoalBound`](crate::GoalBound)), and picks one of two searches:
//!
//! * [`run`](Kernel::run) is A\*: it pops in `(dist + h, node)` order;
//! * [`run_one_pass`](Kernel::run_one_pass) returns exactly what plain
//!   Dijkstra (`run` with `h = 0`) returns, but in one A\*-order pass that
//!   expands, as a rule, only the nodes that can lie on an optimal path: it
//!   breaks distance ties towards plain Dijkstra's predecessor (and its
//!   payload) and keeps popping past the first goal through the goal's key.
//!   Its documentation gives the rules and why they are exact.  Mr.TPL's
//!   initial pass, the Dr.CU-like maze and the DAC'12 search use it.
//!
//! `h` must be a pure function of the node for the length of one call: a
//! router may re-aim its bound between calls, never within one.
//!
//! # Equal keys
//!
//! Which entry of the least key pops first is chosen at compile time, from
//! the search and the payload's size:
//!
//! * [`run`](Kernel::run) pops equal keys in `node` order: A\* returns the
//!   first goal it pops, so the order is part of its answer (Mr.TPL's
//!   negotiation passes);
//! * a one pass with a payload pops them in `(dist, node)` order, so that a
//!   node is expanded only after every predecessor that could hand it its
//!   payload (Mr.TPL's initial pass);
//! * a one pass without a payload (`Kernel<()>`: the Dr.CU-like maze and
//!   DAC'12) pops them last in, first out.  Its answer does not read the
//!   order (see [`run_one_pass`](Kernel::run_one_pass)), so the frontier
//!   neither sorts a key's nodes nor places a push among them.  Another
//!   order pops the same live entries; only the stale pops counted in
//!   `search_nodes`, and the frontier's size, can differ.
//!
//! # Integer costs
//!
//! Every cost is a whole number: a step is a `u64` sum of `u32` weights
//! ([`CostParams`](crate::CostParams) and the colour weights), a distance a
//! sum of steps, and `h` a whole-number bound.  So a node's frontier key is
//! its priority itself, `dist + h` (`dist` alone with `h = 0`), and no
//! comparison in the kernel rounds.  Distances are `u64`: one
//! colour-pressured step alone can cost over 2·10⁷ (a pressure of up to
//! 65,535 features times the conflict weight), so a path's sum can overflow
//! a `u32`.
//!
//! Every step must cost at least 1 ([`CostParams::base_table`] rejects a
//! zero base price, and a debug assertion checks each relaxation).  With a
//! consistent `h`, a relaxation then keys no lower than the entry it
//! expands (`dist + step + h(to) >= dist + h(from)`), so no push lands
//! below the last popped key, and no node is improved after it was
//! expanded: each node is expanded at most once per pass.
//!
//! [`CostParams::base_table`]: crate::CostParams::base_table
//!
//! # Exact stale-entry test
//!
//! The kernel stores no per-node queued key.  Every improvement queues the
//! node under exactly `dist + h`, so a popped
//! `(k, node)` is live iff `k == dist[node] + h(node)`.  An improvement
//! lowers the key, so the entry it supersedes is stale.
//!
//! # Frontier
//!
//! The frontier is a radix queue with no fixed bucket span.  Entries above
//! the last popped key sit in one bucket per bit, by the highest bit in
//! which their key differs from that key; the nodes at the last popped key
//! sit in one vector.  In the ordered modes a bucket is settled with one
//! sort, and a push onto the key being popped (a search makes many, some
//! below the node just popped) is placed by binary insertion, so the pops
//! come out in exactly the order of a binary heap of `(key, node)` pairs
//! (of `(key, dist, node)` triples in a one pass with a payload); equal
//! entries are indistinguishable.  Unordered, a settle moves the nodes and
//! a push appends.  The routers' searches push up to twice as many entries
//! as they pop, and an entry that is never popped costs one append to a
//! bucket, where a heap sifts it in.

use crate::frontier::{Frontier, ANY, BY_DIST, BY_NODE};
use crate::{RouteBudget, StopReason};

/// Pops between two deadline/cancellation probes, minus one.  The node
/// limit is checked on every pop.
const INTERRUPT_PROBE_MASK: usize = 0x0FFF;

/// The graph a [`Kernel`] searches: node encoding, successors and goal test.
pub trait SearchSpace {
    /// Per-node state carried alongside the distance (e.g. a colour state).
    type Payload: Copy;
    /// What a successful search returns.
    type Goal;

    /// Called on every live pop before expansion; `Some` ends the search
    /// (in [`Kernel::run_one_pass`], records a goal and skips the
    /// expansion).  It must depend on the node alone.
    fn goal(&mut self, node: u32) -> Option<Self::Goal>;

    /// Calls `relax(successor, dist + step, payload)` for every successor of
    /// `node`, which was popped with distance `dist` and `payload`.
    fn expand(
        &mut self,
        node: u32,
        dist: u64,
        payload: Self::Payload,
        relax: impl FnMut(u32, u64, Self::Payload),
    );
}

/// A node's record in the current search, read and written together.
#[derive(Clone, Copy, Debug)]
struct Slot<P> {
    /// The search that last wrote the record; in any other search the rest
    /// of it is garbage.
    stamp: u32,
    /// The predecessor, `u32::MAX` for a source.
    prev: u32,
    dist: u64,
    /// `h(node)`, evaluated when the call first touched the node.
    h: u64,
    payload: P,
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
    /// The stamp of the current search's records.
    epoch: u32,
    slots: Vec<Slot<P>>,
    frontier: Frontier,
    popped: usize,
    pruned: usize,
    peak: usize,
    node_limit: u64,
    /// Deadline and cancellation token of the armed budget.
    probes: RouteBudget,
    stop: Option<StopReason>,
}

impl<P: Copy + Default> Kernel<P> {
    /// Creates an unbudgeted kernel over `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` does not fit node ids in a `u32`.
    pub fn new(num_nodes: usize) -> Self {
        assert!(
            u32::try_from(num_nodes).is_ok(),
            "{num_nodes} nodes do not fit u32 node ids"
        );
        // Stamp 0 is never the current epoch, so these records read as
        // stale.  All-zero records (with a zero default payload) let the
        // buffer be a zero-filled allocation, whose pages need not be mapped
        // until a search touches one of their nodes.
        let stale = Slot {
            stamp: 0,
            prev: 0,
            dist: 0,
            h: 0,
            payload: P::default(),
        };
        Self {
            epoch: 1,
            slots: vec![stale; num_nodes],
            frontier: Frontier::default(),
            popped: 0,
            pruned: 0,
            peak: 0,
            node_limit: u64::MAX,
            probes: RouteBudget::default(),
            stop: None,
        }
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

    /// Starts a new search: every node's record becomes stale in O(1), and
    /// the frontier empties.
    ///
    /// When the `u32` stamps run out, every record is marked stale once and
    /// the count restarts, so no record of an earlier lap reads as fresh.
    pub fn begin(&mut self) {
        if self.epoch == u32::MAX {
            for slot in &mut self.slots {
                slot.stamp = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.frontier.clear();
    }

    /// The record of `node`, if the current search wrote it.
    #[inline]
    fn fresh(&self, node: u32) -> Option<&Slot<P>> {
        let slot = &self.slots[node as usize];
        (slot.stamp == self.epoch).then_some(slot)
    }

    /// Sets a node's distance, predecessor and payload in the current search
    /// (without queueing it), for a caller that reads them back outside a
    /// search.
    #[inline]
    pub fn relax(&mut self, node: u32, dist: u64, prev: Option<u32>, payload: P) {
        self.slots[node as usize] = Slot {
            stamp: self.epoch,
            prev: prev.unwrap_or(u32::MAX),
            dist,
            h: 0,
            payload,
        };
    }

    /// Tentative distance of a node in the current search (`u64::MAX` when
    /// the search has not reached it).
    #[inline]
    pub fn dist(&self, node: u32) -> u64 {
        self.fresh(node).map_or(u64::MAX, |slot| slot.dist)
    }

    /// Predecessor of a node in the current search.
    #[inline]
    pub fn prev(&self, node: u32) -> Option<u32> {
        let prev = self.fresh(node)?.prev;
        (prev != u32::MAX).then_some(prev)
    }

    /// Payload a node was relaxed with by its predecessor in the current
    /// search.
    #[inline]
    pub fn payload(&self, node: u32) -> Option<P> {
        self.fresh(node).map(|slot| slot.payload)
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

    /// Frontier entries left unexpanded when searches ended, since `arm`.
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

    /// Test hook: jumps the epoch counter to `epoch` to exercise the `u32`
    /// wrap without 2^32 searches.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// A\* from `sources` (distance 0, each with its payload) in ascending
    /// `(dist + h, node)` order until `space` reports a goal.  Returns
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
        H: Fn(u32) -> u64,
    {
        self.search::<S, H, false>(space, sources, &h)
    }

    /// Returns exactly what `run(space, sources, |_| 0)` returns — the
    /// same goal, and the same `dist`, `prev` and payload on the path to it
    /// — in one pass in A\* order.  The pass differs from
    /// [`run`](Kernel::run) in four rules:
    ///
    /// * **Tie rule.** A relaxation that reaches `to` at exactly its current
    ///   distance makes `from` its predecessor, and takes the payload `from`
    ///   relaxes it with, when `(dist[from], from) < (dist[prev[to]],
    ///   prev[to])`: of the two, plain Dijkstra expands `from` first, and
    ///   keeps it.
    /// * **Equal keys.** With a payload (a `P` that is not zero-sized),
    ///   entries of equal key pop in `(dist, node)` order, so the pass pops
    ///   in ascending `(dist + h, dist, node)` order.  Without one they pop
    ///   in no particular order (last in, first out); the choice is made at
    ///   compile time.
    /// * **Goals.** A goal pop is recorded and not expanded.  The first one
    ///   sets the band limit, its key (its distance, as `h` is zero on
    ///   goals).
    /// * **End.** The search stops at the first frontier entry above the
    ///   band, or when the frontier runs dry, and returns the recorded goal
    ///   with the least `(dist, node)`.  A limit stop returns `None`, with
    ///   the reason in [`stop_reason`](Kernel::stop_reason), even if a goal
    ///   was recorded.
    ///
    /// Every pop counts in [`popped`](Kernel::popped) and against the node
    /// limit, deadline and cancellation; [`pruned`](Kernel::pruned) counts
    /// the frontier left when the pass ends.
    ///
    /// The rules are exact under three conditions: `h` is consistent
    /// (`h(u) <= step + h(v)` for every step, whatever the payload) and zero
    /// on goals; every step costs at least 1; and `space`'s goal test
    /// depends on the node alone, and its steps on the node and the payload
    /// it is expanded with.  Let `D` and `Pay` be the distance and payload
    /// plain Dijkstra expands a node with, run to exhaustion with goals as
    /// sinks (its pops up to its goal `G` are those of the search that
    /// stops there), and call `p` a *tight predecessor* of `v` when `p`,
    /// expanded with `(D(p), Pay(p))`, relaxes `v` to `D(v)`.  Then:
    ///
    /// * a tight predecessor has a strictly smaller distance than its node,
    ///   as a step costs at least 1, so plain Dijkstra expands every tight
    ///   predecessor of a node before that node, in `(D, node)` order; the
    ///   first one sets the node's `prev` and payload and the later ones
    ///   only tie, so plain Dijkstra keeps the least `(D, node)` tight
    ///   predecessor and the payload it relaxes the node with;
    /// * no distance in the pass falls below `D`, and a node expanded with
    ///   `(D, Pay)` relaxes exactly what plain Dijkstra's expansion of it
    ///   does;
    /// * with a payload, the pass pops its live entries in ascending
    ///   `(dist + h, dist, node)`, as a relaxation keys no lower than the
    ///   entry it expands and, on an equal key, has a strictly larger
    ///   distance.  A tight predecessor `p` of `v` ranks strictly below `v`:
    ///   `D(p) + h(p) <= D(v) + h(v)` by consistency, and `D(p) < D(v)`.  So,
    ///   by induction in that rank, every node `v` inside the band is
    ///   expanded with `(D, Pay)`: its tight predecessors were, earlier,
    ///   one of them queued it at `D(v)`, every later tie came before it
    ///   popped, and the tie rule, comparing final `(D, node)` values, left
    ///   it the least one's `prev` and payload.  (In `node` order a tight
    ///   predecessor of equal key and larger id would pop after `v`, and
    ///   `v`'s successors would be priced with the wrong payload.)  Without
    ///   a payload the order within a key does not matter: a live pop's
    ///   distance is final whatever the order, a node's expansion reads
    ///   nothing else, and the tie rule alone fixes `prev`, even when a
    ///   tight predecessor ties a node after it was expanded;
    /// * every tight predecessor `p` of a node `v` on plain Dijkstra's path
    ///   has `D(p) + h(p) <= D(v) + h(v) <= D(G)` by consistency, so its
    ///   frontier key is inside the band, which is at least `D(G)`: the
    ///   first goal the pass pops has a distance of at least its `D`, and no
    ///   goal's `D` is below `G`'s;
    /// * no goal is a tight predecessor of any node, since neither search
    ///   expands goals; so recording goals instead of expanding them loses
    ///   no predecessor;
    /// * every goal whose `D` is at most `G`'s is recorded with its `D`, so
    ///   the least recorded `(dist, node)` is `G`, the goal plain Dijkstra
    ///   pops first.
    ///
    /// Ordering equal keys costs a sort per key and a binary insertion per
    /// push onto the key being popped, so searches without a payload, whose
    /// answer no order changes, skip it.
    pub fn run_one_pass<S, H>(
        &mut self,
        space: &mut S,
        sources: impl IntoIterator<Item = (u32, P)>,
        h: H,
    ) -> Option<S::Goal>
    where
        S: SearchSpace<Payload = P>,
        H: Fn(u32) -> u64,
    {
        self.search::<S, H, true>(space, sources, &h)
    }

    /// The record of `node` in the current search.  The search's first
    /// touch resets it: no distance, no predecessor, and `h(node)`.
    #[inline]
    fn touch(&mut self, node: u32, h: &impl Fn(u32) -> u64) -> &mut Slot<P> {
        let epoch = self.epoch;
        let slot = &mut self.slots[node as usize];
        if slot.stamp != epoch {
            *slot = Slot {
                stamp: epoch,
                prev: u32::MAX,
                dist: u64::MAX,
                h: h(node),
                payload: P::default(),
            };
        }
        slot
    }

    /// One A\*-order search from `sources`.  Returns what `space` made of
    /// the first goal popped, or with `ONE_PASS` (the rules of
    /// [`run_one_pass`](Kernel::run_one_pass)) of the least `(dist, node)`
    /// goal popped inside the band.  Returns `None` at once on a kernel
    /// that a limit stopped, and when a limit stops this search.
    fn search<S, H, const ONE_PASS: bool>(
        &mut self,
        space: &mut S,
        sources: impl IntoIterator<Item = (u32, P)>,
        h: &H,
    ) -> Option<S::Goal>
    where
        S: SearchSpace<Payload = P>,
        H: Fn(u32) -> u64,
    {
        if self.stop.is_some() {
            return None;
        }
        // A new stamp also drops every `h`: the caller may have re-aimed it
        // since the last call.
        self.begin();
        for (node, payload) in sources {
            let slot = self.touch(node, h);
            (slot.dist, slot.prev, slot.payload) = (0, u32::MAX, payload);
            let key = slot.h;
            self.push::<ONE_PASS>(key, node);
        }
        let mut found: Option<(u64, u32, S::Goal)> = None;
        // The largest key still popped; with `ONE_PASS`, the first goal
        // narrows it.
        let mut band = u64::MAX;
        while let Some((k, node)) = self.pop::<ONE_PASS>() {
            if k > band {
                self.push::<ONE_PASS>(k, node); // left unexpanded
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
            // Every queued node was touched by this search.
            let Slot {
                dist,
                h: hv,
                payload,
                ..
            } = self.slots[node as usize];
            if k != dist + hv {
                continue; // stale entry
            }
            if let Some(goal) = space.goal(node) {
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
                    band = k;
                }
                continue; // goals are not expanded
            }
            space.expand(node, dist, payload, |to, nd, p| {
                self.improve::<ONE_PASS>(node, to, nd, p, h);
            });
        }
        self.pruned += self.frontier.len();
        if self.stop.is_some() {
            return None;
        }
        found.map(|(_, _, goal)| goal)
    }

    /// Lowers `to` to distance `nd` via `from` and queues it, if that is an
    /// improvement; `to`'s first touch in the call evaluates `h(to)`.  With
    /// `ONE_PASS` a relaxation that ties `to`'s distance applies the tie
    /// rule of [`run_one_pass`](Kernel::run_one_pass).
    #[inline]
    fn improve<const ONE_PASS: bool>(
        &mut self,
        from: u32,
        to: u32,
        nd: u64,
        payload: P,
        h: &impl Fn(u32) -> u64,
    ) {
        debug_assert!(
            nd > self.slots[from as usize].dist,
            "a step costs at least 1"
        );
        let slot = self.touch(to, h);
        if nd >= slot.dist {
            if ONE_PASS && nd == slot.dist {
                self.break_tie(from, to, payload);
            }
            return;
        }
        (slot.dist, slot.prev, slot.payload) = (nd, from, payload);
        let key = nd + slot.h;
        self.push::<ONE_PASS>(key, to);
    }

    /// The tie rule of [`run_one_pass`](Kernel::run_one_pass): node `to`,
    /// reached by `from` at exactly its distance with `payload`, takes
    /// `from` as its predecessor and `payload` as its own when plain
    /// Dijkstra would expand `from` first, that is when `(dist, node)` of
    /// `from` is less than of the current predecessor.  A source keeps
    /// having none.
    #[inline]
    fn break_tie(&mut self, from: u32, to: u32, payload: P) {
        let prev = self.slots[to as usize].prev;
        if prev == u32::MAX {
            return;
        }
        let rank = |node: u32| (self.slots[node as usize].dist, node);
        if rank(from) < rank(prev) {
            let slot = &mut self.slots[to as usize];
            slot.prev = from;
            slot.payload = payload;
        }
    }

    /// The order in which a search pops entries of equal key (see *Equal
    /// keys* in the module docs).
    const fn ties(one_pass: bool) -> u8 {
        if !one_pass {
            BY_NODE
        } else if std::mem::size_of::<P>() == 0 {
            ANY
        } else {
            BY_DIST
        }
    }

    /// Queues `node` under `key`, in the frontier order of a search with
    /// `ONE_PASS`.
    #[inline]
    fn push<const ONE_PASS: bool>(&mut self, key: u64, node: u32) {
        let slots = &self.slots;
        let dist = |n: u32| slots[n as usize].dist;
        match Self::ties(ONE_PASS) {
            BY_NODE => self.frontier.push::<BY_NODE>(key, node, dist),
            BY_DIST => self.frontier.push::<BY_DIST>(key, node, dist),
            _ => self.frontier.push::<ANY>(key, node, dist),
        }
        self.peak = self.peak.max(self.frontier.len());
    }

    /// Removes the least entry, in the frontier order of a search with
    /// `ONE_PASS`.
    #[inline]
    fn pop<const ONE_PASS: bool>(&mut self) -> Option<(u64, u32)> {
        let slots = &self.slots;
        let dist = |n: u32| slots[n as usize].dist;
        match Self::ties(ONE_PASS) {
            BY_NODE => self.frontier.pop::<BY_NODE>(dist),
            BY_DIST => self.frontier.pop::<BY_DIST>(dist),
            _ => self.frontier.pop::<ANY>(dist),
        }
    }
}
