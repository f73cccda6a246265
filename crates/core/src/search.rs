//! Colour-state searching (Algorithm 2) on the epoch-stamped search kernel.
//!
//! The kernel combines three compounding optimisations over the original
//! blind Dijkstra wavefront:
//!
//! * **Epoch-stamped buffers** — [`NetBuffers`] keeps per-vertex distance,
//!   predecessor, colour state, queued key, target marks, verSet and tree
//!   membership in flat arrays guarded by [`EpochStamps`], so starting a
//!   search costs O(sources + targets) instead of O(V).  The buffers are
//!   reused across every net of a routing run.
//! * **Bucket frontier** — the priority queue is the monotone
//!   [`BucketQueue`], which pops in exactly a binary heap's `(key, id)`
//!   order.
//! * **Goal-directed A\*** — an admissible, consistent Manhattan lower bound
//!   to the nearest unreached pin's coverage box steers expansion towards
//!   the goal instead of growing a full circle around the tree.  The router
//!   engages it only during negotiation iterations (see
//!   [`NetBuffers::set_goal_directed`]), which hold the bulk of the search
//!   effort, so the initial pass keeps the seed's solution quality.
//!
//! Stale heap entries are detected exactly: every queued vertex remembers the
//! key it was queued with, so two costs that quantise to the same key can
//! never resurrect a stale entry, and an improvement within one quantum
//! reuses the already-queued entry instead of pushing a duplicate.

use crate::{ColorCostCache, MrTplConfig, SearchPolicy};
use std::time::Instant;
use tpl_color::{ColorMap, ColorState, Mask};
use tpl_design::{Design, NetId, PinId, RouteGuides};
use tpl_geom::Dir;
use tpl_grid::{
    BucketQueue, CancelToken, DenseBitSet, EpochStamps, GridGraph, GridState, PinCoverage,
    RouteBudget, StopReason, VertexId,
};

/// How many pops pass between wall-clock/cancellation probes (a power of
/// two; node-count budgeting stays exact and per-pop).
const INTERRUPT_PROBE_MASK: usize = 0x0FFF;

/// Key units per cost unit when quantising `f64` costs to frontier keys.
const KEY_RESOLUTION: f64 = 256.0;

/// `log2` key units per bucket: one bucket is 4096 key units, and the
/// minimum planar step of the detailed grid is ~5120, so consecutive
/// expansions land a bucket or so apart and cursor scans stay short.
const BUCKET_SHIFT: u32 = 12;

/// Buckets kept addressable before entries spill to the overflow heap.
const BUCKET_SPAN: usize = 1024;

/// Quantises a cost to its integer search key.
#[inline]
fn key(cost: f64) -> u64 {
    (cost * KEY_RESOLUTION) as u64
}

/// Per-vertex search bookkeeping with three levels of epoch invalidation:
/// per-search (distance, predecessor, colour state, queued key, target
/// marks), and per-net (verSet membership and routed-tree membership, which
/// must survive across the several pin-to-tree searches of one multi-pin
/// net).
#[derive(Debug)]
pub struct NetBuffers {
    /// Order the frontier by distance plus the A* lower bound.
    goal_directed: bool,
    /// Guards `dist`, `prev`, `state` and `queued_key`.
    search: EpochStamps,
    dist: Vec<f64>,
    prev: Vec<u32>,
    state: Vec<u8>,
    /// The exact key the vertex is currently queued under (stale-entry test).
    queued_key: Vec<u64>,
    /// Guards `target_pin`: which vertices are goals of the current search.
    target: EpochStamps,
    target_pin: Vec<u32>,
    /// Guards `ver_set`.
    net: EpochStamps,
    ver_set: Vec<u32>,
    /// Guards routed-tree membership (replaces the router's `HashSet`).
    tree: EpochStamps,
    /// Taken by [`search`] while it runs, so the loop can borrow the other
    /// buffers alongside it.
    frontier: Option<BucketQueue>,
    nodes_popped: usize,
    frontier_pruned: usize,
    frontier_peak: usize,
    overflow_pushes: u64,
    /// Pops the current net may still spend (`u64::MAX` = unbudgeted).  The
    /// router arms this per net from its batch's budget snapshot, so where a
    /// search stops is a pure function of the input.
    node_limit: u64,
    /// Wall-clock cut-off, probed every [`INTERRUPT_PROBE_MASK`]+1 pops.
    deadline: Option<Instant>,
    /// Cooperative cancellation, probed alongside the deadline.
    cancel: Option<CancelToken>,
    /// Set when a search of the current net stopped on a budget limit;
    /// further searches of the net return `None` immediately.
    stop: Option<StopReason>,
}

impl NetBuffers {
    /// Creates buffers for `num_vertices` grid vertices, goal direction on.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            goal_directed: true,
            search: EpochStamps::new(num_vertices),
            dist: vec![f64::INFINITY; num_vertices],
            prev: vec![u32::MAX; num_vertices],
            state: vec![0; num_vertices],
            queued_key: vec![0; num_vertices],
            target: EpochStamps::new(num_vertices),
            target_pin: vec![u32::MAX; num_vertices],
            net: EpochStamps::new(num_vertices),
            ver_set: vec![u32::MAX; num_vertices],
            tree: EpochStamps::new(num_vertices),
            frontier: Some(BucketQueue::new(BUCKET_SHIFT, BUCKET_SPAN)),
            nodes_popped: 0,
            frontier_pruned: 0,
            frontier_peak: 0,
            overflow_pushes: 0,
            node_limit: u64::MAX,
            deadline: None,
            cancel: None,
            stop: None,
        }
    }

    /// Starts routing a new net: verSet and tree membership become stale and
    /// the per-net search statistics restart from zero.
    pub fn begin_net(&mut self) {
        self.net.begin();
        self.tree.begin();
        self.nodes_popped = 0;
        self.frontier_pruned = 0;
        self.frontier_peak = 0;
        self.overflow_pushes = 0;
        self.stop = None;
    }

    /// Arms the cooperative budget for the next net: `remaining` caps this
    /// net's frontier pops (the batch's snapshot of the run budget),
    /// and the budget's deadline/cancellation are probed at expansion
    /// granularity.  Buffers start unbudgeted (`u64::MAX`, no probes).
    pub fn arm_budget(&mut self, remaining: u64, budget: &RouteBudget) {
        self.node_limit = remaining;
        self.deadline = budget.deadline;
        self.cancel = budget.cancel.clone();
        self.stop = None;
    }

    /// Why searches of the current net stopped early, if they did.  A
    /// `None` result from [`search`] with a stop reason set means "budget
    /// exhausted", not "no path exists".
    #[inline]
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// The deadline/cancellation probe, run every few thousand pops.
    #[inline]
    fn interrupted(&self) -> Option<StopReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::Deadline);
        }
        None
    }

    /// Frontier pops performed by [`search`] since the last
    /// [`begin_net`](Self::begin_net) — the search-effort counter reported as
    /// `search_nodes` in run statistics.
    #[inline]
    pub fn nodes_popped(&self) -> usize {
        self.nodes_popped
    }

    /// Frontier entries abandoned unexpanded when searches of this net ended
    /// early — the goal-direction pruning counter.
    #[inline]
    pub fn frontier_pruned(&self) -> usize {
        self.frontier_pruned
    }

    /// High-water mark of live frontier entries across this net's searches.
    #[inline]
    pub fn frontier_peak(&self) -> usize {
        self.frontier_peak
    }

    /// Bucket-queue pushes that spilled to the overflow heap for this net.
    #[inline]
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }

    /// Starts a new pin-to-tree search within the current net.
    pub fn begin_search(&mut self) {
        self.search.begin();
        self.target.begin();
    }

    /// Enables or disables goal-directed ordering for subsequent searches of
    /// this buffer.
    ///
    /// The router keeps the seed's pure-Dijkstra expansion order for the
    /// initial routing pass and engages A* during the negotiation
    /// (rip-up-and-reroute) iterations.  The initial pass routes every net
    /// over an empty, cost-flat grid where equal-cost tie-breaks decide how
    /// nets share corridors: goal bias there pulls every net onto its
    /// beeline, bundles them, and measurably worsens colour conflicts.
    /// Reroutes instead run against committed occupancy, history and colour
    /// pressure that differentiate path costs, so goal direction prunes the
    /// wavefront — the bulk of total search effort — without degrading the
    /// negotiated solution.
    pub fn set_goal_directed(&mut self, enabled: bool) {
        self.goal_directed = enabled;
    }

    /// Test hook: jump all epoch counters to `epoch` to exercise `u32`
    /// wrap-around without 2^32 searches.
    #[doc(hidden)]
    pub fn force_epochs(&mut self, epoch: u32) {
        self.search.force_epoch(epoch);
        self.target.force_epoch(epoch);
        self.net.force_epoch(epoch);
        self.tree.force_epoch(epoch);
    }

    /// Tentative distance of a vertex in the current search.
    #[inline]
    pub fn dist(&self, v: VertexId) -> f64 {
        if self.search.is_fresh(v.index()) {
            self.dist[v.index()]
        } else {
            f64::INFINITY
        }
    }

    /// Relaxes a vertex with a new distance, predecessor and colour state.
    #[inline]
    pub fn relax(&mut self, v: VertexId, dist: f64, prev: Option<VertexId>, state: ColorState) {
        let i = v.index();
        let fresh = self.search.is_fresh(i);
        self.search.touch(i);
        self.dist[i] = dist;
        self.prev[i] = prev.map(|p| p.0).unwrap_or(u32::MAX);
        self.state[i] = state.bits();
        if !fresh {
            // Never queued in this search: no key can be mistaken as live.
            self.queued_key[i] = u64::MAX;
        }
    }

    /// The predecessor of a vertex in the current search.
    #[inline]
    pub fn prev(&self, v: VertexId) -> Option<VertexId> {
        if self.search.is_fresh(v.index()) && self.prev[v.index()] != u32::MAX {
            Some(VertexId::new(self.prev[v.index()]))
        } else {
            None
        }
    }

    /// The colour state a vertex was relaxed with in the current search.
    #[inline]
    pub fn state(&self, v: VertexId) -> ColorState {
        if self.search.is_fresh(v.index()) {
            ColorState::from_bits(self.state[v.index()])
        } else {
            ColorState::none()
        }
    }

    /// Marks a vertex as a goal of the current search for `pin`.
    #[inline]
    pub fn mark_target(&mut self, v: VertexId, pin: PinId) {
        let i = v.index();
        self.target.touch(i);
        self.target_pin[i] = pin.0;
    }

    /// The unreached pin this vertex is a goal for, if any (O(1)).
    #[inline]
    pub fn target_at(&self, v: VertexId) -> Option<PinId> {
        if self.target.is_fresh(v.index()) {
            Some(PinId::new(self.target_pin[v.index()]))
        } else {
            None
        }
    }

    /// The verSet the vertex belongs to within the current net, if assigned.
    #[inline]
    pub fn ver_set(&self, v: VertexId) -> Option<tpl_color::VerSetId> {
        if self.net.is_fresh(v.index()) && self.ver_set[v.index()] != u32::MAX {
            Some(tpl_color::VerSetId(self.ver_set[v.index()]))
        } else {
            None
        }
    }

    /// Assigns the vertex to a verSet for the current net.
    #[inline]
    pub fn set_ver_set(&mut self, v: VertexId, set: tpl_color::VerSetId) {
        let i = v.index();
        self.net.touch(i);
        self.ver_set[i] = set.0;
    }

    /// Marks a vertex as part of the current net's routed tree.
    #[inline]
    pub fn add_tree(&mut self, v: VertexId) {
        self.tree.touch(v.index());
    }

    /// True when the vertex belongs to the current net's routed tree.
    #[inline]
    pub fn in_tree(&self, v: VertexId) -> bool {
        self.tree.is_fresh(v.index())
    }
}

/// Borrowed context for routing a single net.
pub struct SearchContext<'a> {
    /// The routing grid.
    pub grid: &'a GridGraph,
    /// Blockage / occupancy / history state.
    pub state: &'a GridState,
    /// Pin-to-vertex coverage.
    pub coverage: &'a PinCoverage,
    /// The design being routed.
    pub design: &'a Design,
    /// Router configuration (weights of Eq. (1)).
    pub config: &'a MrTplConfig,
    /// The net being routed.
    pub net: NetId,
    /// Whether each vertex lies inside the net's route guide.
    pub in_guide: &'a DenseBitSet,
    /// Already-coloured features of other nets.
    pub map: &'a ColorMap,
}

impl<'a> SearchContext<'a> {
    /// Per-net guide membership (nets without guide regions are free).
    pub fn guide_membership(grid: &GridGraph, guides: &RouteGuides, net: NetId) -> DenseBitSet {
        let regions = guides.regions(net);
        if regions.is_empty() {
            return DenseBitSet::full(grid.num_vertices());
        }
        let mut mask = DenseBitSet::new(grid.num_vertices());
        for region in regions {
            for v in grid.vertices_in_rect(region.layer, &region.rect) {
                mask.insert(v.index());
            }
        }
        mask
    }

    /// The traditional (colour-free) part of the cost of stepping from
    /// `from` onto `to`, or `None` when `to` is blocked.
    pub fn trad_cost(&self, from: VertexId, to: VertexId, dir: Dir) -> Option<f64> {
        if self.state.is_blocked(to) {
            return None;
        }
        let cost = &self.config.cost;
        let mut c = if dir.is_via() {
            cost.via
        } else if self.grid.is_wrong_way(from, dir) {
            cost.wrong_way_cost(self.grid.pitch())
        } else {
            cost.wire_cost(self.grid.pitch())
        };
        if dir.is_planar() && self.grid.layer_of(to).index() == 0 {
            c *= cost.base_layer_mult;
        }
        if !self.in_guide.get(to.index()) {
            c += cost.out_of_guide * self.grid.pitch() as f64;
        }
        if self.state.is_occupied_by_other(to, self.net) {
            c += cost.occupied;
        }
        if let Some(pin) = self.coverage.pin_at(to) {
            if self.design.pin(pin).net() != self.net {
                c += cost.occupied;
            }
        }
        c += cost.history_weight * self.state.history(to);
        Some(c)
    }

    /// Evaluates the 3×2 colour-cost table of Algorithm 2 for one step and
    /// returns the minimum cost together with the set of masks attaining it.
    pub fn color_step(
        &self,
        cache: &mut ColorCostCache,
        from_state: ColorState,
        to: VertexId,
        dir: Dir,
        trad: f64,
    ) -> (f64, ColorState) {
        let pressure = cache.pressure(self.grid, self.map, self.net, to);
        let mut best = f64::INFINITY;
        let mut best_set = ColorState::none();
        const EPS: f64 = 1e-9;
        for mask in Mask::ALL {
            let mut c = self.config.alpha * trad
                + self.config.color_conflict_cost * pressure[mask.index()] as f64;
            if dir.is_planar() && !from_state.contains(mask) {
                c += self.config.stitch_cost;
            }
            if c + EPS < best {
                best = c;
                best_set = ColorState::from_mask(mask);
            } else if (c - best).abs() <= EPS {
                best_set = best_set.with(mask);
            }
        }
        if self.config.policy == SearchPolicy::GreedySingleColor {
            if let Some(first) = best_set.first() {
                best_set = ColorState::from_mask(first);
            }
        }
        (best, best_set)
    }
}

/// Admissible lower bound to the nearest unreached pin.
///
/// Each unreached pin contributes the bounding box of its coverage vertices
/// in track coordinates plus its layer range; `h(v)` is the cheapest
/// conceivable cost of closing the Manhattan gap to the nearest box: planar
/// track gaps cost at least the minimum planar step and layer gaps at least
/// one via each.  Every additive cost term of [`SearchContext::trad_cost`]
/// and [`SearchContext::color_step`] is non-negative on top of these minima,
/// so the bound is admissible; one grid move changes each gap by at most one
/// step, so it is also consistent and the first goal popped is optimal.
struct GoalBound {
    boxes: Vec<(i32, i32, i32, i32, i32, i32)>,
    step: f64,
    via: f64,
}

impl GoalBound {
    fn build(ctx: &SearchContext<'_>, unreached: &[PinId]) -> Option<Self> {
        let cost = &ctx.config.cost;
        // Conservative minima: honour configs where the wrong-way or
        // base-layer multipliers dip below 1.
        let mult = cost
            .wrong_way_mult
            .min(1.0)
            .min(cost.base_layer_mult.min(1.0));
        let step = (ctx.config.alpha * cost.wire_cost(ctx.grid.pitch()) * mult).max(0.0);
        let via = (ctx.config.alpha * cost.via).max(0.0);
        let mut boxes = Vec::with_capacity(unreached.len());
        for &pin in unreached {
            let mut bbox: Option<(i32, i32, i32, i32, i32, i32)> = None;
            for &v in ctx.coverage.vertices(pin) {
                let (layer, ix, iy) = ctx.grid.coords(v);
                let (l, x, y) = (layer as i32, ix as i32, iy as i32);
                bbox = Some(match bbox {
                    None => (x, x, y, y, l, l),
                    Some((x0, x1, y0, y1, l0, l1)) => (
                        x0.min(x),
                        x1.max(x),
                        y0.min(y),
                        y1.max(y),
                        l0.min(l),
                        l1.max(l),
                    ),
                });
            }
            if let Some(b) = bbox {
                boxes.push(b);
            }
        }
        if boxes.is_empty() {
            return None;
        }
        Some(Self { boxes, step, via })
    }

    #[inline]
    fn h(&self, grid: &GridGraph, v: VertexId) -> f64 {
        let (layer, ix, iy) = grid.coords(v);
        let (l, x, y) = (layer as i32, ix as i32, iy as i32);
        let mut best = f64::INFINITY;
        for &(x0, x1, y0, y1, l0, l1) in &self.boxes {
            let dx = (x0 - x).max(x - x1).max(0);
            let dy = (y0 - y).max(y - y1).max(0);
            let dl = (l0 - l).max(l - l1).max(0);
            let h = (dx + dy) as f64 * self.step + dl as f64 * self.via;
            if h < best {
                best = h;
            }
        }
        best
    }
}

/// Colour-state searching (Algorithm 2): multi-source best-first search from
/// the routed tree until a vertex covered by an unreached pin of the net is
/// popped.  Returns that vertex and the pin, or `None` if no unreached pin is
/// reachable.
pub fn search(
    ctx: &SearchContext<'_>,
    buffers: &mut NetBuffers,
    cache: &mut ColorCostCache,
    sources: &[(VertexId, ColorState)],
    unreached: &[PinId],
) -> Option<(VertexId, PinId)> {
    if buffers.stop.is_some() {
        // The net already hit its budget in an earlier pin-to-tree search;
        // don't start another one.
        return None;
    }
    buffers.begin_search();
    // O(targets) goal marking: a vertex is a goal exactly when the seed's
    // linear test (`pin_at(v)` unreached) would have said so.
    for &pin in unreached {
        for &v in ctx.coverage.vertices(pin) {
            if ctx.coverage.pin_at(v) == Some(pin) {
                buffers.mark_target(v, pin);
            }
        }
    }
    let bound = if buffers.goal_directed {
        GoalBound::build(ctx, unreached)
    } else {
        None
    };
    let h = |v: VertexId| bound.as_ref().map_or(0.0, |b| b.h(ctx.grid, v));

    let mut frontier = buffers
        .frontier
        .take()
        .expect("the frontier is returned after every search");
    frontier.clear();
    for &(s, state) in sources {
        if ctx.state.is_blocked(s) {
            continue;
        }
        buffers.relax(s, 0.0, None, state);
        let k = key(h(s));
        buffers.queued_key[s.index()] = k;
        frontier.push(k, s.0);
    }

    let mut result = None;
    while let Some((k, raw)) = frontier.pop() {
        if buffers.nodes_popped as u64 >= buffers.node_limit {
            buffers.stop = Some(StopReason::SearchNodes);
            break;
        }
        if buffers.nodes_popped & INTERRUPT_PROBE_MASK == 0 {
            if let Some(reason) = buffers.interrupted() {
                buffers.stop = Some(reason);
                break;
            }
        }
        buffers.nodes_popped += 1;
        let v = VertexId::new(raw);
        if k != buffers.queued_key[v.index()] || !buffers.search.is_fresh(v.index()) {
            continue; // stale entry (exact key comparison, no quantisation alias)
        }
        if let Some(pin) = buffers.target_at(v) {
            result = Some((v, pin));
            break;
        }
        let d = buffers.dist(v);
        let from_state = buffers.state(v);
        for (dir, n) in ctx.grid.neighbors(v) {
            let Some(trad) = ctx.trad_cost(v, n, dir) else {
                continue;
            };
            let (step, new_state) = ctx.color_step(cache, from_state, n, dir, trad);
            let nd = d + step;
            if nd < buffers.dist(n) {
                let was_fresh = buffers.search.is_fresh(n.index());
                buffers.relax(n, nd, Some(v), new_state);
                let nk = key(nd + h(n));
                if !was_fresh || buffers.queued_key[n.index()] != nk {
                    // An improvement that lands on the already-queued key
                    // reuses that entry; it will expand with the new, better
                    // distance.  Otherwise queue under the new key and let
                    // the exact stale test retire the old entry.
                    buffers.queued_key[n.index()] = nk;
                    frontier.push(nk, n.0);
                }
            }
        }
    }
    buffers.frontier_pruned += frontier.len();
    buffers.frontier_peak = buffers.frontier_peak.max(frontier.max_len());
    buffers.overflow_pushes += frontier.overflow_pushes();
    buffers.frontier = Some(frontier);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_color::Feature;
    use tpl_design::{DesignBuilder, LayerId, Technology};
    use tpl_geom::Rect;

    struct Fixture {
        design: Design,
        grid: GridGraph,
        gstate: GridState,
        coverage: PinCoverage,
        map: ColorMap,
        config: MrTplConfig,
    }

    fn fixture() -> Fixture {
        let mut b = DesignBuilder::new(
            "search",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 400, 400),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(366, 6, 374, 14));
        b.add_net("n0", vec![p0, p1]);
        let design = b.build().unwrap();
        let grid = GridGraph::build(&design);
        let gstate = GridState::new(&grid, &design);
        let coverage = PinCoverage::build(&grid, &design);
        let map = ColorMap::new(
            design.die(),
            design.tech().num_layers(),
            design.tech().dcolor(),
        );
        Fixture {
            design,
            grid,
            gstate,
            coverage,
            map,
            config: MrTplConfig::default(),
        }
    }

    fn ctx<'a>(f: &'a Fixture, in_guide: &'a DenseBitSet) -> SearchContext<'a> {
        SearchContext {
            grid: &f.grid,
            state: &f.gstate,
            coverage: &f.coverage,
            design: &f.design,
            config: &f.config,
            net: NetId::new(0),
            in_guide,
            map: &f.map,
        }
    }

    fn all_sources(f: &Fixture) -> Vec<(VertexId, ColorState)> {
        f.coverage
            .vertices(PinId::new(0))
            .iter()
            .map(|v| (*v, ColorState::all()))
            .collect()
    }

    #[test]
    fn search_reaches_the_second_pin_with_full_color_state() {
        let f = fixture();
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let mut buffers = NetBuffers::new(f.grid.num_vertices());
        let mut cache = ColorCostCache::new(&f.grid);
        buffers.begin_net();
        cache.begin_net();
        let sources = all_sources(&f);
        let (dst, pin) =
            search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)]).expect("path exists");
        assert_eq!(pin, PinId::new(1));
        // On an empty die nothing constrains the colours: the destination
        // keeps all three candidates alive.
        assert_eq!(buffers.state(dst), ColorState::all());
        // The path has monotonically non-increasing distance towards the
        // source.
        let mut v = dst;
        let mut d = buffers.dist(v);
        while let Some(p) = buffers.prev(v) {
            assert!(buffers.dist(p) <= d + 1e-9);
            d = buffers.dist(p);
            v = p;
        }
        assert_eq!(buffers.dist(v), 0.0);
    }

    #[test]
    fn goal_direction_reaches_the_pin_at_identical_cost() {
        let f = fixture();
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let mut costs = Vec::new();
        for a_star in [false, true] {
            let mut buffers = NetBuffers::new(f.grid.num_vertices());
            buffers.set_goal_directed(a_star);
            let mut cache = ColorCostCache::new(&f.grid);
            buffers.begin_net();
            cache.begin_net();
            let sources = all_sources(&f);
            let (dst, _) = search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)])
                .expect("path exists");
            costs.push(buffers.dist(dst));
        }
        assert!((costs[0] - costs[1]).abs() < 1e-6, "costs {costs:?}");
    }

    #[test]
    fn a_star_prunes_the_frontier() {
        let f = fixture();
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let mut popped = Vec::new();
        for a_star in [false, true] {
            let mut buffers = NetBuffers::new(f.grid.num_vertices());
            buffers.set_goal_directed(a_star);
            let mut cache = ColorCostCache::new(&f.grid);
            buffers.begin_net();
            cache.begin_net();
            let sources = all_sources(&f);
            search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)]).expect("path exists");
            popped.push(buffers.nodes_popped());
        }
        assert!(
            popped[1] < popped[0],
            "goal direction must reduce pops: {popped:?}"
        );
    }

    #[test]
    fn node_budget_stops_the_search_with_a_reason() {
        let f = fixture();
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let mut buffers = NetBuffers::new(f.grid.num_vertices());
        let mut cache = ColorCostCache::new(&f.grid);
        buffers.begin_net();
        cache.begin_net();
        let sources = all_sources(&f);
        buffers.arm_budget(10, &RouteBudget::with_max_search_nodes(10));
        let got = search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)]);
        assert_eq!(got, None, "ten pops cannot cross the die");
        assert_eq!(buffers.stop_reason(), Some(StopReason::SearchNodes));
        assert!(buffers.nodes_popped() <= 10);
        // Once stopped, further searches of the net refuse to start.
        assert_eq!(
            search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)]),
            None
        );
        // Re-arming unbudgeted finds the pin again.
        buffers.begin_net();
        cache.begin_net();
        buffers.arm_budget(u64::MAX, &RouteBudget::default());
        assert!(search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)]).is_some());
        assert_eq!(buffers.stop_reason(), None);
    }

    #[test]
    fn cancellation_aborts_the_search() {
        let f = fixture();
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let mut buffers = NetBuffers::new(f.grid.num_vertices());
        let mut cache = ColorCostCache::new(&f.grid);
        buffers.begin_net();
        cache.begin_net();
        let token = CancelToken::new();
        token.cancel();
        let budget = RouteBudget {
            cancel: Some(token),
            ..RouteBudget::default()
        };
        buffers.arm_budget(u64::MAX, &budget);
        let sources = all_sources(&f);
        assert_eq!(
            search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)]),
            None
        );
        assert_eq!(buffers.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn epoch_wrap_does_not_leak_stale_search_state() {
        let f = fixture();
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let mut buffers = NetBuffers::new(f.grid.num_vertices());
        let mut cache = ColorCostCache::new(&f.grid);
        buffers.begin_net();
        cache.begin_net();
        let sources = all_sources(&f);
        let (dst_a, _) =
            search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)]).expect("path exists");
        let cost_a = buffers.dist(dst_a);
        // Jump every epoch counter to the brink of u32 wrap: the next two
        // begin_search calls cross u32::MAX and restart at 1, which must not
        // resurrect any stamp written before the wrap.
        buffers.force_epochs(u32::MAX - 1);
        for _ in 0..3 {
            buffers.begin_net();
            cache.begin_net();
            let (dst_b, pin) = search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)])
                .expect("path exists after wrap");
            assert_eq!(pin, PinId::new(1));
            assert_eq!(dst_b, dst_a);
            assert!((buffers.dist(dst_b) - cost_a).abs() < 1e-9);
        }
    }

    #[test]
    fn tree_membership_is_per_net() {
        let f = fixture();
        let mut buffers = NetBuffers::new(f.grid.num_vertices());
        buffers.begin_net();
        let v = VertexId::new(7);
        assert!(!buffers.in_tree(v));
        buffers.add_tree(v);
        assert!(buffers.in_tree(v));
        buffers.begin_net();
        assert!(!buffers.in_tree(v), "tree marks must not survive the net");
    }

    #[test]
    fn colored_neighbor_removes_its_mask_from_the_state() {
        let mut f = fixture();
        // A red wire of another net running right next to the straight-line
        // path between the pins (same layer 0, one track above y=10).
        f.map.insert(Feature::wire(
            NetId::new(9),
            LayerId::new(0),
            Rect::from_coords(0, 26, 400, 34),
            Some(tpl_color::Mask::Red),
        ));
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let mut buffers = NetBuffers::new(f.grid.num_vertices());
        let mut cache = ColorCostCache::new(&f.grid);
        buffers.begin_net();
        cache.begin_net();
        let sources = all_sources(&f);
        let (dst, _) =
            search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)]).expect("path exists");
        // The straight path on layer 0 runs within dcolor of the red wire,
        // so red is no longer among the minimum-cost candidates at the
        // destination.
        let state = buffers.state(dst);
        assert!(!state.contains(tpl_color::Mask::Red));
        assert!(state.contains(tpl_color::Mask::Green));
        assert!(state.contains(tpl_color::Mask::Blue));
    }

    #[test]
    fn greedy_policy_keeps_a_single_candidate() {
        let mut f = fixture();
        f.config.policy = SearchPolicy::GreedySingleColor;
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let mut buffers = NetBuffers::new(f.grid.num_vertices());
        let mut cache = ColorCostCache::new(&f.grid);
        buffers.begin_net();
        cache.begin_net();
        let sources = all_sources(&f);
        let (dst, _) =
            search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)]).expect("path exists");
        assert_eq!(buffers.state(dst).len(), 1);
    }

    #[test]
    fn stitch_cost_is_charged_when_leaving_the_state() {
        let f = fixture();
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let mut cache = ColorCostCache::new(&f.grid);
        cache.begin_net();
        let v = f.grid.vertex(0, 5, 5);
        let n = f.grid.vertex(0, 6, 5);
        let trad = c.trad_cost(v, n, Dir::East).unwrap();
        // From a green-only state, staying green is cheapest and red/blue pay
        // the stitch cost on top.
        let (cost_green_state, set) = c.color_step(
            &mut cache,
            ColorState::from_mask(tpl_color::Mask::Green),
            n,
            Dir::East,
            trad,
        );
        assert_eq!(set.single(), Some(tpl_color::Mask::Green));
        let (cost_full_state, full_set) =
            c.color_step(&mut cache, ColorState::all(), n, Dir::East, trad);
        assert_eq!(full_set, ColorState::all());
        assert!((cost_green_state - cost_full_state).abs() < 1e-9);
        // Via steps never pay a stitch cost.
        let above = f.grid.vertex(1, 5, 5);
        let via_trad = c.trad_cost(v, above, Dir::Up).unwrap();
        let (_, via_set) = c.color_step(
            &mut cache,
            ColorState::from_mask(tpl_color::Mask::Green),
            above,
            Dir::Up,
            via_trad,
        );
        assert_eq!(via_set, ColorState::all());
    }

    /// Textbook O(V²) Dijkstra over the same cost model (empty colour map,
    /// so every step costs `alpha * trad` regardless of colour state),
    /// returning the cheapest distance to any target vertex.
    fn reference_cheapest_target(
        c: &SearchContext<'_>,
        sources: &[(VertexId, ColorState)],
        targets: &[VertexId],
    ) -> f64 {
        let n = c.grid.num_vertices();
        let mut dist = vec![f64::INFINITY; n];
        let mut done = vec![false; n];
        for &(s, _) in sources {
            if !c.state.is_blocked(s) {
                dist[s.index()] = 0.0;
            }
        }
        loop {
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for i in 0..n {
                if !done[i] && dist[i] < best {
                    best = dist[i];
                    u = i;
                }
            }
            if u == usize::MAX {
                break;
            }
            done[u] = true;
            let v = VertexId::new(u as u32);
            for (dir, w) in c.grid.neighbors(v) {
                if let Some(trad) = c.trad_cost(v, w, dir) {
                    let nd = dist[u] + c.config.alpha * trad;
                    if nd < dist[w.index()] {
                        dist[w.index()] = nd;
                    }
                }
            }
        }
        targets
            .iter()
            .map(|t| dist[t.index()])
            .fold(f64::INFINITY, f64::min)
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Property test of the kernel: on random grids (random pin placement
    /// AND random per-vertex history costs) the search reaches an unreached
    /// pin at exactly the cost a textbook Dijkstra pays, with goal direction
    /// on or off.
    #[test]
    fn random_grids_match_reference_dijkstra() {
        for seed in 1..=6u64 {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut r = |m: u64| (xorshift(&mut s) % m) as i64;
            // Pins in opposite halves of the die so the search has room.
            let (ax, ay) = (6 + r(120), 6 + r(340));
            let (bx, by) = (250 + r(120), 6 + r(340));
            let mut b = DesignBuilder::new(
                "rand",
                Technology::ispd_like(3),
                Rect::from_coords(0, 0, 400, 400),
            );
            let p0 = b.add_pin_shape("a", 0, Rect::from_coords(ax, ay, ax + 28, ay + 28));
            let p1 = b.add_pin_shape("b", 0, Rect::from_coords(bx, by, bx + 28, by + 28));
            b.add_net("n0", vec![p0, p1]);
            let design = b.build().unwrap();
            let grid = GridGraph::build(&design);
            let mut gstate = GridState::new(&grid, &design);
            // Random history costs make the shortest path non-trivial.
            for i in 0..grid.num_vertices() {
                if xorshift(&mut s).is_multiple_of(4) {
                    gstate.add_history(VertexId::new(i as u32), (xorshift(&mut s) % 50) as f64);
                }
            }
            let coverage = PinCoverage::build(&grid, &design);
            let map = ColorMap::new(
                design.die(),
                design.tech().num_layers(),
                design.tech().dcolor(),
            );
            let config = MrTplConfig::default();
            let in_guide = DenseBitSet::full(grid.num_vertices());
            let c = SearchContext {
                grid: &grid,
                state: &gstate,
                coverage: &coverage,
                design: &design,
                config: &config,
                net: NetId::new(0),
                in_guide: &in_guide,
                map: &map,
            };
            let sources: Vec<(VertexId, ColorState)> = coverage
                .vertices(PinId::new(0))
                .iter()
                .map(|v| (*v, ColorState::all()))
                .collect();
            let targets: Vec<VertexId> = coverage
                .vertices(PinId::new(1))
                .iter()
                .copied()
                .filter(|v| coverage.pin_at(*v) == Some(PinId::new(1)))
                .collect();
            assert!(!sources.is_empty() && !targets.is_empty(), "seed {seed}");
            let want = reference_cheapest_target(&c, &sources, &targets);
            assert!(want.is_finite(), "seed {seed}: no path in reference");
            for a_star in [false, true] {
                let mut buffers = NetBuffers::new(grid.num_vertices());
                buffers.set_goal_directed(a_star);
                let mut cache = ColorCostCache::new(&grid);
                buffers.begin_net();
                cache.begin_net();
                let (dst, _) = search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)])
                    .expect("path exists");
                assert!(
                    (buffers.dist(dst) - want).abs() < 1e-9,
                    "seed {seed} a_star={a_star}: {} != reference {want}",
                    buffers.dist(dst)
                );
            }
        }
    }
}
