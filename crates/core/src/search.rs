//! Colour-state searching (Algorithm 2) on the shared search kernel.
//!
//! The search runs on [`tpl_grid::Kernel`] with the colour state as the
//! per-vertex payload; this module supplies the expansion (Eq. (1) costs and
//! the 3×2 colour table), the goal test (an O(1) epoch-stamped target mark)
//! and the goal-directed A\* bound:
//!
//! * **Epoch-stamped buffers** — [`NetBuffers`] keeps the kernel, target
//!   marks, verSet and tree membership in flat arrays guarded by
//!   [`EpochStamps`], so starting a search costs O(sources + targets)
//!   instead of O(V).  The buffers are reused across every net of a routing
//!   run.
//! * **Goal-directed A\*** — an admissible, consistent Manhattan lower bound
//!   to the nearest unreached pin's coverage box steers expansion towards
//!   the goal instead of growing a full circle around the tree.  The router
//!   engages it only during negotiation iterations (see
//!   [`NetBuffers::set_goal_directed`]), which hold the bulk of the search
//!   effort, so the initial pass keeps the seed's solution quality.
//! * **One cached record per relaxation** — a step costs the direction-class
//!   [`TradCost::base`], read from a per-layer table [`SearchContext::new`]
//!   builds once per net, plus the entered vertex's record in the
//!   [`ColorCostCache`] (node penalty and 3-mask pressure, filled on the
//!   net's first visit).  Neighbour ids come from one coordinate decode per
//!   pop, in [`Dir::ALL`] order.

use crate::{MrTplConfig, SearchPolicy};
use tpl_color::{ColorCostCache, ColorMap, ColorState, Mask};
use tpl_design::{LayerId, PinId};
use tpl_geom::Dir;
use tpl_grid::{
    EpochStamps, GridGraph, Kernel, RouteBudget, SearchSpace, StopReason, TradCost, VertexId,
};

/// Key units per cost unit when quantising `f64` costs to frontier keys.
const KEY_RESOLUTION: f64 = 256.0;

/// Per-vertex search bookkeeping with three levels of epoch invalidation:
/// per-search (the kernel's distance, predecessor and colour state, plus
/// target marks), and per-net (verSet membership and routed-tree
/// membership, which must survive across the several pin-to-tree searches
/// of one multi-pin net).
#[derive(Debug)]
pub struct NetBuffers {
    /// Order the frontier by distance plus the A* lower bound.
    goal_directed: bool,
    /// The search kernel; its payload is the colour state.
    kernel: Kernel<ColorState>,
    /// Guards `target_pin`: which vertices are goals of the current search.
    target: EpochStamps,
    target_pin: Vec<u32>,
    /// Guards `ver_set`.
    net: EpochStamps,
    ver_set: Vec<u32>,
    /// Guards routed-tree membership (replaces the router's `HashSet`).
    tree: EpochStamps,
}

impl NetBuffers {
    /// Creates buffers for `num_vertices` grid vertices, goal direction on.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            goal_directed: true,
            kernel: Kernel::new(num_vertices, KEY_RESOLUTION),
            target: EpochStamps::new(num_vertices),
            target_pin: vec![u32::MAX; num_vertices],
            net: EpochStamps::new(num_vertices),
            ver_set: vec![u32::MAX; num_vertices],
            tree: EpochStamps::new(num_vertices),
        }
    }

    /// Starts routing a new net: verSet and tree membership become stale.
    pub fn begin_net(&mut self) {
        self.net.begin();
        self.tree.begin();
    }

    /// Arms the cooperative budget for the next net: `remaining` caps this
    /// net's frontier pops (the batch's snapshot of the run budget), the
    /// budget's deadline/cancellation are probed at expansion granularity,
    /// and the per-net search statistics restart from zero.  Buffers start
    /// unbudgeted.
    pub fn arm_budget(&mut self, remaining: u64, budget: &RouteBudget) {
        self.kernel.arm(remaining, budget);
    }

    /// Why searches of the current net stopped early, if they did.  A
    /// `None` result from [`search`] with a stop reason set means "budget
    /// exhausted", not "no path exists".
    #[inline]
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.kernel.stop_reason()
    }

    /// Frontier pops performed by [`search`] since the last
    /// [`arm_budget`](Self::arm_budget) — the search-effort counter reported
    /// as `search_nodes` in run statistics.
    #[inline]
    pub fn nodes_popped(&self) -> usize {
        self.kernel.popped()
    }

    /// Frontier entries abandoned unexpanded when searches of this net ended
    /// early — the goal-direction pruning counter.
    #[inline]
    pub fn frontier_pruned(&self) -> usize {
        self.kernel.pruned()
    }

    /// High-water mark of live frontier entries across this net's searches.
    #[inline]
    pub fn frontier_peak(&self) -> usize {
        self.kernel.peak()
    }

    /// Starts a new pin-to-tree search within the current net.
    pub fn begin_search(&mut self) {
        self.kernel.begin();
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

    /// Tentative distance of a vertex in the current search.
    #[inline]
    pub fn dist(&self, v: VertexId) -> f64 {
        self.kernel.dist(v.0)
    }

    /// Relaxes a vertex with a new distance, predecessor and colour state.
    #[inline]
    pub fn relax(&mut self, v: VertexId, dist: f64, prev: Option<VertexId>, state: ColorState) {
        self.kernel.relax(v.0, dist, prev.map(|p| p.0), state);
    }

    /// The predecessor of a vertex in the current search.
    #[inline]
    pub fn prev(&self, v: VertexId) -> Option<VertexId> {
        self.kernel.prev(v.0).map(VertexId::new)
    }

    /// The colour state a vertex was relaxed with in the current search.
    #[inline]
    pub fn state(&self, v: VertexId) -> ColorState {
        self.kernel.payload(v.0).unwrap_or(ColorState::none())
    }

    /// Marks a vertex as a goal of the current search for `pin`.
    #[inline]
    pub fn mark_target(&mut self, v: VertexId, pin: PinId) {
        let i = v.index();
        self.target.touch(i);
        self.target_pin[i] = pin.0;
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
    /// The net's traditional step cost (grid, occupancy, guide, pins).
    pub trad: TradCost<'a>,
    /// Router configuration (weights of Eq. (1)).
    pub config: &'a MrTplConfig,
    /// Already-coloured features of other nets.
    pub map: &'a ColorMap,
    /// [`TradCost::base`] per layer and direction of [`Dir::ALL`].
    base: Vec<[f64; 6]>,
}

impl<'a> SearchContext<'a> {
    /// The context of one net; tabulates the direction-class costs once.
    pub fn new(trad: TradCost<'a>, config: &'a MrTplConfig, map: &'a ColorMap) -> Self {
        let base = (0..trad.grid.num_layers())
            .map(|layer| Dir::ALL.map(|dir| trad.base(LayerId::from(layer), dir)))
            .collect();
        Self {
            trad,
            config,
            map,
            base,
        }
    }

    /// Evaluates the 3×2 colour-cost table of Algorithm 2 for one step in
    /// direction `dir` with traditional cost `trad` onto a vertex with the
    /// given per-mask `pressure`, and returns the minimum cost together with
    /// the set of masks attaining it.
    pub fn color_step(
        &self,
        from_state: ColorState,
        dir: Dir,
        trad: f64,
        pressure: [u16; 3],
    ) -> (f64, ColorState) {
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
/// one via each.  A step costs `alpha` times [`TradCost::base`] of its
/// direction class, which these minima bound from below, plus `alpha` times
/// the [`TradCost::node_penalty`] of the vertex it enters and the colour and
/// stitch terms of [`SearchContext::color_step`], all non-negative.  So the
/// bound is admissible; one grid move changes each gap by at most one step,
/// so it is also consistent and the first goal popped is optimal.
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
        let step = (ctx.config.alpha * cost.wire_cost(ctx.trad.grid.pitch()) * mult).max(0.0);
        let via = (ctx.config.alpha * cost.via).max(0.0);
        let mut boxes = Vec::with_capacity(unreached.len());
        for &pin in unreached {
            let mut bbox: Option<(i32, i32, i32, i32, i32, i32)> = None;
            for &v in ctx.trad.coverage.vertices(pin) {
                let (layer, ix, iy) = ctx.trad.grid.coords(v);
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

/// The colour-state search graph: grid vertices carrying colour states.
struct ColorSearch<'s, 'a> {
    ctx: &'s SearchContext<'a>,
    cache: &'s mut ColorCostCache,
    target: &'s EpochStamps,
    target_pin: &'s [u32],
}

impl SearchSpace for ColorSearch<'_, '_> {
    type Payload = ColorState;
    type Goal = (VertexId, PinId);

    fn goal(&mut self, node: u32, _: u64, _: &Kernel<ColorState>) -> Option<(VertexId, PinId)> {
        let i = node as usize;
        self.target
            .is_fresh(i)
            .then(|| (VertexId::new(node), PinId::new(self.target_pin[i])))
    }

    fn expand(
        &mut self,
        node: u32,
        dist: f64,
        from_state: ColorState,
        mut relax: impl FnMut(u32, f64, ColorState),
    ) {
        let ctx = self.ctx;
        let v = VertexId::new(node);
        let at = ctx.trad.grid.coords(v);
        let base = &ctx.base[at.0];
        let around = ctx.trad.grid.neighbors_at(v, at);
        for (k, (dir, n)) in Dir::ALL.into_iter().zip(around).enumerate() {
            let Some(n) = n else {
                continue;
            };
            let Some((penalty, pressure)) = self.cache.record(&ctx.trad, ctx.map, n) else {
                continue;
            };
            let (step, state) = ctx.color_step(from_state, dir, base[k] + penalty, pressure);
            relax(n.0, dist + step, state);
        }
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
    // O(targets) goal marking: a vertex is a goal exactly when it is covered
    // by an unreached pin (`pin_at(v)` names that pin).
    buffers.target.begin();
    let coverage = ctx.trad.coverage;
    for &pin in unreached {
        for &v in coverage.vertices(pin) {
            if coverage.pin_at(v) == Some(pin) {
                buffers.mark_target(v, pin);
            }
        }
    }
    let bound = if buffers.goal_directed {
        GoalBound::build(ctx, unreached)
    } else {
        None
    };
    let grid = ctx.trad.grid;
    let NetBuffers {
        kernel,
        target,
        target_pin,
        ..
    } = buffers;
    let mut space = ColorSearch {
        ctx,
        cache,
        target,
        target_pin,
    };
    let sources = sources
        .iter()
        .filter(|(s, _)| !ctx.trad.state.is_blocked(*s))
        .map(|&(s, state)| (s.0, state));
    kernel.run(&mut space, sources, |v| {
        bound.as_ref().map_or(0.0, |b| b.h(grid, VertexId::new(v)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_color::Feature;
    use tpl_design::{Design, DesignBuilder, LayerId, NetId, Technology};
    use tpl_geom::Rect;
    use tpl_grid::{DenseBitSet, GridState, PinCoverage};

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
        let trad = TradCost {
            grid: &f.grid,
            state: &f.gstate,
            coverage: &f.coverage,
            design: &f.design,
            params: &f.config.cost,
            net: NetId::new(0),
            in_guide,
        };
        SearchContext::new(trad, &f.config, &f.map)
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
        cache.begin();
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
            cache.begin();
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
            cache.begin();
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
        cache.begin();
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
        cache.begin();
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
        let v = f.grid.vertex(0, 5, 5);
        let n = f.grid.vertex(0, 6, 5);
        let trad = c.trad.step(v, n, Dir::East).unwrap();
        let none = [0; 3];
        // From a green-only state, staying green is cheapest and red/blue pay
        // the stitch cost on top.
        let (cost_green_state, set) = c.color_step(
            ColorState::from_mask(tpl_color::Mask::Green),
            Dir::East,
            trad,
            none,
        );
        assert_eq!(set.single(), Some(tpl_color::Mask::Green));
        let (cost_full_state, full_set) = c.color_step(ColorState::all(), Dir::East, trad, none);
        assert_eq!(full_set, ColorState::all());
        assert!((cost_green_state - cost_full_state).abs() < 1e-9);
        // Via steps never pay a stitch cost.
        let above = f.grid.vertex(1, 5, 5);
        let via_trad = c.trad.step(v, above, Dir::Up).unwrap();
        let (_, via_set) = c.color_step(
            ColorState::from_mask(tpl_color::Mask::Green),
            Dir::Up,
            via_trad,
            none,
        );
        assert_eq!(via_set, ColorState::all());
        // Pressure on a mask removes it from the minimum-cost set.
        let (_, pressed) = c.color_step(ColorState::all(), Dir::East, trad, [1, 0, 0]);
        assert!(!pressed.contains(tpl_color::Mask::Red));
    }
}
