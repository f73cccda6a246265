//! Colour-state searching (Algorithm 2) on the shared search kernel.
//!
//! The search runs on [`tpl_grid::Kernel`] with the colour state as the
//! per-vertex payload; this module supplies the expansion (Eq. (1) costs and
//! the 3×2 colour table), the goal test (an O(1) epoch-stamped target mark)
//! and the goal-directed A\* bound:
//!
//! * **Epoch-stamped buffers** — [`NetBuffers`] keeps the kernel, target
//!   marks ([`GoalMarks`]), verSet and tree membership in flat arrays
//!   guarded by epoch stamps ([`EpochMap`]), so starting a search costs
//!   O(sources + targets) instead of O(V).  The buffers, with the bound's
//!   tables and the base-cost table, are built once and reused across
//!   every net of a routing run.
//! * **Goal-directed A\*** — [`GoalBound::manhattan`], an admissible,
//!   consistent Manhattan lower bound to the nearest unreached pin's
//!   coverage box (priced at the cheapest step), steers
//!   expansion towards the goal instead of growing a full circle around the
//!   tree.  The router engages A\* order only during negotiation iterations
//!   (see [`NetBuffers::set_goal_directed`]), which hold the bulk of the
//!   search effort, so the initial pass keeps the seed's solution quality.
//!   A\* order is part of those iterations' results, so they keep this
//!   bound even though a tighter one exists.
//! * **Bounded Dijkstra** — the other passes run [`Kernel::run_dijkstra`]
//!   with the tighter layer-aware [`GoalBound::h`] and return plain
//!   Dijkstra's answers.  A colour-state step's cost reads the inherited
//!   colour state, so the A\* pass can find a cheaper goal than plain
//!   Dijkstra; the pruned pass then finds no goal, and the kernel reruns
//!   unpruned, so the answer stays plain Dijkstra's.  The same payload is
//!   why these searches keep two passes where the colour-blind maze and
//!   DAC'12 need one ([`Kernel::run_one_pass`]): plain Dijkstra keeps the
//!   colour state of the first relaxation to reach a vertex's distance, a
//!   tying relaxation with another colour state prices the vertex's
//!   successors differently, and an A\*-order pass cannot tell which one
//!   plain Dijkstra would have kept.  Forced onto one pass, Mr.TPL's
//!   results change.
//! * **One cached record per relaxation** — a step's traditional cost is
//!   the direction-class [`TradCost::base`], read from the per-layer table
//!   [`CostParams::base_table`] that [`NetBuffers::new`] builds once per
//!   routing run, plus the entered vertex's
//!   record in the [`ColorCostCache`] (node penalty and 3-mask pressure,
//!   filled on the net's first visit); [`TplConfig::step_costs`] adds the
//!   colour and stitch terms, the same way DAC'12 does.  Neighbour ids come
//!   from one coordinate decode per pop, in [`Dir::ALL`] order.

use tpl_color::{ColorCostCache, ColorMap, ColorState, Mask, TplConfig};
use tpl_design::PinId;
use tpl_geom::Dir;
use tpl_grid::{
    CostParams, EpochMap, EpochStamps, GoalBound, GoalMarks, GridGraph, Kernel, SearchSpace,
    TradCost, VertexId,
};

/// Per-vertex search bookkeeping with three levels of epoch invalidation:
/// per-search (the kernel's distance, predecessor and colour state, plus
/// target marks), and per-net (verSet membership and routed-tree
/// membership, which must survive across the several pin-to-tree searches
/// of one multi-pin net); plus the per-run tables of the step cost and the
/// bound.
#[derive(Debug)]
pub struct NetBuffers {
    /// Order the frontier by distance plus the A* lower bound.
    goal_directed: bool,
    /// The search kernel; its payload is the colour state.  The router arms
    /// it per net and reads its counters.
    pub(crate) kernel: Kernel<ColorState>,
    /// Which vertices are goals of the current search, and for which pin.
    target: GoalMarks,
    /// The raw verSet id of each vertex within the current net.
    ver_set: EpochMap<u32>,
    /// Guards routed-tree membership (replaces the router's `HashSet`).
    tree: EpochStamps,
    /// The lower bound, aimed at the unreached pins per search.
    bound: GoalBound,
    /// [`TradCost::base`] per layer and direction of [`Dir::ALL`].
    base: Vec<[u64; 6]>,
}

impl NetBuffers {
    /// Creates buffers for searches over `grid` at the costs of `params`,
    /// goal direction on.
    pub fn new(grid: &GridGraph, params: &CostParams) -> Self {
        let num_vertices = grid.num_vertices();
        Self {
            goal_directed: true,
            kernel: Kernel::new(num_vertices),
            target: GoalMarks::new(num_vertices),
            ver_set: EpochMap::new(num_vertices),
            tree: EpochStamps::new(num_vertices),
            bound: GoalBound::new(grid, params),
            base: params.base_table(grid),
        }
    }

    /// Starts routing a new net: verSet and tree membership become stale.
    pub fn begin_net(&mut self) {
        self.ver_set.begin();
        self.tree.begin();
    }

    /// Starts a new pin-to-tree search within the current net.
    pub fn begin_search(&mut self) {
        self.kernel.begin();
        self.target.begin();
    }

    /// Enables or disables goal-directed ordering for subsequent searches of
    /// this buffer.  Disabled, a search returns plain Dijkstra's answer
    /// through [`Kernel::run_dijkstra`].
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
    pub fn dist(&self, v: VertexId) -> u64 {
        self.kernel.dist(v.0)
    }

    /// Relaxes a vertex with a new distance, predecessor and colour state.
    #[inline]
    pub fn relax(&mut self, v: VertexId, dist: u64, prev: Option<VertexId>, state: ColorState) {
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

    /// The verSet the vertex belongs to within the current net, if assigned.
    #[inline]
    pub fn ver_set(&self, v: VertexId) -> Option<tpl_color::VerSetId> {
        self.ver_set.get(v.index()).map(tpl_color::VerSetId)
    }

    /// Assigns the vertex to a verSet for the current net.
    #[inline]
    pub fn set_ver_set(&mut self, v: VertexId, set: tpl_color::VerSetId) {
        self.ver_set.insert(v.index(), set.0);
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
    pub config: &'a TplConfig,
    /// Already-coloured features of other nets.
    pub map: &'a ColorMap,
}

impl<'a> SearchContext<'a> {
    /// The context of one net.
    pub fn new(trad: TradCost<'a>, config: &'a TplConfig, map: &'a ColorMap) -> Self {
        Self { trad, config, map }
    }

    /// Evaluates the 3×2 colour-cost table of Algorithm 2 for one step in
    /// direction `dir` with traditional cost `trad` onto a vertex with the
    /// given per-mask `pressure` ([`TplConfig::step_costs`]), and returns
    /// the minimum cost together with the set of masks attaining it.
    pub fn color_step(
        &self,
        from_state: ColorState,
        dir: Dir,
        trad: u64,
        pressure: [u16; 3],
    ) -> (u64, ColorState) {
        let costs = self.config.step_costs(trad, pressure, dir, from_state);
        let best = costs.into_iter().min().expect("three masks");
        let best_set = Mask::ALL
            .into_iter()
            .zip(costs)
            .filter(|&(_, c)| c == best)
            .fold(ColorState::none(), |set, (mask, _)| set.with(mask));
        (best, best_set)
    }
}

/// The colour-state search graph: grid vertices carrying colour states.
struct ColorSearch<'s, 'a> {
    ctx: &'s SearchContext<'a>,
    /// [`NetBuffers`]' base-cost table.
    base: &'s [[u64; 6]],
    cache: &'s mut ColorCostCache,
    target: &'s GoalMarks,
}

impl SearchSpace for ColorSearch<'_, '_> {
    type Payload = ColorState;
    type Goal = (VertexId, PinId);

    fn goal(&mut self, node: u32) -> Option<(VertexId, PinId)> {
        let v = VertexId::new(node);
        self.target.pin(v).map(|pin| (v, pin))
    }

    fn expand(
        &mut self,
        node: u32,
        dist: u64,
        from_state: ColorState,
        mut relax: impl FnMut(u32, u64, ColorState),
    ) {
        let ctx = self.ctx;
        let v = VertexId::new(node);
        let at = ctx.trad.grid.coords(v);
        let base = &self.base[at.0];
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
/// reachable.  The search runs in A\* order when the buffers are goal
/// directed, and returns plain Dijkstra's answer otherwise.
pub fn search(
    ctx: &SearchContext<'_>,
    buffers: &mut NetBuffers,
    cache: &mut ColorCostCache,
    sources: &[(VertexId, ColorState)],
    unreached: &[PinId],
) -> Option<(VertexId, PinId)> {
    let (grid, coverage) = (ctx.trad.grid, ctx.trad.coverage);
    let NetBuffers {
        goal_directed,
        kernel,
        target,
        bound,
        base,
        ..
    } = buffers;
    target.mark_unreached(coverage, unreached);
    bound.aim(grid, coverage, unreached);
    let mut space = ColorSearch {
        ctx,
        base,
        cache,
        target,
    };
    let sources = sources
        .iter()
        .filter(|(s, _)| !ctx.trad.state.is_blocked(*s))
        .map(|&(s, state)| (s.0, state));
    let bound = &*bound;
    if *goal_directed {
        kernel.run(&mut space, sources, |v| {
            bound.manhattan(grid, VertexId::new(v))
        })
    } else {
        kernel.run_dijkstra(&mut space, sources, |v| bound.h(grid, VertexId::new(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_color::Feature;
    use tpl_design::{Design, DesignBuilder, LayerId, NetId, Technology};
    use tpl_geom::Rect;
    use tpl_grid::{DenseBitSet, GridGraph, GridState, PinCoverage};

    struct Fixture {
        design: Design,
        grid: GridGraph,
        gstate: GridState,
        coverage: PinCoverage,
        map: ColorMap,
        config: TplConfig,
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
        let map = ColorMap::new(&grid, design.tech().dcolor());
        Fixture {
            design,
            grid,
            gstate,
            coverage,
            map,
            config: TplConfig::default(),
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
        let mut buffers = NetBuffers::new(&f.grid, &f.config.cost);
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
            assert!(buffers.dist(p) <= d);
            d = buffers.dist(p);
            v = p;
        }
        assert_eq!(buffers.dist(v), 0);
    }

    #[test]
    fn goal_direction_reaches_the_pin_at_identical_cost() {
        let f = fixture();
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let mut costs = Vec::new();
        for a_star in [false, true] {
            let mut buffers = NetBuffers::new(&f.grid, &f.config.cost);
            buffers.set_goal_directed(a_star);
            let mut cache = ColorCostCache::new(&f.grid);
            buffers.begin_net();
            cache.begin();
            let sources = all_sources(&f);
            let (dst, _) = search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)])
                .expect("path exists");
            costs.push(buffers.dist(dst));
        }
        assert_eq!(costs[0], costs[1]);
    }

    /// Pops and goal distance of plain Dijkstra (`h = 0`) from pin 0 to pin
    /// 1, run on the kernel directly.
    fn plain_dijkstra(f: &Fixture, c: &SearchContext) -> (usize, u64) {
        let mut buffers = NetBuffers::new(&f.grid, &f.config.cost);
        let mut cache = ColorCostCache::new(&f.grid);
        buffers.begin_net();
        cache.begin();
        buffers.target.mark_unreached(&f.coverage, &[PinId::new(1)]);
        let NetBuffers {
            kernel,
            target,
            base,
            ..
        } = &mut buffers;
        let mut space = ColorSearch {
            ctx: c,
            base,
            cache: &mut cache,
            target,
        };
        let sources = all_sources(f).into_iter().map(|(s, state)| (s.0, state));
        let (dst, _) = kernel.run(&mut space, sources, |_| 0).expect("path exists");
        (kernel.popped(), kernel.dist(dst.0))
    }

    #[test]
    fn the_goal_bound_cuts_pops_in_both_orders() {
        let f = fixture();
        let in_guide = DenseBitSet::full(f.grid.num_vertices());
        let c = ctx(&f, &in_guide);
        let (plain_pops, plain_cost) = plain_dijkstra(&f, &c);
        for a_star in [false, true] {
            let mut buffers = NetBuffers::new(&f.grid, &f.config.cost);
            buffers.set_goal_directed(a_star);
            let mut cache = ColorCostCache::new(&f.grid);
            buffers.begin_net();
            cache.begin();
            let sources = all_sources(&f);
            let (dst, _) = search(&c, &mut buffers, &mut cache, &sources, &[PinId::new(1)])
                .expect("path exists");
            assert_eq!(buffers.dist(dst), plain_cost, "a_star = {a_star}");
            assert!(
                buffers.kernel.popped() < plain_pops,
                "a_star = {a_star}: {} pops, plain Dijkstra {plain_pops}",
                buffers.kernel.popped()
            );
        }
    }

    #[test]
    fn both_bounds_are_consistent_with_every_color_state_step() {
        for salt in 0..4u64 {
            let mut case = tpl_ispd::CaseParams::ispd18_like(1 + salt as usize).scaled(0.3);
            case.seed = case.seed.wrapping_add(salt << 32);
            let design = case.generate();
            let grid = GridGraph::build(&design);
            let coverage = PinCoverage::build(&grid, &design);
            let mut gstate = GridState::new(&grid, &design);
            let mut map = ColorMap::new(&grid, design.tech().dcolor());
            let net = design.nets()[salt as usize].id();
            let other = NetId::new(net.0 + 1);
            let mut r = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for v in grid.iter_vertices() {
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                match r % 16 {
                    0 => gstate.add_history(v, 60 * (r >> 4 & 3) as u32),
                    1 => gstate.occupy(v, other),
                    2 => {
                        map.insert(Feature::wire(
                            other,
                            grid.layer_of(v),
                            Rect::from_point(grid.point_of(v)).expanded(4),
                            Some(Mask::from_index((r >> 4) as usize % 3)),
                        ));
                    }
                    _ => {}
                }
            }
            let config = TplConfig::default();
            let in_guide = DenseBitSet::full(grid.num_vertices());
            let trad = TradCost {
                grid: &grid,
                state: &gstate,
                coverage: &coverage,
                design: &design,
                params: &config.cost,
                net,
                in_guide: &in_guide,
            };
            let ctx = SearchContext::new(trad, &config, &map);
            let mut buffers = NetBuffers::new(&grid, &config.cost);
            buffers
                .bound
                .aim(&grid, &coverage, &design.net(net).pins()[1..]);
            let mut cache = ColorCostCache::new(&grid);
            cache.begin();
            let mut space = ColorSearch {
                ctx: &ctx,
                base: &buffers.base,
                cache: &mut cache,
                target: &buffers.target,
            };
            let states = [
                ColorState::all(),
                ColorState::from_mask(Mask::Red),
                ColorState::from_mask(Mask::Green).with(Mask::Blue),
            ];
            let bound = &buffers.bound;
            for v in grid.iter_vertices() {
                let (h, m) = (bound.h(&grid, v), bound.manhattan(&grid, v));
                for state in states {
                    space.expand(v.0, 0, state, |to, step, _| {
                        let to = VertexId::new(to);
                        assert!(h <= step + bound.h(&grid, to), "h {v:?} -> {to:?}");
                        let m_to = bound.manhattan(&grid, to);
                        assert!(m <= step + m_to, "manhattan {v:?} -> {to:?}");
                    });
                }
            }
        }
    }

    #[test]
    fn tree_membership_is_per_net() {
        let f = fixture();
        let mut buffers = NetBuffers::new(&f.grid, &f.config.cost);
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
        let mut buffers = NetBuffers::new(&f.grid, &f.config.cost);
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
        assert_eq!(cost_green_state, cost_full_state);
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
