//! The per-vertex record of the routers' colour-aware searches: node penalty
//! and colour-conflict pressure, cached per scope.

use crate::ColorMap;
use tpl_grid::{EpochStamps, GridGraph, TradCost, VertexId};

/// The penalty slot of a blocked vertex.
const BLOCKED: u64 = u64::MAX;

/// An epoch-invalidated cache of one record per grid vertex: the vertex's
/// node penalty ([`TradCost::node_penalty`], the vertex-dependent part of
/// `Cost_trad`) and its per-mask colour pressure.
///
/// The pressure of a vertex is the number of already-coloured features of
/// *other* nets within `Dcolor` of the wire footprint a route through that
/// vertex would create, split by mask.  This is the quantity the paper
/// pre-computes "by GR guide" before routing a net.  The [`ColorMap`] keeps
/// it current per vertex as features are committed and ripped up
/// ([`ColorMap::vertex_pressure`]), so a fill reads a count and queries no
/// spatial index; the cache pairs it with the node penalty so every later
/// read of the vertex in the scope is one load.  Mr.TPL and the DAC'12
/// baseline share the cache.
///
/// **Contract:** between [`begin`](Self::begin) and the last
/// [`record`](Self::record) read of a scope, every read passes the same
/// `TradCost` net and guide, and neither the `GridState` nor the `ColorMap`
/// changes.  Mr.TPL begins a scope per net, and the borrow checker holds it
/// to that: routing a net borrows both immutably.  DAC'12 begins a scope per
/// 2-pin connection, because committing one connection's occupancy changes
/// the node penalties the net's next connection sees.
#[derive(Clone, Debug)]
pub struct ColorCostCache {
    stamps: EpochStamps,
    penalty: Vec<u64>,
    pressure: Vec<[u16; 3]>,
}

impl ColorCostCache {
    /// Creates a cache for a grid.
    pub fn new(grid: &GridGraph) -> Self {
        Self {
            stamps: EpochStamps::new(grid.num_vertices()),
            penalty: vec![0; grid.num_vertices()],
            pressure: vec![[0; 3]; grid.num_vertices()],
        }
    }

    /// Starts a new scope: every record becomes stale in O(1).
    pub fn begin(&mut self) {
        self.stamps.begin();
    }

    /// The record of routing `trad`'s net through vertex `v`: the node
    /// penalty and the per-mask pressure, or `None` when `v` is blocked.
    /// Computed on the scope's first read of `v`, one load afterwards.
    #[inline]
    pub fn record(
        &mut self,
        trad: &TradCost<'_>,
        map: &ColorMap,
        v: VertexId,
    ) -> Option<(u64, [u16; 3])> {
        let i = v.index();
        if !self.stamps.is_fresh(i) {
            self.fill(trad, map, v);
        }
        let penalty = self.penalty[i];
        (penalty != BLOCKED).then(|| (penalty, self.pressure[i]))
    }

    fn fill(&mut self, trad: &TradCost<'_>, map: &ColorMap, v: VertexId) {
        let i = v.index();
        self.stamps.touch(i);
        let Some(penalty) = trad.node_penalty(v) else {
            self.penalty[i] = BLOCKED;
            return;
        };
        let raw = map.vertex_pressure(trad.net, v);
        self.penalty[i] = penalty;
        self.pressure[i] = raw.map(|p| p.min(u16::MAX as usize) as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColorState, Feature, Mask, TplConfig};
    use tpl_design::{Design, DesignBuilder, LayerId, NetId, PinId, Technology};
    use tpl_geom::{Dir, Rect as GRect};
    use tpl_grid::{CostParams, DenseBitSet, GridState, PinCoverage};

    struct Setup {
        design: Design,
        grid: GridGraph,
        state: GridState,
        coverage: PinCoverage,
        params: CostParams,
        in_guide: DenseBitSet,
        map: ColorMap,
    }

    fn setup() -> Setup {
        let mut b = DesignBuilder::new(
            "cc",
            Technology::ispd_like(3),
            GRect::from_coords(0, 0, 400, 400),
        );
        let p0 = b.add_pin_shape("a", 0, GRect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, GRect::from_coords(366, 366, 374, 374));
        b.add_net("n0", vec![p0, p1]);
        b.add_obstacle(1, GRect::from_coords(200, 200, 260, 260));
        let design = b.build().unwrap();
        let grid = GridGraph::build(&design);
        Setup {
            state: GridState::new(&grid, &design),
            coverage: PinCoverage::build(&grid, &design),
            params: CostParams::default(),
            in_guide: DenseBitSet::full(grid.num_vertices()),
            map: ColorMap::new(&grid, design.tech().dcolor()),
            grid,
            design,
        }
    }

    impl Setup {
        fn trad(&self, net: u32) -> TradCost<'_> {
            TradCost {
                grid: &self.grid,
                state: &self.state,
                coverage: &self.coverage,
                design: &self.design,
                params: &self.params,
                net: NetId::new(net),
                in_guide: &self.in_guide,
            }
        }

        fn pressure(&self, cache: &mut ColorCostCache, net: u32, v: VertexId) -> [u16; 3] {
            cache.record(&self.trad(net), &self.map, v).unwrap().1
        }
    }

    #[test]
    fn pressure_reflects_nearby_colored_features() {
        let mut s = setup();
        // A red wire of another net along y=110 on layer 0.
        s.map.insert(Feature::wire(
            NetId::new(5),
            LayerId::new(0),
            GRect::from_coords(0, 106, 400, 114),
            Some(Mask::Red),
        ));
        let grid = &s.grid;
        let mut cache = ColorCostCache::new(grid);
        cache.begin();
        // Vertex on layer 0 at y=130 (one track away, within dcolor=45).
        let v_near = grid.vertex(0, 5, grid.iy_near(130));
        assert_eq!(s.pressure(&mut cache, 0, v_near), [1, 0, 0]);
        // Vertex three tracks away (70 dbu) sees nothing.
        let v_far = grid.vertex(0, 5, grid.iy_near(190));
        assert_eq!(s.pressure(&mut cache, 0, v_far), [0, 0, 0]);
        // The owning net itself feels no pressure from its own wire.
        let v_own = grid.vertex(0, 7, grid.iy_near(130));
        assert_eq!(s.pressure(&mut cache, 5, v_own), [0, 0, 0]);
    }

    #[test]
    fn cache_is_invalidated_between_scopes() {
        let mut s = setup();
        let mut cache = ColorCostCache::new(&s.grid);
        cache.begin();
        let v = s.grid.vertex(0, 5, 5);
        assert_eq!(s.pressure(&mut cache, 0, v), [0, 0, 0]);
        // A green wire appears right next to the vertex.
        let p = s.grid.point_of(v);
        s.map.insert(Feature::wire(
            NetId::new(9),
            LayerId::new(0),
            GRect::from_coords(p.x - 4, p.y + 16, p.x + 100, p.y + 24),
            Some(Mask::Green),
        ));
        // Same scope: stale (still cached as zero).
        assert_eq!(s.pressure(&mut cache, 0, v), [0, 0, 0]);
        // New scope: fresh value.
        cache.begin();
        assert_eq!(s.pressure(&mut cache, 0, v), [0, 1, 0]);
    }

    #[test]
    fn record_carries_the_node_penalty_and_skips_blocked_vertices() {
        let mut s = setup();
        let grid = &s.grid;
        let free = grid.vertex(0, 5, 5);
        let taken = grid.vertex(0, 6, 5);
        let blocked = grid.vertex(1, grid.ix_near(230), grid.iy_near(230));
        s.state.occupy(taken, NetId::new(3));
        let mut cache = ColorCostCache::new(grid);
        cache.begin();
        let trad = s.trad(0);
        assert_eq!(cache.record(&trad, &s.map, free).unwrap().0, 0);
        assert_eq!(
            cache.record(&trad, &s.map, taken).unwrap().0,
            u64::from(s.params.occupied)
        );
        assert_eq!(cache.record(&trad, &s.map, blocked), None);
        // Cached: the second read answers the same.
        assert_eq!(cache.record(&trad, &s.map, blocked), None);
    }

    #[test]
    fn every_penalty_and_saturated_pressure_on_one_vertex_price_an_exact_step() {
        let mut s = setup();
        // Net 1 steps onto a vertex of net 0's pin that net 2 occupies, out
        // of guide, with history, under more than `u16::MAX` features of
        // net 2 on every mask.
        let v = s.coverage.vertices(PinId::new(0))[0];
        let (layer, footprint) = (s.grid.layer_of(v), GRect::from_point(s.grid.point_of(v)));
        s.state.occupy(v, NetId::new(2));
        s.state.add_history(v, 1_000);
        for mask in Mask::ALL {
            for _ in 0..=u16::MAX {
                s.map.insert(Feature::wire(
                    NetId::new(2),
                    layer,
                    footprint.expanded(4),
                    Some(mask),
                ));
            }
        }
        s.in_guide = DenseBitSet::new(s.grid.num_vertices());
        let mut cache = ColorCostCache::new(&s.grid);
        cache.begin();
        let (penalty, pressure) = cache.record(&s.trad(1), &s.map, v).unwrap();
        assert_eq!(pressure, [u16::MAX; 3]);
        let p = s.params;
        let pitch = u64::try_from(s.grid.pitch()).unwrap();
        let node = 1_000 + u64::from(p.out_of_guide) * pitch + 2 * u64::from(p.occupied);
        assert_eq!(penalty, node);
        // The dearest base price, wrong-way wire on M1, and the stitch on
        // every mask but the inherited one.
        let base = p.base_table(&s.grid).into_iter().flatten().max().unwrap();
        assert_eq!(base, 2 * 4 * pitch);
        let config = TplConfig::default();
        let steps = config.step_costs(
            base + penalty,
            pressure,
            Dir::East,
            ColorState::from_mask(Mask::Green),
        );
        let step = base + node + 350 * 65_535;
        assert_eq!(steps, [step + 20, step, step + 20]);
        // A path through every node id a kernel holds, at this step, plus a
        // bound as large, is a key that still fits and orders against one
        // unit less, where an `f64` sum would round the unit away.
        let dist = (step + 20) * u64::from(u32::MAX);
        let key = dist.checked_add(dist).expect("the key fits a u64");
        assert!(key - 1 < key);
        assert_eq!(key as f64, (key - 1) as f64);
    }
}
