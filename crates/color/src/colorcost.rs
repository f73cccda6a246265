//! Cached colour-conflict pressure per grid vertex.

use crate::ColorMap;
use tpl_design::NetId;
use tpl_geom::Rect;
use tpl_grid::{EpochStamps, GridGraph, VertexId};

/// An epoch-invalidated cache of per-vertex, per-mask colour pressure.
///
/// The pressure of a vertex is the number of already-coloured features of
/// *other* nets within `Dcolor` of the wire footprint a route through that
/// vertex would create, split by mask.  This is the quantity the paper
/// pre-computes "by GR guide" before routing a net; caching it per vertex per
/// net is equivalent (the map does not change while one net is being routed)
/// and avoids recomputing it for vertices visited by several expansions.
/// Mr.TPL and the DAC'12 baseline share it.
#[derive(Clone, Debug)]
pub struct ColorCostCache {
    stamps: EpochStamps,
    pressure: Vec<[u16; 3]>,
    half_width: i64,
}

impl ColorCostCache {
    /// Creates a cache for a grid.
    pub fn new(grid: &GridGraph) -> Self {
        Self {
            stamps: EpochStamps::new(grid.num_vertices()),
            pressure: vec![[0; 3]; grid.num_vertices()],
            half_width: 4,
        }
    }

    /// Invalidates the cache; call when starting a new net (the colour map
    /// has changed since the last net committed its colours).
    pub fn begin_net(&mut self) {
        self.stamps.begin();
    }

    /// The wire footprint a route through vertex `v` would occupy.
    fn footprint(&self, grid: &GridGraph, v: VertexId) -> Rect {
        Rect::from_point(grid.point_of(v)).expanded(self.half_width)
    }

    /// The per-mask pressure of routing net `net` through vertex `v`.
    #[inline]
    pub fn pressure(
        &mut self,
        grid: &GridGraph,
        map: &ColorMap,
        net: NetId,
        v: VertexId,
    ) -> [u16; 3] {
        let i = v.index();
        if self.stamps.is_fresh(i) {
            return self.pressure[i];
        }
        let rect = self.footprint(grid, v);
        let raw = map.mask_pressure(net, grid.layer_of(v), &rect);
        let clamped = [
            raw[0].min(u16::MAX as usize) as u16,
            raw[1].min(u16::MAX as usize) as u16,
            raw[2].min(u16::MAX as usize) as u16,
        ];
        self.stamps.touch(i);
        self.pressure[i] = clamped;
        clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Feature, Mask};
    use tpl_design::{DesignBuilder, LayerId, Technology};
    use tpl_geom::Rect as GRect;

    fn setup() -> (tpl_design::Design, GridGraph, ColorMap) {
        let mut b = DesignBuilder::new(
            "cc",
            Technology::ispd_like(3),
            GRect::from_coords(0, 0, 400, 400),
        );
        let p0 = b.add_pin_shape("a", 0, GRect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, GRect::from_coords(366, 366, 374, 374));
        b.add_net("n0", vec![p0, p1]);
        let d = b.build().unwrap();
        let g = GridGraph::build(&d);
        let map = ColorMap::new(d.die(), d.tech().num_layers(), d.tech().dcolor());
        (d, g, map)
    }

    #[test]
    fn pressure_reflects_nearby_colored_features() {
        let (_, grid, mut map) = setup();
        // A red wire of another net along y=110 on layer 0.
        map.insert(Feature::wire(
            NetId::new(5),
            LayerId::new(0),
            GRect::from_coords(0, 106, 400, 114),
            Some(Mask::Red),
        ));
        let mut cache = ColorCostCache::new(&grid);
        cache.begin_net();
        // Vertex on layer 0 at y=130 (one track away, within dcolor=45).
        let v_near = grid.vertex(0, 5, grid.iy_near(130));
        let p = cache.pressure(&grid, &map, NetId::new(0), v_near);
        assert_eq!(p, [1, 0, 0]);
        // Vertex three tracks away (70 dbu) sees nothing.
        let v_far = grid.vertex(0, 5, grid.iy_near(190));
        let p = cache.pressure(&grid, &map, NetId::new(0), v_far);
        assert_eq!(p, [0, 0, 0]);
        // The owning net itself feels no pressure from its own wire.
        let p = cache.pressure(
            &grid,
            &map,
            NetId::new(5),
            grid.vertex(0, 7, grid.iy_near(130)),
        );
        assert_eq!(p, [0, 0, 0]);
    }

    #[test]
    fn cache_is_invalidated_between_nets() {
        let (_, grid, mut map) = setup();
        let mut cache = ColorCostCache::new(&grid);
        cache.begin_net();
        let v = grid.vertex(0, 5, 5);
        assert_eq!(cache.pressure(&grid, &map, NetId::new(0), v), [0, 0, 0]);
        // A green wire appears right next to the vertex.
        let p = grid.point_of(v);
        map.insert(Feature::wire(
            NetId::new(9),
            LayerId::new(0),
            GRect::from_coords(p.x - 4, p.y + 16, p.x + 100, p.y + 24),
            Some(Mask::Green),
        ));
        // Same epoch: stale (still cached as zero).
        assert_eq!(cache.pressure(&grid, &map, NetId::new(0), v), [0, 0, 0]);
        // New net epoch: fresh value.
        cache.begin_net();
        assert_eq!(cache.pressure(&grid, &map, NetId::new(0), v), [0, 1, 0]);
    }
}
