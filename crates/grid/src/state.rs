//! Mutable per-vertex routing state (blockages, occupancy, history).

use crate::{DenseBitSet, GridGraph, VertexId};
use tpl_design::{Design, NetId};

/// Sentinel for "no net occupies this vertex" in the dense occupancy array.
const FREE: u32 = u32::MAX;

/// Mutable state layered over a [`GridGraph`]: obstacle blockages, net
/// occupancy of vertices, and the negotiation history cost used by rip-up
/// and reroute.
///
/// All three components are dense, index-addressed arrays so that many
/// search threads can read them concurrently without pointer chasing:
/// blockages are one bit per vertex ([`DenseBitSet`]), occupancy is one
/// sentinel-coded `u32` per vertex (half the footprint of
/// `Option<NetId>`), and history is one `u32` per vertex, a whole-number
/// price like every other routing cost.
#[derive(Clone, Debug)]
pub struct GridState {
    blocked: DenseBitSet,
    occupant: Vec<u32>,
    history: Vec<u32>,
}

impl GridState {
    /// Creates the state for a grid, marking vertices blocked by design
    /// obstacles.
    ///
    /// A vertex is blocked when its point falls within an obstacle expanded
    /// by half the wire width plus the layer spacing minus one database unit
    /// (i.e. a wire centred on the vertex would violate spacing to the
    /// obstacle).
    pub fn new(grid: &GridGraph, design: &Design) -> Self {
        let mut blocked = DenseBitSet::new(grid.num_vertices());
        for obs in design.obstacles() {
            let layer = design.tech().layer(obs.layer);
            let margin = layer.width / 2 + layer.spacing - 1;
            let region = obs.rect.expanded(margin);
            for v in grid.vertices_in_rect(obs.layer, &obs.rect.expanded(margin)) {
                // `vertices_in_rect` already adds a half-pitch halo for pin
                // snapping; re-check the exact margin here.
                if region.contains(&grid.point_of(v)) {
                    blocked.insert(v.index());
                }
            }
        }
        Self {
            blocked,
            occupant: vec![FREE; grid.num_vertices()],
            history: vec![0; grid.num_vertices()],
        }
    }

    /// `true` if the vertex is blocked by an obstacle.
    #[inline]
    pub fn is_blocked(&self, v: VertexId) -> bool {
        self.blocked.get(v.index())
    }

    /// The net currently occupying the vertex, if any.
    #[inline]
    pub fn occupant(&self, v: VertexId) -> Option<NetId> {
        match self.occupant[v.index()] {
            FREE => None,
            raw => Some(NetId::new(raw)),
        }
    }

    /// `true` if the vertex is occupied by a net other than `net`.
    #[inline]
    pub fn is_occupied_by_other(&self, v: VertexId, net: NetId) -> bool {
        let raw = self.occupant[v.index()];
        raw != FREE && raw != net.0
    }

    /// Marks a vertex as used by a net (commit of a routed path).
    #[inline]
    pub fn occupy(&mut self, v: VertexId, net: NetId) {
        debug_assert!(net.0 != FREE, "net id collides with the FREE sentinel");
        self.occupant[v.index()] = net.0;
    }

    /// Releases the given vertices if (and only if) `net` owns them,
    /// returning the number released: the `O(net)` rip-up of every router,
    /// each of which remembers the vertices its nets occupy.
    pub fn release_vertices(&mut self, vertices: &[VertexId], net: NetId) -> usize {
        let mut released = 0;
        for v in vertices {
            let slot = &mut self.occupant[v.index()];
            if *slot == net.0 {
                *slot = FREE;
                released += 1;
            }
        }
        tpl_trace::counter!("grid.ripped_vertices", released);
        released
    }

    /// The accumulated history cost of a vertex.
    #[inline]
    pub fn history(&self, v: VertexId) -> u32 {
        self.history[v.index()]
    }

    /// Adds to the history cost of a vertex (negotiated congestion).
    #[inline]
    pub fn add_history(&mut self, v: VertexId, amount: u32) {
        self.history[v.index()] += amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::Rect;

    fn design_with_obstacle() -> Design {
        let mut b = DesignBuilder::new(
            "s",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 200, 200),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(150, 150, 160, 160));
        b.add_net("n", vec![p0, p1]);
        b.add_obstacle(1, Rect::from_coords(60, 60, 140, 140));
        b.build().unwrap()
    }

    #[test]
    fn obstacles_block_covered_vertices_only_on_their_layer() {
        let d = design_with_obstacle();
        let g = GridGraph::build(&d);
        let s = GridState::new(&g, &d);
        // Vertex inside the obstacle on layer 1 is blocked.
        let inside = g.vertex(1, g.ix_near(100), g.iy_near(100));
        assert!(s.is_blocked(inside));
        // Same position on layer 0 is free.
        let below = g.vertex(0, g.ix_near(100), g.iy_near(100));
        assert!(!s.is_blocked(below));
        // Far corner on layer 1 is free.
        let corner = g.vertex(1, 0, 0);
        assert!(!s.is_blocked(corner));
    }

    #[test]
    fn occupancy_lifecycle() {
        let d = design_with_obstacle();
        let g = GridGraph::build(&d);
        let mut s = GridState::new(&g, &d);
        let v = g.vertex(0, 2, 2);
        let net = NetId::new(0);
        let other = NetId::new(1);
        assert_eq!(s.occupant(v), None);
        s.occupy(v, net);
        assert_eq!(s.occupant(v), Some(net));
        assert!(!s.is_occupied_by_other(v, net));
        assert!(s.is_occupied_by_other(v, other));
        assert_eq!(s.release_vertices(&[v], net), 1);
        assert_eq!(s.occupant(v), None);
    }

    #[test]
    fn release_vertices_only_touches_the_owners_slots() {
        let d = design_with_obstacle();
        let g = GridGraph::build(&d);
        let mut s = GridState::new(&g, &d);
        let mine = g.vertex(0, 1, 1);
        let theirs = g.vertex(0, 2, 2);
        let stale = g.vertex(0, 3, 3);
        s.occupy(mine, NetId::new(0));
        s.occupy(theirs, NetId::new(1));
        // Releasing a list that includes another net's vertex and a free one
        // only frees our own.
        assert_eq!(s.release_vertices(&[mine, theirs, stale], NetId::new(0)), 1);
        assert_eq!(s.occupant(mine), None);
        assert_eq!(s.occupant(theirs), Some(NetId::new(1)));
        assert_eq!(s.occupant(stale), None);
    }

    #[test]
    fn history_accumulates() {
        let d = design_with_obstacle();
        let g = GridGraph::build(&d);
        let mut s = GridState::new(&g, &d);
        let v = g.vertex(0, 1, 1);
        assert_eq!(s.history(v), 0);
        s.add_history(v, 2);
        s.add_history(v, 1);
        assert_eq!(s.history(v), 3);
    }
}
