//! The mask-expanded search graph.

use tpl_color::Mask;
use tpl_grid::{GridGraph, VertexId};

/// Node indexing for the expanded graph of the DAC'12 method: every grid
/// vertex is split into one node per mask.
///
/// A node is addressed as `vertex * 3 + mask`.  The step cost reads only
/// `(vertex, mask)`: a stitch is a mask change on a planar step.
#[derive(Clone, Debug)]
pub struct ExpandedGraph {
    num_vertices: usize,
}

impl ExpandedGraph {
    /// Number of expansion slots (masks) per grid vertex.
    pub const SLOTS: usize = 3;

    /// Creates the indexing helper for a grid.
    ///
    /// # Panics
    ///
    /// Panics if the expanded node ids do not fit a `u32`.
    pub fn new(grid: &GridGraph) -> Self {
        assert!(
            u32::try_from(grid.num_vertices() * Self::SLOTS).is_ok(),
            "expanded graph too large for u32 node ids"
        );
        Self {
            num_vertices: grid.num_vertices(),
        }
    }

    /// Total number of expanded nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_vertices * Self::SLOTS
    }

    /// Packs `(vertex, mask)` into a node id.
    #[inline]
    pub fn node(&self, v: VertexId, mask: Mask) -> u32 {
        (v.index() * Self::SLOTS + mask.index()) as u32
    }

    /// Unpacks a node id into `(vertex, mask)`.
    #[inline]
    pub fn unpack(&self, node: u32) -> (VertexId, Mask) {
        let node = node as usize;
        (
            VertexId::new((node / Self::SLOTS) as u32),
            Mask::from_index(node % Self::SLOTS),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::Rect;

    fn grid() -> GridGraph {
        let mut b = DesignBuilder::new(
            "x",
            Technology::ispd_like(2),
            Rect::from_coords(0, 0, 200, 200),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(150, 150, 160, 160));
        b.add_net("n", vec![p0, p1]);
        GridGraph::build(&b.build().unwrap())
    }

    #[test]
    fn vertex_mask_packing_round_trips_onto_every_node_once() {
        let g = grid();
        let eg = ExpandedGraph::new(&g);
        assert_eq!(eg.num_nodes(), g.num_vertices() * 3);
        let mut seen = vec![false; eg.num_nodes()];
        for raw in 0..g.num_vertices() as u32 {
            let v = VertexId::new(raw);
            for mask in Mask::ALL {
                let n = eg.node(v, mask);
                assert_eq!(eg.unpack(n), (v, mask));
                assert!(!seen[n as usize], "node {n} packed twice");
                seen[n as usize] = true;
            }
        }
        assert!(
            seen.iter().all(|&b| b),
            "every node id is some (vertex, mask)"
        );
    }
}
