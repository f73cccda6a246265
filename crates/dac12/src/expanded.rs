//! The mask-and-direction expanded search graph.

use tpl_color::Mask;
use tpl_geom::Dir;
use tpl_grid::{GridGraph, VertexId};

/// Node indexing for the expanded graph of the DAC'12 method: every grid
/// vertex is split into `3 masks × 4 incoming planar directions` nodes
/// (vias keep the incoming direction of the planar move that preceded them).
///
/// A node is addressed as `vertex * 12 + mask * 4 + direction_class`.
#[derive(Clone, Debug)]
pub struct ExpandedGraph {
    num_vertices: usize,
}

impl ExpandedGraph {
    /// Number of expansion slots per grid vertex.
    pub const SLOTS: usize = 12;

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

    /// The direction class (0..4) of a direction: planar directions map to
    /// their own class, via directions inherit class 0 (the class is carried
    /// forward by the router for vias, so this value is only used when a
    /// search starts).
    #[inline]
    pub fn dir_class(dir: Dir) -> usize {
        match dir {
            Dir::East => 0,
            Dir::West => 1,
            Dir::North => 2,
            Dir::South => 3,
            Dir::Up | Dir::Down => 0,
        }
    }

    /// Packs `(vertex, mask, direction class)` into a node id.
    #[inline]
    pub fn node(&self, v: VertexId, mask: Mask, dir_class: usize) -> u32 {
        debug_assert!(dir_class < 4);
        (v.index() * Self::SLOTS + mask.index() * 4 + dir_class) as u32
    }

    /// Unpacks a node id into `(vertex, mask, direction class)`.
    #[inline]
    pub fn unpack(&self, node: u32) -> (VertexId, Mask, usize) {
        let node = node as usize;
        let v = node / Self::SLOTS;
        let rem = node % Self::SLOTS;
        (VertexId::new(v as u32), Mask::from_index(rem / 4), rem % 4)
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
    fn node_packing_round_trips() {
        let g = grid();
        let eg = ExpandedGraph::new(&g);
        assert_eq!(eg.num_nodes(), g.num_vertices() * 12);
        for raw in [0u32, 7, 42, (g.num_vertices() - 1) as u32] {
            let v = VertexId::new(raw);
            for mask in Mask::ALL {
                for dc in 0..4 {
                    let n = eg.node(v, mask, dc);
                    assert!((n as usize) < eg.num_nodes());
                    assert_eq!(eg.unpack(n), (v, mask, dc));
                }
            }
        }
    }

    #[test]
    fn node_ids_are_unique() {
        let g = grid();
        let eg = ExpandedGraph::new(&g);
        let mut seen = vec![false; eg.num_nodes()];
        for raw in 0..g.num_vertices() as u32 {
            for mask in Mask::ALL {
                for dc in 0..4 {
                    let n = eg.node(VertexId::new(raw), mask, dc);
                    assert!(!seen[n as usize]);
                    seen[n as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn direction_classes_cover_planar_dirs() {
        let classes: std::collections::HashSet<usize> = Dir::PLANAR
            .iter()
            .map(|d| ExpandedGraph::dir_class(*d))
            .collect();
        assert_eq!(classes.len(), 4);
        assert_eq!(ExpandedGraph::dir_class(Dir::Up), 0);
    }
}
