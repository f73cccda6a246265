//! Conflict-graph construction.

use tpl_color::ColoredLayout;

/// The TPL decomposition graph of Yu et al.: one vertex per feature of a
/// layout, a conflict edge per pair of different-net features on the same
/// layer with spacing below `Dcolor`, and a stitch edge between touching
/// features of one net on one layer (siblings, which prefer one mask).  Both
/// kinds come from the layout's pair scan
/// ([`ColoredLayout::near_pairs`], [`ColoredLayout::touching_pairs`]).
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    adjacency: Adjacency,
    siblings: Adjacency,
}

impl ConflictGraph {
    /// Builds the graph of a layout's features, masked or not.  Every
    /// vertex's neighbours and siblings come out ascending.
    pub fn build(layout: &ColoredLayout) -> Self {
        let _span = tpl_trace::span!("decompose.graph");
        let n = layout.features().len();
        Self {
            adjacency: Adjacency::both_ways(n, || layout.near_pairs()),
            siblings: Adjacency::both_ways(n, || layout.touching_pairs()),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adjacency.offsets.len() - 1
    }

    /// Number of conflict edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.targets.len() / 2
    }

    /// The neighbours of a vertex.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        self.adjacency.of(v)
    }

    /// The degree of a vertex.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency.of(v).len()
    }

    /// The touching features of a vertex's net on its layer.
    #[inline]
    pub fn siblings(&self, v: usize) -> &[usize] {
        self.siblings.of(v)
    }
}

/// Adjacency lists in one array: vertex `v`'s list is
/// `targets[offsets[v]..offsets[v + 1]]`.
#[derive(Clone, Debug)]
struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Adjacency {
    /// The lists of `n` vertices joined by the pairs `pairs()` yields, read
    /// twice: once to count, once to fill.  Ascending pairs `(i, j)`,
    /// `i < j`, give ascending lists: a vertex hears of its smaller
    /// neighbours before it reaches its own pairs.
    fn both_ways<I: Iterator<Item = (usize, usize)>>(n: usize, pairs: impl Fn() -> I) -> Self {
        let mut offsets = vec![0; n + 1];
        for (i, j) in pairs() {
            offsets[i + 1] += 1;
            offsets[j + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets[..n].to_vec();
        let mut targets = vec![0; offsets[n]];
        for (i, j) in pairs() {
            targets[next[i]] = j;
            next[i] += 1;
            targets[next[j]] = i;
            next[j] += 1;
        }
        Self { offsets, targets }
    }

    #[inline]
    fn of(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::layout_of;
    use tpl_color::Feature;
    use tpl_design::{LayerId, NetId};
    use tpl_geom::Rect;

    fn wire(net: u32, layer: u32, rect: Rect) -> Feature {
        Feature::wire(NetId::new(net), LayerId::new(layer), rect, None)
    }

    #[test]
    fn close_different_net_features_are_adjacent() {
        let nodes = vec![
            wire(0, 0, Rect::from_coords(0, 0, 200, 8)),
            wire(1, 0, Rect::from_coords(0, 20, 200, 28)),
            wire(2, 0, Rect::from_coords(0, 100, 200, 108)),
            wire(3, 1, Rect::from_coords(0, 20, 200, 28)),
        ];
        let g = ConflictGraph::build(&layout_of(&nodes));
        assert_eq!(g.num_nodes(), 4);
        // Nodes 0 and 1 are 12 apart on the same layer: adjacent.
        assert_eq!(g.neighbors(0), &[1]);
        // Node 2 is 72 away from node 1: not adjacent.
        assert!(g.neighbors(2).is_empty());
        // Node 3 is on another layer: not adjacent to anyone.
        assert!(g.neighbors(3).is_empty());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn same_net_features_are_never_adjacent() {
        let nodes = vec![
            wire(0, 0, Rect::from_coords(0, 0, 200, 8)),
            wire(0, 0, Rect::from_coords(0, 20, 200, 28)),
        ];
        let g = ConflictGraph::build(&layout_of(&nodes));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn four_packed_wires_form_a_clique_of_pressure() {
        // Four parallel wires on adjacent tracks: with dcolor = 45 every pair
        // within two tracks conflicts, so vertex 1 has degree 3.
        let nodes: Vec<Feature> = (0..4)
            .map(|i| {
                wire(
                    i,
                    0,
                    Rect::from_coords(0, 20 * i as i64, 400, 20 * i as i64 + 8),
                )
            })
            .collect();
        let g = ConflictGraph::build(&layout_of(&nodes));
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(0), 2);
    }
}
