//! Conflict-graph construction.

use crate::FeatureNode;
use tpl_design::Design;
use tpl_geom::BinIndex;

/// The TPL conflict graph: one vertex per feature, one edge per pair of
/// different-net features on the same layer with spacing below `Dcolor`.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    adjacency: Vec<Vec<usize>>,
    num_edges: usize,
}

impl ConflictGraph {
    /// Builds the conflict graph of a feature set.
    pub fn build(design: &Design, nodes: &[FeatureNode]) -> Self {
        let _span = tpl_trace::span!("decompose.graph");
        let dcolor = design.tech().dcolor();
        let num_layers = design.tech().num_layers();
        let mut per_layer: Vec<BinIndex> = (0..num_layers)
            .map(|_| BinIndex::new(design.die(), (4 * dcolor).max(64)))
            .collect();
        for (i, n) in nodes.iter().enumerate() {
            per_layer[n.layer.index()].insert(i as u64, n.rect);
        }

        let mut adjacency = vec![Vec::new(); nodes.len()];
        let mut num_edges = 0;
        for (i, n) in nodes.iter().enumerate() {
            let window = n.rect.expanded(dcolor - 1);
            for j in per_layer[n.layer.index()].query(&window) {
                let j = j as usize;
                if j <= i {
                    continue;
                }
                let m = &nodes[j];
                if m.net == n.net {
                    continue;
                }
                if n.rect.spacing_to(&m.rect) < dcolor {
                    adjacency[i].push(j);
                    adjacency[j].push(i);
                    num_edges += 1;
                }
            }
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
            adj.dedup();
        }
        Self {
            adjacency,
            num_edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The neighbours of a vertex.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjacency[v]
    }

    /// The degree of a vertex.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_color::FeatureKind;
    use tpl_design::{DesignBuilder, LayerId, NetId, Technology};
    use tpl_geom::Rect;

    fn design() -> Design {
        let mut b = DesignBuilder::new(
            "g",
            Technology::ispd_like(2),
            Rect::from_coords(0, 0, 1000, 1000),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(900, 900, 910, 910));
        b.add_net("n", vec![p0, p1]);
        b.build().unwrap()
    }

    fn wire(net: u32, layer: u32, rect: Rect) -> FeatureNode {
        FeatureNode {
            net: NetId::new(net),
            layer: LayerId::new(layer),
            rect,
            kind: FeatureKind::Wire,
        }
    }

    #[test]
    fn close_different_net_features_are_adjacent() {
        let d = design();
        let nodes = vec![
            wire(0, 0, Rect::from_coords(0, 0, 200, 8)),
            wire(1, 0, Rect::from_coords(0, 20, 200, 28)),
            wire(2, 0, Rect::from_coords(0, 100, 200, 108)),
            wire(3, 1, Rect::from_coords(0, 20, 200, 28)),
        ];
        let g = ConflictGraph::build(&d, &nodes);
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
        let d = design();
        let nodes = vec![
            wire(0, 0, Rect::from_coords(0, 0, 200, 8)),
            wire(0, 0, Rect::from_coords(0, 20, 200, 28)),
        ];
        let g = ConflictGraph::build(&d, &nodes);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn four_packed_wires_form_a_clique_of_pressure() {
        let d = design();
        // Four parallel wires on adjacent tracks: with dcolor = 45 every pair
        // within two tracks conflicts, so vertex 1 has degree 3.
        let nodes: Vec<FeatureNode> = (0..4)
            .map(|i| {
                wire(
                    i,
                    0,
                    Rect::from_coords(0, 20 * i as i64, 400, 20 * i as i64 + 8),
                )
            })
            .collect();
        let g = ConflictGraph::build(&d, &nodes);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(0), 2);
    }
}
