//! Graph simplification and 3-colouring.

use crate::{ConflictGraph, DecomposeConfig, FeatureNode};
use std::collections::HashMap;
use tpl_color::Mask;

/// Colours the conflict graph: peel low-degree vertices, colour the residual
/// cores (exactly for small components, greedily for large ones), then
/// re-insert the peeled vertices in reverse order.
///
/// Returns the per-node mask assignment and the number of residual
/// components.
pub fn color_graph(
    graph: &ConflictGraph,
    nodes: &[FeatureNode],
    config: &DecomposeConfig,
) -> (Vec<Option<Mask>>, usize) {
    let _span = tpl_trace::span!("decompose.color");
    let n = graph.num_nodes();
    let mut masks: Vec<Option<Mask>> = vec![None; n];
    if n == 0 {
        return (masks, 0);
    }

    // Same-net touching siblings (for stitch-aware tie-breaking).
    let siblings = sibling_lists(nodes);

    // 1. Peel vertices with active degree < 3.
    let mut active = vec![true; n];
    let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
    let mut stack: Vec<usize> = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            if active[v] && degree[v] < 3 {
                active[v] = false;
                stack.push(v);
                for &u in graph.neighbors(v) {
                    if active[u] {
                        degree[u] = degree[u].saturating_sub(1);
                    }
                }
                changed = true;
            }
        }
    }

    // 2. Connected components of the residual graph.
    let mut component: Vec<Option<usize>> = vec![None; n];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for v in 0..n {
        if !active[v] || component[v].is_some() {
            continue;
        }
        let id = components.len();
        let mut queue = vec![v];
        let mut members = Vec::new();
        component[v] = Some(id);
        while let Some(u) = queue.pop() {
            members.push(u);
            for &w in graph.neighbors(u) {
                if active[w] && component[w].is_none() {
                    component[w] = Some(id);
                    queue.push(w);
                }
            }
        }
        components.push(members);
    }

    // 3. Colour each residual component.
    for members in &components {
        if members.len() <= config.exact_component_limit {
            color_component_exact(graph, members, &mut masks, config.max_backtrack_steps);
        } else {
            color_component_greedy(graph, members, &siblings, &mut masks);
        }
    }

    // 4. Re-insert peeled vertices in reverse order.
    for &v in stack.iter().rev() {
        masks[v] = Some(pick_mask(graph, &siblings, &masks, v));
    }

    (masks, components.len())
}

/// Same-net touching chunks, used to prefer stitch-free colours.
fn sibling_lists(nodes: &[FeatureNode]) -> Vec<Vec<usize>> {
    let mut by_net: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        by_net
            .entry((node.net.0, node.layer.0))
            .or_default()
            .push(i);
    }
    let mut siblings = vec![Vec::new(); nodes.len()];
    for members in by_net.values() {
        for (a_idx, &a) in members.iter().enumerate() {
            for &b in &members[a_idx + 1..] {
                if nodes[a].rect.intersects(&nodes[b].rect) {
                    siblings[a].push(b);
                    siblings[b].push(a);
                }
            }
        }
    }
    siblings
}

/// The greedy mask choice for one vertex: fewest conflicts with coloured
/// conflict-neighbours, then fewest stitches with coloured siblings, then the
/// lowest mask index.
fn pick_mask(
    graph: &ConflictGraph,
    siblings: &[Vec<usize>],
    masks: &[Option<Mask>],
    v: usize,
) -> Mask {
    let mut conflict_count = [0usize; 3];
    for &u in graph.neighbors(v) {
        if let Some(m) = masks[u] {
            conflict_count[m.index()] += 1;
        }
    }
    let mut stitch_count = [0usize; 3];
    for &s in &siblings[v] {
        if let Some(m) = masks[s] {
            for c in Mask::ALL {
                if c != m {
                    stitch_count[c.index()] += 1;
                }
            }
        }
    }
    Mask::ALL
        .into_iter()
        .min_by_key(|m| {
            (
                conflict_count[m.index()],
                stitch_count[m.index()],
                m.index(),
            )
        })
        .expect("three masks")
}

/// Greedy colouring of one component, highest degree first.
fn color_component_greedy(
    graph: &ConflictGraph,
    members: &[usize],
    siblings: &[Vec<usize>],
    masks: &mut [Option<Mask>],
) {
    let mut order: Vec<usize> = members.to_vec();
    order.sort_by_key(|v| (std::cmp::Reverse(graph.degree(*v)), *v));
    for v in order {
        masks[v] = Some(pick_mask(graph, siblings, masks, v));
    }
}

/// Exact backtracking colouring of a small component, minimising the number
/// of same-mask adjacent pairs inside the component.
fn color_component_exact(
    graph: &ConflictGraph,
    members: &[usize],
    masks: &mut [Option<Mask>],
    max_steps: usize,
) {
    let index_of: HashMap<usize, usize> =
        members.iter().enumerate().map(|(i, v)| (*v, i)).collect();
    let k = members.len();
    let mut best: Vec<usize> = vec![0; k];
    let mut best_cost = usize::MAX;
    let mut current: Vec<usize> = vec![0; k];
    let mut steps = 0usize;

    fn conflicts_of(
        graph: &ConflictGraph,
        members: &[usize],
        index_of: &HashMap<usize, usize>,
        current: &[usize],
        upto: usize,
        candidate: usize,
    ) -> usize {
        let v = members[upto];
        let mut cost = 0;
        for &u in graph.neighbors(v) {
            if let Some(&ui) = index_of.get(&u) {
                if ui < upto && current[ui] == candidate {
                    cost += 1;
                }
            }
        }
        cost
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        graph: &ConflictGraph,
        members: &[usize],
        index_of: &HashMap<usize, usize>,
        current: &mut Vec<usize>,
        depth: usize,
        cost_so_far: usize,
        best: &mut Vec<usize>,
        best_cost: &mut usize,
        steps: &mut usize,
        max_steps: usize,
    ) {
        if *steps > max_steps || cost_so_far >= *best_cost {
            return;
        }
        *steps += 1;
        if depth == members.len() {
            *best_cost = cost_so_far;
            best.copy_from_slice(current);
            return;
        }
        for mask in 0..3 {
            let extra = conflicts_of(graph, members, index_of, current, depth, mask);
            current[depth] = mask;
            recurse(
                graph,
                members,
                index_of,
                current,
                depth + 1,
                cost_so_far + extra,
                best,
                best_cost,
                steps,
                max_steps,
            );
        }
    }

    recurse(
        graph,
        members,
        &index_of,
        &mut current,
        0,
        0,
        &mut best,
        &mut best_cost,
        &mut steps,
        max_steps,
    );
    for (i, &v) in members.iter().enumerate() {
        masks[v] = Some(Mask::from_index(best[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_color::FeatureKind;
    use tpl_design::{DesignBuilder, LayerId, NetId, Technology};
    use tpl_geom::Rect;

    fn design() -> tpl_design::Design {
        let mut b = DesignBuilder::new(
            "c",
            Technology::ispd_like(2),
            Rect::from_coords(0, 0, 1000, 1000),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(900, 900, 910, 910));
        b.add_net("n", vec![p0, p1]);
        b.build().unwrap()
    }

    fn wire(net: u32, rect: Rect) -> FeatureNode {
        FeatureNode {
            net: NetId::new(net),
            layer: LayerId::new(0),
            rect,
            kind: FeatureKind::Wire,
        }
    }

    fn count_conflicts(graph: &ConflictGraph, masks: &[Option<Mask>]) -> usize {
        let mut c = 0;
        for v in 0..graph.num_nodes() {
            for &u in graph.neighbors(v) {
                if u > v && masks[u].is_some() && masks[u] == masks[v] {
                    c += 1;
                }
            }
        }
        c
    }

    #[test]
    fn three_mutually_conflicting_wires_get_three_masks() {
        let d = design();
        let nodes = vec![
            wire(0, Rect::from_coords(0, 0, 400, 8)),
            wire(1, Rect::from_coords(0, 20, 400, 28)),
            wire(2, Rect::from_coords(0, 40, 400, 48)),
        ];
        let graph = ConflictGraph::build(&d, &nodes);
        let (masks, _) = color_graph(&graph, &nodes, &DecomposeConfig::default());
        assert!(masks.iter().all(|m| m.is_some()));
        assert_eq!(count_conflicts(&graph, &masks), 0);
        let unique: std::collections::HashSet<_> = masks.iter().flatten().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn four_packed_wires_cannot_be_fully_legalised() {
        let d = design();
        // Tracks 0..4 of the same layer, all pairwise within dcolor except
        // the outermost pair: a W4 structure needing 4 colours locally is not
        // present, but the K4 formed by tracks 0-3 with a fifth crossing wire
        // is; simplest guaranteed-infeasible case: 4 wires pairwise within
        // dcolor (tracks 0,1,2 plus one wire overlapping all three spans).
        let nodes = vec![
            wire(0, Rect::from_coords(0, 0, 400, 8)),
            wire(1, Rect::from_coords(0, 20, 400, 28)),
            wire(2, Rect::from_coords(0, 40, 400, 48)),
            // A wrong-way wire crossing right next to the three above.
            wire(3, Rect::from_coords(200, 0, 208, 48)),
        ];
        let graph = ConflictGraph::build(&d, &nodes);
        // Vertex 3 conflicts with all of 0, 1, 2 -> K4.
        assert_eq!(graph.degree(3), 3);
        let (masks, _) = color_graph(&graph, &nodes, &DecomposeConfig::default());
        assert!(masks.iter().all(|m| m.is_some()));
        // A K4 cannot be 3-coloured: exactly one conflict remains.
        assert_eq!(count_conflicts(&graph, &masks), 1);
    }

    #[test]
    fn exact_and_greedy_agree_on_easy_components() {
        let d = design();
        let nodes: Vec<FeatureNode> = (0..6)
            .map(|i| {
                wire(
                    i,
                    Rect::from_coords(0, 20 * i as i64, 400, 20 * i as i64 + 8),
                )
            })
            .collect();
        let graph = ConflictGraph::build(&d, &nodes);
        let exact = color_graph(
            &graph,
            &nodes,
            &DecomposeConfig {
                exact_component_limit: 20,
                ..DecomposeConfig::default()
            },
        );
        let greedy = color_graph(
            &graph,
            &nodes,
            &DecomposeConfig {
                exact_component_limit: 0,
                ..DecomposeConfig::default()
            },
        );
        assert_eq!(count_conflicts(&graph, &exact.0), 0);
        assert_eq!(count_conflicts(&graph, &greedy.0), 0);
    }

    #[test]
    fn sibling_chunks_prefer_the_same_mask() {
        let d = design();
        // Two touching chunks of the same net with no conflicts at all: they
        // must receive the same mask (no gratuitous stitch).
        let nodes = vec![
            wire(0, Rect::from_coords(0, 0, 100, 8)),
            wire(0, Rect::from_coords(100, 0, 200, 8)),
        ];
        let graph = ConflictGraph::build(&d, &nodes);
        let (masks, _) = color_graph(&graph, &nodes, &DecomposeConfig::default());
        assert_eq!(masks[0], masks[1]);
    }
}
