//! Backtrace with verSet / segSet merging (Algorithm 3).

use crate::NetBuffers;
use tpl_color::ColorSetArena;
use tpl_grid::VertexId;

/// Walks predecessors from the reached pin vertex back to the routed tree,
/// building verSets and segSets along the way (Algorithm 3 of the paper).
///
/// * Every path vertex without a verSet gets a fresh verSet (and a fresh
///   segSet) carrying its search-time colour state.
/// * When a vertex and its predecessor share at least one colour, the
///   predecessor joins the vertex's verSet (if it has none) or the two
///   segSets are merged: the current segSet's state is narrowed to the shared
///   colours and the predecessor's verSet is re-pointed to it.
/// * When they share no colour the predecessor keeps (or later creates) its
///   own segSet — that boundary is a stitch.
///
/// Returns the path ordered from the tree/source vertex to the destination.
pub fn backtrace(
    buffers: &mut NetBuffers,
    arena: &mut ColorSetArena,
    dst: VertexId,
) -> Vec<VertexId> {
    let mut path = vec![dst];
    let mut vertex = dst;

    loop {
        // Ensure the current vertex belongs to a verSet.
        if buffers.ver_set(vertex).is_none() {
            let vs = arena.make_ver_set(buffers.state(vertex));
            buffers.set_ver_set(vertex, vs);
        } else {
            arena.add_member(buffers.ver_set(vertex).expect("just checked"));
        }
        let Some(prev) = buffers.prev(vertex) else {
            break;
        };

        let vertex_set = buffers.ver_set(vertex).expect("assigned above");
        let vertex_seg = arena.seg_of(vertex_set);
        let vertex_state = arena.seg_state(vertex_seg);
        // The predecessor's effective state: its committed segSet state if it
        // is already part of the routed tree, otherwise its search state.
        let prev_state = match buffers.ver_set(prev) {
            Some(ps) => arena.seg_state(arena.seg_of(ps)),
            None => buffers.state(prev),
        };

        if vertex_state.shares_color(prev_state) {
            let shared = vertex_state.intersect(prev_state);
            match buffers.ver_set(prev) {
                None => {
                    // The predecessor joins the current verSet; the segSet
                    // state narrows to the colours legal for both, so the
                    // final per-segSet mask is printable on every member
                    // (Definition 3: all verSets of a segSet share a state).
                    buffers.set_ver_set(prev, vertex_set);
                    arena.change_seg_state(vertex_seg, shared);
                }
                Some(prev_set) => {
                    // Merge: narrow the current segSet to the shared colours
                    // and absorb the predecessor's verSet into it.
                    arena.change_seg_state(vertex_seg, shared);
                    arena.set_seg_of(prev_set, vertex_seg);
                }
            }
        }
        // No shared colour: nothing to merge — the predecessor will create or
        // keep its own segSet, and the boundary becomes a stitch.

        path.push(prev);
        vertex = prev;
    }

    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_color::{ColorState, Mask};
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::Rect;
    use tpl_grid::{CostParams, GridGraph};

    /// Builds a tiny artificial "search result" in the buffers: a straight
    /// chain of vertices v0 <- v1 <- ... <- vn with given colour states.
    fn chain(states: &[ColorState]) -> (NetBuffers, Vec<VertexId>) {
        let die = Rect::from_coords(0, 0, 400, 400);
        let design = DesignBuilder::new("chain", Technology::ispd_like(1), die)
            .build()
            .unwrap();
        let grid = GridGraph::build(&design);
        assert!(grid.num_vertices() >= states.len());
        let mut buffers = NetBuffers::new(&grid, &CostParams::default());
        buffers.begin_net();
        buffers.begin_search();
        let vertices: Vec<VertexId> = (0..states.len() as u32).map(VertexId::new).collect();
        for (i, &v) in vertices.iter().enumerate() {
            let prev = if i == 0 { None } else { Some(vertices[i - 1]) };
            buffers.relax(v, i as u64, prev, states[i]);
        }
        (buffers, vertices)
    }

    #[test]
    fn uniform_states_produce_a_single_seg_set() {
        let states = vec![ColorState::all(); 5];
        let (mut buffers, vertices) = chain(&states);
        let mut arena = ColorSetArena::new();
        let path = backtrace(&mut buffers, &mut arena, vertices[4]);
        assert_eq!(path, vertices);
        // Every vertex ends up in the same segSet.
        let seg0 = arena.seg_of(buffers.ver_set(vertices[0]).unwrap());
        for v in &vertices {
            assert_eq!(arena.seg_of(buffers.ver_set(*v).unwrap()), seg0);
        }
        assert_eq!(arena.seg_state(seg0), ColorState::all());
    }

    #[test]
    fn narrowing_states_converge_to_the_intersection() {
        // The destination still allows {red, blue} but the earlier part of
        // the path allows only {blue}: the merged segSet must end up blue.
        let states = vec![
            ColorState::from_mask(Mask::Blue),
            ColorState::from_mask(Mask::Blue),
            ColorState::from_bits(0b101),
            ColorState::from_bits(0b101),
        ];
        let (mut buffers, vertices) = chain(&states);
        let mut arena = ColorSetArena::new();
        backtrace(&mut buffers, &mut arena, vertices[3]);
        let seg = arena.seg_of(buffers.ver_set(vertices[3]).unwrap());
        assert_eq!(arena.seg_state(seg), ColorState::from_mask(Mask::Blue));
    }

    #[test]
    fn disjoint_states_create_a_stitch_boundary() {
        // Green-only followed by red-only: no shared colour, so the path
        // splits into two segSets (one stitch).
        let states = vec![
            ColorState::from_mask(Mask::Green),
            ColorState::from_mask(Mask::Green),
            ColorState::from_mask(Mask::Red),
            ColorState::from_mask(Mask::Red),
        ];
        let (mut buffers, vertices) = chain(&states);
        let mut arena = ColorSetArena::new();
        backtrace(&mut buffers, &mut arena, vertices[3]);
        let seg_head = arena.seg_of(buffers.ver_set(vertices[0]).unwrap());
        let seg_tail = arena.seg_of(buffers.ver_set(vertices[3]).unwrap());
        assert_ne!(seg_head, seg_tail);
        assert_eq!(
            arena.seg_state(seg_head),
            ColorState::from_mask(Mask::Green)
        );
        assert_eq!(arena.seg_state(seg_tail), ColorState::from_mask(Mask::Red));
        // Exactly the two vertices on each side of the boundary disagree.
        assert_eq!(
            arena.seg_of(buffers.ver_set(vertices[1]).unwrap()),
            seg_head
        );
        assert_eq!(
            arena.seg_of(buffers.ver_set(vertices[2]).unwrap()),
            seg_tail
        );
    }

    #[test]
    fn joining_an_existing_tree_reuses_its_seg_set() {
        // Simulate a second path whose source vertex already belongs to a
        // verSet from an earlier path (the routed tree).
        let states = vec![
            ColorState::from_bits(0b110),
            ColorState::all(),
            ColorState::all(),
        ];
        let (mut buffers, vertices) = chain(&states);
        let mut arena = ColorSetArena::new();
        // Pretend vertex 0 is already on the tree with a committed verSet
        // whose segSet state is {red, green}.
        let existing = arena.make_ver_set(ColorState::from_bits(0b110));
        buffers.set_ver_set(vertices[0], existing);
        backtrace(&mut buffers, &mut arena, vertices[2]);
        // All three vertices are now in the same segSet, narrowed to the
        // shared colours {red, green}.
        let seg = arena.seg_of(buffers.ver_set(vertices[2]).unwrap());
        assert_eq!(arena.seg_of(existing), seg);
        assert_eq!(arena.seg_state(seg), ColorState::from_bits(0b110));
    }

    #[test]
    fn single_vertex_path_is_handled() {
        let states = vec![ColorState::all()];
        let (mut buffers, vertices) = chain(&states);
        let mut arena = ColorSetArena::new();
        let path = backtrace(&mut buffers, &mut arena, vertices[0]);
        assert_eq!(path, vertices);
        assert!(buffers.ver_set(vertices[0]).is_some());
    }
}
