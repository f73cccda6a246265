//! Converting vertex paths into routed geometry.

use crate::{GridGraph, VertexId};
use tpl_design::{LayerId, RouteSegment, RoutedNet, ViaInstance};
use tpl_geom::Segment;

/// Converts a path of grid-adjacent vertices into wire segments and vias,
/// with one label per segment: the routers' one path emitter.
///
/// `label(i)` labels `path[i]`: its mask for the colour-aware routers, `()`
/// for the colour-blind one.  A segment is a maximal straight run of equally
/// labelled vertices on one layer.  A run ends at a via, at a bend and where
/// the label changes; at a bend or a label change the next run starts at the
/// run's last vertex, so the wire stays continuous.  Each segment's label,
/// the label of its vertices after the first, is pushed onto `labels`.  The
/// geometry is appended to `out`, so a multi-pin net routed as several
/// pin-to-tree paths accumulates into one [`RoutedNet`].
///
/// # Panics
///
/// Panics if two consecutive vertices are not grid neighbours.
pub fn emit_wires<L: Copy + PartialEq>(
    grid: &GridGraph,
    path: &[VertexId],
    label: impl Fn(usize) -> L,
    out: &mut RoutedNet,
    labels: &mut Vec<L>,
) {
    if path.len() < 2 {
        return;
    }
    let mut flush = |start: VertexId, end: VertexId, run_label: L| {
        if start == end {
            return;
        }
        let layer = grid.layer_of(start);
        out.segments.push(RouteSegment::new(
            layer,
            Segment::new(grid.point_of(start), grid.point_of(end)),
            grid.wire_width(layer),
        ));
        labels.push(run_label);
    };
    let mut run_start = path[0];
    let mut run_label = label(0);
    for i in 1..path.len() {
        let (prev, curr) = (path[i - 1], path[i]);
        let (pl, px, py) = grid.coords(prev);
        let (cl, cx, cy) = grid.coords(curr);
        let planar = pl == cl && px.abs_diff(cx) + py.abs_diff(cy) == 1;
        let via = px == cx && py == cy && pl.abs_diff(cl) == 1;
        assert!(
            planar || via,
            "path vertices {prev} and {curr} are not adjacent"
        );
        if via {
            flush(run_start, prev, run_label);
            out.vias.push(ViaInstance::new(
                LayerId::from(pl.min(cl)),
                grid.point_of(prev),
            ));
            run_start = curr;
            run_label = label(i);
            continue;
        }
        let (_, sx, sy) = grid.coords(run_start);
        let straight = (sx == px && px == cx) || (sy == py && py == cy);
        let curr_label = label(i);
        if !straight || curr_label != run_label {
            flush(run_start, prev, run_label);
            run_start = prev;
            run_label = curr_label;
        }
    }
    flush(run_start, path[path.len() - 1], run_label);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::{Point, Rect};

    /// Emits `path` with a unit label, checking one label per segment.
    fn emit(g: &GridGraph, path: &[VertexId], rn: &mut RoutedNet) {
        let mut labels = Vec::new();
        emit_wires(g, path, |_| (), rn, &mut labels);
        assert_eq!(labels.len(), rn.segments.len());
    }

    fn grid() -> GridGraph {
        let mut b = DesignBuilder::new(
            "g",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 300, 300),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(200, 200, 210, 210));
        b.add_net("n", vec![p0, p1]);
        GridGraph::build(&b.build().unwrap())
    }

    #[test]
    fn straight_run_becomes_one_segment() {
        let g = grid();
        let path: Vec<VertexId> = (0..5).map(|i| g.vertex(0, i, 3)).collect();
        let mut rn = RoutedNet::new();
        emit(&g, &path, &mut rn);
        assert_eq!(rn.segments.len(), 1);
        assert_eq!(rn.vias.len(), 0);
        assert_eq!(
            rn.segments[0].seg,
            Segment::new(Point::new(10, 70), Point::new(90, 70))
        );
        assert_eq!(rn.wirelength(), 80);
    }

    #[test]
    fn corner_splits_into_two_segments() {
        let g = grid();
        let mut path: Vec<VertexId> = (0..4).map(|i| g.vertex(0, i, 0)).collect();
        path.extend((1..3).map(|j| g.vertex(0, 3, j)));
        let mut rn = RoutedNet::new();
        emit(&g, &path, &mut rn);
        assert_eq!(rn.segments.len(), 2);
        assert_eq!(rn.wirelength(), 3 * 20 + 2 * 20);
    }

    #[test]
    fn via_steps_produce_via_instances() {
        let g = grid();
        let path = vec![
            g.vertex(0, 2, 2),
            g.vertex(0, 3, 2),
            g.vertex(1, 3, 2),
            g.vertex(1, 3, 3),
            g.vertex(1, 3, 4),
        ];
        let mut rn = RoutedNet::new();
        emit(&g, &path, &mut rn);
        assert_eq!(rn.vias.len(), 1);
        assert_eq!(rn.vias[0].lower_layer.index(), 0);
        assert_eq!(rn.segments.len(), 2);
        assert_eq!(rn.wirelength(), 20 + 40);
    }

    #[test]
    fn single_vertex_or_empty_paths_produce_nothing() {
        let g = grid();
        let mut rn = RoutedNet::new();
        emit(&g, &[], &mut rn);
        emit(&g, &[g.vertex(0, 0, 0)], &mut rn);
        assert!(rn.is_empty());
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn non_adjacent_vertices_panic() {
        let g = grid();
        let mut rn = RoutedNet::new();
        emit(&g, &[g.vertex(0, 0, 0), g.vertex(0, 5, 5)], &mut rn);
    }

    #[test]
    fn consecutive_vias_are_both_emitted() {
        let g = grid();
        let path = vec![g.vertex(0, 1, 1), g.vertex(1, 1, 1), g.vertex(2, 1, 1)];
        let mut rn = RoutedNet::new();
        emit(&g, &path, &mut rn);
        assert_eq!(rn.vias.len(), 2);
        assert!(rn.segments.is_empty());
    }

    #[test]
    fn a_label_change_splits_the_wire_and_keeps_it_continuous() {
        let g = grid();
        // A straight run whose first four vertices are labelled 'a' and the
        // rest 'b': two segments sharing the boundary vertex (3, 0).
        let path: Vec<VertexId> = (0..9).map(|i| g.vertex(0, i, 0)).collect();
        let (mut rn, mut labels) = (RoutedNet::new(), Vec::new());
        emit_wires(
            &g,
            &path,
            |i| if i < 4 { 'a' } else { 'b' },
            &mut rn,
            &mut labels,
        );
        assert_eq!(labels, ['a', 'b']);
        assert_eq!(
            rn.segments.iter().map(|s| s.seg).collect::<Vec<_>>(),
            [
                Segment::new(Point::new(10, 10), Point::new(70, 10)),
                Segment::new(Point::new(70, 10), Point::new(170, 10)),
            ]
        );
        assert_eq!(rn.wirelength(), 8 * 20);
        assert!(rn.segments[0].rect().intersects(&rn.segments[1].rect()));
    }

    #[test]
    fn none_is_a_label_like_any_other() {
        let g = grid();
        // An L whose corner run carries no label: the bend and both label
        // changes split, and the unlabelled run keeps its `None`.
        let mut path: Vec<VertexId> = (0..4).map(|i| g.vertex(0, i, 0)).collect();
        path.extend((1..3).map(|j| g.vertex(0, 3, j)));
        let label = |i: usize| match i {
            0..=1 => Some(1),
            2..=3 => None,
            _ => Some(2),
        };
        let (mut rn, mut labels) = (RoutedNet::new(), Vec::new());
        emit_wires(&g, &path, label, &mut rn, &mut labels);
        assert_eq!(labels, [Some(1), None, Some(2)]);
        assert_eq!(rn.segments.len(), 3);
        assert_eq!(rn.wirelength(), 3 * 20 + 2 * 20);

        // Through a via the label restarts at the vertex above.
        let path = [
            g.vertex(0, 1, 1),
            g.vertex(0, 2, 1),
            g.vertex(1, 2, 1),
            g.vertex(1, 2, 2),
        ];
        let (mut rn, mut labels) = (RoutedNet::new(), Vec::new());
        emit_wires(&g, &path, |i| (i >= 2).then_some(7), &mut rn, &mut labels);
        assert_eq!(labels, [None, Some(7)]);
        assert_eq!(rn.vias.len(), 1);
    }
}
