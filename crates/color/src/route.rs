//! The colour routers' one rule from a net's paths to its wires and pins.

use crate::{ColorMap, Mask};
use std::collections::HashMap;
use tpl_design::{Design, NetId};
use tpl_grid::{emit_wires, GridGraph, NetRoute, PinCoverage, VertexId};

/// A path of grid vertices and, parallel to it, the mask of each.
pub type ColoredPath = (Vec<VertexId>, Vec<Option<Mask>>);

/// The coloured wires and pins of `net` routed along `paths` (only
/// `routed`, `labels` and `pins` are filled); Mr.TPL and DAC'12 both colour
/// by it.  The wires are each path's [`emit_wires`], in path order.  A pin
/// inherits the mask of its first covered vertex ([`PinCoverage::vertices`]
/// order) that a path colours, at the vertex's first coloured appearance in
/// path order; failing that, the mask of the coloured path vertex nearest
/// its bounding box (the first of equals in path order).  The pin's mask is
/// the inherited one through [`ColorMap::pin_mask`].
pub fn color_route(
    grid: &GridGraph,
    design: &Design,
    coverage: &PinCoverage,
    map: &ColorMap,
    net: NetId,
    paths: &[ColoredPath],
) -> NetRoute<Option<Mask>> {
    let mut out = NetRoute::default();
    for (path, masks) in paths {
        emit_wires(grid, path, |i| masks[i], &mut out.routed, &mut out.labels);
    }

    let colored = || {
        paths
            .iter()
            .flat_map(|(path, masks)| path.iter().zip(masks))
            .filter_map(|(v, mask)| Some((*v, (*mask)?)))
    };
    // The first coloured appearance of every covered path vertex.
    let mut first: HashMap<VertexId, Mask> = HashMap::new();
    for (v, mask) in colored().filter(|(v, _)| coverage.pin_at(*v).is_some()) {
        first.entry(v).or_insert(mask);
    }
    for &pin in design.net(net).pins() {
        let wire = coverage
            .vertices(pin)
            .iter()
            .find_map(|v| first.get(v).copied())
            .or_else(|| {
                let bbox = design.pin(pin).bbox()?;
                colored()
                    .min_by_key(|(v, _)| bbox.spacing_to_point(&grid.point_of(*v)))
                    .map(|(_, mask)| mask)
            });
        let mask = wire.map(|wire| map.pin_mask(net, design.pin(pin).shapes(), wire));
        out.pins.push((pin, mask));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Feature;
    use tpl_design::{DesignBuilder, LayerId, PinId, Technology};
    use tpl_geom::{Point, Rect};

    /// The point of track `(ix, iy)` on a grid of `Technology::ispd_like`
    /// (pitch 20, offset 10).
    fn track(ix: i64, iy: i64) -> Point {
        Point::new(10 + 20 * ix, 10 + 20 * iy)
    }

    /// One layer, 20 × 10 tracks, one net of two pins.  `wide` spans tracks
    /// (4, 4) to (6, 4) and covers them.  `far` is an 8 × 8 box off the grid
    /// in column 15, between rows 4 and 5: it covers (15, 4), 10 below it,
    /// and then (15, 5), 2 above it.
    struct Fixture {
        design: Design,
        grid: GridGraph,
        coverage: PinCoverage,
        map: ColorMap,
        wide: PinId,
        far: PinId,
    }

    fn fixture() -> Fixture {
        let mut b = DesignBuilder::new(
            "route",
            Technology::ispd_like(1),
            Rect::from_coords(0, 0, 400, 200),
        );
        let (lo, hi) = (track(4, 4), track(6, 4));
        let wide = b.add_pin_shape("wide", 0, Rect::from_coords(lo.x, lo.y, hi.x, hi.y));
        let f = track(15, 4);
        let far = b.add_pin_shape(
            "far",
            0,
            Rect::from_coords(f.x - 4, f.y + 10, f.x + 4, f.y + 18),
        );
        b.add_net("n", vec![wide, far]);
        let design = b.build().unwrap();
        let grid = GridGraph::build(&design);
        Fixture {
            coverage: PinCoverage::build(&grid, &design),
            map: ColorMap::new(&grid, design.tech().dcolor()),
            grid,
            design,
            wide,
            far,
        }
    }

    impl Fixture {
        fn v(&self, ix: usize, iy: usize) -> VertexId {
            self.grid.vertex(0, ix, iy)
        }

        /// The vertices of track row `iy` from column `x0` to `x1`, inclusive.
        fn row(&self, iy: usize, x0: usize, x1: usize) -> Vec<VertexId> {
            if x0 <= x1 {
                (x0..=x1).map(|ix| self.v(ix, iy)).collect()
            } else {
                (x1..=x0).rev().map(|ix| self.v(ix, iy)).collect()
            }
        }

        fn route(&self, paths: &[ColoredPath]) -> NetRoute<Option<Mask>> {
            let (grid, design, coverage) = (&self.grid, &self.design, &self.coverage);
            color_route(grid, design, coverage, &self.map, NetId::new(0), paths)
        }

        fn pin_mask(&self, paths: &[ColoredPath], pin: PinId) -> Option<Mask> {
            let pins = self.route(paths).pins;
            pins.iter().find(|(p, _)| *p == pin).expect("every pin").1
        }
    }

    fn uniform(path: Vec<VertexId>, mask: Option<Mask>) -> ColoredPath {
        let masks = vec![mask; path.len()];
        (path, masks)
    }

    #[test]
    fn wires_are_emitted_path_by_path_with_their_masks() {
        let f = fixture();
        let paths = [
            uniform(f.row(4, 6, 15), Some(Mask::Green)),
            uniform(f.row(2, 0, 3), Some(Mask::Blue)),
        ];
        let route = f.route(&paths);
        assert_eq!(route.routed.segments.len(), 2);
        assert_eq!(route.routed.wirelength(), (9 + 3) * 20);
        assert_eq!(route.labels, [Some(Mask::Green), Some(Mask::Blue)]);
        assert_eq!(route.pins.len(), 2);
    }

    #[test]
    fn the_first_colored_coverage_vertex_wins_over_a_nearer_segment() {
        let f = fixture();
        assert_eq!(f.coverage.vertices(f.far), [f.v(15, 4), f.v(15, 5)]);
        // A blue wire along row 5 ends on (15, 5); its segment overlaps
        // `far`.  A red stub comes up column 15 to (15, 4); its segment stays
        // 6 below `far`.  The red vertex comes first in coverage order.
        let paths = [
            uniform(f.row(5, 10, 15), Some(Mask::Blue)),
            uniform(vec![f.v(15, 2), f.v(15, 3), f.v(15, 4)], Some(Mask::Red)),
        ];
        let route = f.route(&paths);
        let far_box = f.design.pin(f.far).bbox().unwrap();
        let spacing: Vec<_> = route
            .routed
            .segments
            .iter()
            .map(|s| far_box.spacing_to(&s.rect()))
            .collect();
        assert_eq!(spacing, [0, 6]);
        assert_eq!(f.pin_mask(&paths, f.far), Some(Mask::Red));
    }

    #[test]
    fn a_vertex_on_two_paths_inherits_its_first_appearance() {
        let f = fixture();
        let v = f.v(4, 4);
        let down = vec![f.v(4, 6), f.v(4, 5), v];
        let up = vec![v, f.v(4, 3), f.v(4, 2)];
        for (a, b) in [(Mask::Green, Mask::Blue), (Mask::Blue, Mask::Green)] {
            let paths = [uniform(down.clone(), Some(a)), uniform(up.clone(), Some(b))];
            assert_eq!(f.pin_mask(&paths, f.wide), Some(a));
        }
        // Within one path too: the vertex's first coloured position wins.
        let there_and_back = [(
            vec![v, f.v(4, 3), v],
            vec![None, Some(Mask::Blue), Some(Mask::Green)],
        )];
        assert_eq!(f.pin_mask(&there_and_back, f.wide), Some(Mask::Green));
    }

    #[test]
    fn a_pin_no_path_covers_inherits_the_nearest_colored_path_vertex() {
        let f = fixture();
        // No path touches a covered vertex.  Row 6 passes 40 above `wide`
        // (tracks 8 to 2, blue) and 22 above `far` (tracks 12 to 17, green);
        // row 1 passes 60 below `wide`, and row 7 is uncoloured.
        let paths = [
            uniform(f.row(1, 0, 8), Some(Mask::Red)),
            uniform(f.row(7, 0, 19), None),
            uniform(f.row(6, 8, 2), Some(Mask::Blue)),
            uniform(f.row(6, 12, 17), Some(Mask::Green)),
        ];
        assert_eq!(f.pin_mask(&paths, f.wide), Some(Mask::Blue));
        assert_eq!(f.pin_mask(&paths, f.far), Some(Mask::Green));
        // Equally near: the first in path order wins.
        let tie = [
            uniform(f.row(6, 3, 7), Some(Mask::Green)),
            uniform(f.row(2, 3, 7), Some(Mask::Red)),
        ];
        assert_eq!(f.pin_mask(&tie, f.wide), Some(Mask::Green));
    }

    #[test]
    fn uncolored_paths_leave_every_pin_without_a_mask() {
        let f = fixture();
        for paths in [vec![], vec![uniform(f.row(4, 4, 15), None)]] {
            assert_eq!(f.route(&paths).pins, [(f.wide, None), (f.far, None)]);
        }
    }

    #[test]
    fn the_inherited_mask_goes_through_the_pin_mask_rule() {
        let mut f = fixture();
        // Another net's red wire right above `wide` presses red there.
        let p = track(5, 5);
        f.map.insert(Feature::wire(
            NetId::new(1),
            LayerId::new(0),
            Rect::from_coords(p.x - 2, p.y - 2, p.x + 2, p.y + 2),
            Some(Mask::Red),
        ));
        let paths = [uniform(f.row(4, 4, 15), Some(Mask::Red))];
        assert_eq!(f.pin_mask(&paths, f.wide), Some(Mask::Green));
        assert_eq!(f.pin_mask(&paths, f.far), Some(Mask::Red));
    }
}
