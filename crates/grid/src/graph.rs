//! The immutable routing grid graph.

use tpl_design::{Design, LayerId};
use tpl_geom::{Axis, Dbu, Dir, Point, Rect};

/// Dense identifier of a grid vertex.
///
/// Vertices are numbered layer-major, then row-major
/// (`id = layer * nx * ny + iy * nx + ix`), so a `Vec` indexed by
/// [`VertexId::index`] is the natural per-vertex storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Creates a vertex id from its raw value.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw value as a dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The uniform 3-D routing grid built from a design.
///
/// Every layer shares the same x/y track sets (the canonical technology has a
/// single pitch), so a vertex exists at each track crossing of each layer and
/// vias connect vertically aligned vertices of adjacent layers.
#[derive(Clone, Debug)]
pub struct GridGraph {
    num_layers: usize,
    nx: usize,
    ny: usize,
    pitch: Dbu,
    x0: Dbu,
    y0: Dbu,
    die: Rect,
    layer_axes: Vec<Axis>,
    wire_widths: Vec<Dbu>,
}

impl GridGraph {
    /// Builds the grid for a design.
    ///
    /// # Panics
    ///
    /// Panics if the die is too small to hold a single track in either axis.
    pub fn build(design: &Design) -> Self {
        let tech = design.tech();
        let die = design.die();
        let pitch = tech.layers()[0].pitch;
        let offset = tech.layers()[0].offset;
        let x0 = die.lo.x + offset;
        let y0 = die.lo.y + offset;
        let nx = ((die.hi.x - x0) / pitch + 1).max(0) as usize;
        let ny = ((die.hi.y - y0) / pitch + 1).max(0) as usize;
        assert!(nx > 0 && ny > 0, "die {die} holds no tracks");
        GridGraph {
            num_layers: tech.num_layers(),
            nx,
            ny,
            pitch,
            x0,
            y0,
            die,
            layer_axes: tech.layers().iter().map(|l| l.axis).collect(),
            wire_widths: tech.layers().iter().map(|l| l.width).collect(),
        }
    }

    /// Number of layers.
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Number of x track positions (vertical track lines).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of y track positions (horizontal track lines).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_layers * self.nx * self.ny
    }

    /// The track pitch.
    #[inline]
    pub fn pitch(&self) -> Dbu {
        self.pitch
    }

    /// The die the grid covers.
    #[inline]
    pub fn die(&self) -> Rect {
        self.die
    }

    /// The preferred axis of a layer.
    #[inline]
    pub fn layer_axis(&self, layer: LayerId) -> Axis {
        self.layer_axes[layer.index()]
    }

    /// The default wire width of a layer.
    #[inline]
    pub fn wire_width(&self, layer: LayerId) -> Dbu {
        self.wire_widths[layer.index()]
    }

    /// Builds a vertex id from its grid coordinates.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the coordinates are out of range.
    #[inline]
    pub fn vertex(&self, layer: usize, ix: usize, iy: usize) -> VertexId {
        debug_assert!(layer < self.num_layers && ix < self.nx && iy < self.ny);
        VertexId::new((layer * self.nx * self.ny + iy * self.nx + ix) as u32)
    }

    /// Decomposes a vertex id into `(layer, ix, iy)`.
    #[inline]
    pub fn coords(&self, v: VertexId) -> (usize, usize, usize) {
        let per_layer = self.nx * self.ny;
        let layer = v.index() / per_layer;
        let rem = v.index() % per_layer;
        (layer, rem % self.nx, rem / self.nx)
    }

    /// The layer of a vertex.
    #[inline]
    pub fn layer_of(&self, v: VertexId) -> LayerId {
        LayerId::from(self.coords(v).0)
    }

    /// The physical location of a vertex.
    #[inline]
    pub fn point_of(&self, v: VertexId) -> Point {
        let (_, ix, iy) = self.coords(v);
        Point::new(
            self.x0 + ix as Dbu * self.pitch,
            self.y0 + iy as Dbu * self.pitch,
        )
    }

    /// The x coordinate of track `ix`.
    #[inline]
    pub fn x_of(&self, ix: usize) -> Dbu {
        self.x0 + ix as Dbu * self.pitch
    }

    /// The y coordinate of track `iy`.
    #[inline]
    pub fn y_of(&self, iy: usize) -> Dbu {
        self.y0 + iy as Dbu * self.pitch
    }

    /// The nearest track index to coordinate `x` (clamped to the grid).
    #[inline]
    pub fn ix_near(&self, x: Dbu) -> usize {
        let raw = (x - self.x0 + self.pitch / 2).div_euclid(self.pitch);
        raw.clamp(0, self.nx as Dbu - 1) as usize
    }

    /// The nearest track index to coordinate `y` (clamped to the grid).
    #[inline]
    pub fn iy_near(&self, y: Dbu) -> usize {
        let raw = (y - self.y0 + self.pitch / 2).div_euclid(self.pitch);
        raw.clamp(0, self.ny as Dbu - 1) as usize
    }

    /// The neighbouring vertex in direction `dir`, if it exists.
    #[inline]
    pub fn neighbor(&self, v: VertexId, dir: Dir) -> Option<VertexId> {
        let (layer, ix, iy) = self.coords(v);
        match dir {
            Dir::East => (ix + 1 < self.nx).then(|| self.vertex(layer, ix + 1, iy)),
            Dir::West => (ix > 0).then(|| self.vertex(layer, ix - 1, iy)),
            Dir::North => (iy + 1 < self.ny).then(|| self.vertex(layer, ix, iy + 1)),
            Dir::South => (iy > 0).then(|| self.vertex(layer, ix, iy - 1)),
            Dir::Up => (layer + 1 < self.num_layers).then(|| self.vertex(layer + 1, ix, iy)),
            Dir::Down => (layer > 0).then(|| self.vertex(layer - 1, ix, iy)),
        }
    }

    /// The neighbour of `v` in each direction of [`Dir::ALL`], in that
    /// order, given `v`'s [`coords`](Self::coords): ids differ by ±1, ±nx
    /// and ±nx·ny, so no neighbour is decoded again.
    #[inline]
    pub fn neighbors_at(
        &self,
        v: VertexId,
        (layer, ix, iy): (usize, usize, usize),
    ) -> [Option<VertexId>; 6] {
        let (row, plane) = (self.nx as u32, (self.nx * self.ny) as u32);
        let id = v.0;
        [
            (ix + 1 < self.nx).then(|| VertexId(id + 1)),
            (ix > 0).then(|| VertexId(id - 1)),
            (iy + 1 < self.ny).then(|| VertexId(id + row)),
            (iy > 0).then(|| VertexId(id - row)),
            (layer + 1 < self.num_layers).then(|| VertexId(id + plane)),
            (layer > 0).then(|| VertexId(id - plane)),
        ]
    }

    /// Iterates over all `(dir, neighbor)` pairs of a vertex, in
    /// [`Dir::ALL`] order.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (Dir, VertexId)> {
        let around = self.neighbors_at(v, self.coords(v));
        Dir::ALL
            .into_iter()
            .zip(around)
            .filter_map(|(d, n)| n.map(|n| (d, n)))
    }

    /// All vertices (on every layer present in `layers`) whose point lies
    /// within `rect` expanded by half a pitch.
    pub fn vertices_in_rect(&self, layer: LayerId, rect: &Rect) -> Vec<VertexId> {
        let halo = self.pitch / 2;
        let r = rect.expanded(halo);
        let ix_lo = self.ix_near(r.lo.x);
        let ix_hi = self.ix_near(r.hi.x);
        let iy_lo = self.iy_near(r.lo.y);
        let iy_hi = self.iy_near(r.hi.y);
        let mut out = Vec::new();
        for iy in iy_lo..=iy_hi {
            for ix in ix_lo..=ix_hi {
                let p = Point::new(self.x_of(ix), self.y_of(iy));
                if r.contains(&p) {
                    out.push(self.vertex(layer.index(), ix, iy));
                }
            }
        }
        out
    }

    /// Iterates over every vertex id.
    pub fn iter_vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};

    fn grid() -> GridGraph {
        let mut b = DesignBuilder::new(
            "g",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 200, 200),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(150, 150, 160, 160));
        b.add_net("n", vec![p0, p1]);
        GridGraph::build(&b.build().unwrap())
    }

    #[test]
    fn grid_dimensions_follow_die_and_pitch() {
        let g = grid();
        // Die 200 wide, offset 10, pitch 20 -> tracks at 10,30,...,190 = 10.
        assert_eq!(g.nx(), 10);
        assert_eq!(g.ny(), 10);
        assert_eq!(g.num_layers(), 3);
        assert_eq!(g.num_vertices(), 300);
    }

    #[test]
    fn vertex_roundtrip_and_point() {
        let g = grid();
        let v = g.vertex(2, 3, 4);
        assert_eq!(g.coords(v), (2, 3, 4));
        assert_eq!(g.layer_of(v), LayerId::new(2));
        assert_eq!(g.point_of(v), Point::new(10 + 3 * 20, 10 + 4 * 20));
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let g = grid();
        let corner = g.vertex(0, 0, 0);
        let dirs: Vec<Dir> = g.neighbors(corner).map(|(d, _)| d).collect();
        assert!(dirs.contains(&Dir::East));
        assert!(dirs.contains(&Dir::North));
        assert!(dirs.contains(&Dir::Up));
        assert!(!dirs.contains(&Dir::West));
        assert!(!dirs.contains(&Dir::South));
        assert!(!dirs.contains(&Dir::Down));

        let top = g.vertex(2, 9, 9);
        let dirs: Vec<Dir> = g.neighbors(top).map(|(d, _)| d).collect();
        assert!(!dirs.contains(&Dir::Up));
        assert!(!dirs.contains(&Dir::East));
        assert!(!dirs.contains(&Dir::North));
    }

    #[test]
    fn neighbor_ids_match_the_per_direction_lookup() {
        let g = grid();
        for v in g.iter_vertices() {
            let around = g.neighbors_at(v, g.coords(v));
            for (d, n) in Dir::ALL.into_iter().zip(around) {
                assert_eq!(n, g.neighbor(v, d), "{v} {d:?}");
            }
        }
    }

    #[test]
    fn neighbor_is_inverse_of_opposite() {
        let g = grid();
        for v in [g.vertex(1, 5, 5), g.vertex(0, 0, 9), g.vertex(2, 9, 0)] {
            for (d, n) in g.neighbors(v) {
                assert_eq!(g.neighbor(n, d.opposite()), Some(v));
            }
        }
    }

    #[test]
    fn nearest_track_lookup_clamps() {
        let g = grid();
        assert_eq!(g.ix_near(-100), 0);
        assert_eq!(g.ix_near(10), 0);
        assert_eq!(g.ix_near(29), 1);
        assert_eq!(g.ix_near(10_000), g.nx() - 1);
    }

    #[test]
    fn vertices_in_rect_cover_pin_shapes() {
        let g = grid();
        // Pin at (0,0)-(10,10) covers the track crossing at (10,10).
        let vs = g.vertices_in_rect(LayerId::new(0), &Rect::from_coords(0, 0, 10, 10));
        assert!(vs.contains(&g.vertex(0, 0, 0)));
        // A large rect covers many vertices.
        let vs = g.vertices_in_rect(LayerId::new(1), &Rect::from_coords(0, 0, 60, 60));
        assert!(vs.len() >= 9);
    }
}
