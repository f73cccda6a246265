//! The immutable routing grid graph.

use std::ops::Range;
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

/// Division by a fixed `u32` through a 64-bit reciprocal: one multiply for
/// the quotient, one for the remainder.
///
/// With `c = ⌈2⁶⁴ / d⌉` and `n = q·d + r`, `c·n / 2⁶⁴ = q + (r + e·n / 2⁶⁴)
/// / d`, where `e = c·d − 2⁶⁴ < d`.  As `e·n < 2³²·2³² = 2⁶⁴`, the bracket
/// stays below `d`, so the high word of `c·n` is exactly `q` for every `u32`
/// `n` and `d`.  `c` is kept as `⌈2⁶⁴ / d⌉ − 1`, which fits a `u64` even
/// for `d = 1`.
#[derive(Clone, Copy, Debug)]
struct Divisor {
    d: u32,
    /// `⌈2⁶⁴ / d⌉ − 1`, that is `⌊(2⁶⁴ − 1) / d⌋`.
    c_minus_1: u64,
}

impl Divisor {
    /// The reciprocal of `d`, which must be positive.
    fn new(d: usize) -> Self {
        let d = u32::try_from(d).expect("a grid dimension fits a u32");
        assert!(d > 0, "division by zero");
        Self {
            d,
            c_minus_1: u64::MAX / u64::from(d),
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    fn div_rem(self, n: u32) -> (u32, u32) {
        let n64 = u128::from(n);
        let q = ((u128::from(self.c_minus_1) * n64 + n64) >> 64) as u32;
        (q, n - q * self.d)
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
    /// Division by `nx·ny` and by `nx`, for [`coords`](Self::coords).
    per_layer: Divisor,
    per_row: Divisor,
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
            per_layer: Divisor::new(nx * ny),
            per_row: Divisor::new(nx),
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

    /// Decomposes a vertex id into `(layer, ix, iy)`, dividing by
    /// reciprocals computed when the grid was built.
    #[inline]
    pub fn coords(&self, v: VertexId) -> (usize, usize, usize) {
        let (layer, rem) = self.per_layer.div_rem(v.0);
        let (iy, ix) = self.per_row.div_rem(rem);
        (layer as usize, ix as usize, iy as usize)
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

    /// The track ranges `(ix, iy)` whose crossings lie within `rect`
    /// expanded by half a pitch (either range may be empty).
    pub fn tracks_in_rect(&self, rect: &Rect) -> (Range<usize>, Range<usize>) {
        let r = rect.expanded(self.pitch / 2);
        let span = |lo: usize, hi: usize, at: &dyn Fn(usize) -> Dbu, min: Dbu, max: Dbu| {
            // `ix_near`/`iy_near` round, so at most the end tracks fall
            // outside; the tracks inside are contiguous.
            let mut start = lo;
            while start <= hi && at(start) < min {
                start += 1;
            }
            let mut end = hi + 1;
            while end > start && at(end - 1) > max {
                end -= 1;
            }
            start..end.max(start)
        };
        let xs = span(
            self.ix_near(r.lo.x),
            self.ix_near(r.hi.x),
            &|ix| self.x_of(ix),
            r.lo.x,
            r.hi.x,
        );
        let ys = span(
            self.iy_near(r.lo.y),
            self.iy_near(r.hi.y),
            &|iy| self.y_of(iy),
            r.lo.y,
            r.hi.y,
        );
        (xs, ys)
    }

    /// All vertices on `layer` whose point lies within `rect` expanded by
    /// half a pitch, row by row.
    pub fn vertices_in_rect(&self, layer: LayerId, rect: &Rect) -> Vec<VertexId> {
        let (xs, ys) = self.tracks_in_rect(rect);
        let mut out = Vec::with_capacity(xs.len() * ys.len());
        for iy in ys {
            for ix in xs.clone() {
                out.push(self.vertex(layer.index(), ix, iy));
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
    use proptest::prelude::*;
    use tpl_design::{DesignBuilder, Technology};

    /// A grid of `num_layers × nx × ny` vertices, built without a design:
    /// [`GridGraph::coords`] and [`GridGraph::vertex`] read only its size.
    fn sized(num_layers: usize, nx: usize, ny: usize) -> GridGraph {
        GridGraph {
            num_layers,
            nx,
            ny,
            pitch: 1,
            x0: 0,
            y0: 0,
            die: Rect::from_coords(0, 0, 1, 1),
            layer_axes: Vec::new(),
            wire_widths: Vec::new(),
            per_layer: Divisor::new(nx * ny),
            per_row: Divisor::new(nx),
        }
    }

    /// Asserts that `d` divides `n` as `/` and `%` do.
    fn assert_divides(d: u32, n: u32) {
        let got = Divisor::new(d as usize).div_rem(n);
        assert_eq!(got, (n / d, n % d), "{n} / {d}");
    }

    #[test]
    fn the_reciprocal_divides_exactly_at_the_edges_of_u32() {
        for d in [
            1,
            2,
            3,
            7,
            1 << 16,
            (1 << 16) + 1,
            1 << 31,
            u32::MAX - 1,
            u32::MAX,
        ] {
            for n in [0, 1, d - 1, d, d.saturating_add(1), u32::MAX - 1, u32::MAX] {
                assert_divides(d, n);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn coords_decode_as_division_does_on_random_grids(
            shape in 0u64..5,
            layers in 1u64..=16,
            a in any::<u32>(),
            b in any::<u32>(),
            picks in collection::vec(any::<u32>(), 16),
        ) {
            let (l, a, b) = (layers, u64::from(a), u64::from(b));
            let max = u64::from(u32::MAX);
            // One layer, `nx = 1` and `ny = 1` up to the largest id, small
            // grids, and grids whose vertex count is near `u32::MAX`.
            let (l, nx, ny) = match shape {
                0 => (l, 1 + a % 300, 1 + b % 300),
                1 => (l, 1, 1 + b % (max / l)),
                2 => (l, 1 + a % (max / l), 1),
                3 => (1, 1 + a % 65_536, 1 + b % 65_536),
                _ => {
                    let nx = 1 + a % 65_536.min(max / l);
                    (l, nx, max / (l * nx))
                }
            };
            let n = l * nx * ny;
            prop_assert!(n <= max);
            let grid = sized(l as usize, nx as usize, ny as usize);
            let plane = nx * ny;
            let mut ids = vec![0, n - 1];
            for &p in &picks {
                let id = u64::from(p) % n;
                // Each side of a row's and a layer's first id.
                for start in [id / nx * nx, id / plane * plane] {
                    ids.extend([start, start.saturating_sub(1), id]);
                }
                assert_divides(nx as u32, p);
                assert_divides(plane as u32, p);
                assert_divides(1 + (a as u32) % u32::MAX, p);
            }
            for id in ids {
                let want = (id / plane, id % plane % nx, id % plane / nx);
                let (layer, ix, iy) = grid.coords(VertexId::new(id as u32));
                prop_assert_eq!((layer as u64, ix as u64, iy as u64), want);
                prop_assert_eq!(grid.vertex(layer, ix, iy), VertexId::new(id as u32));
            }
        }
    }

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

    #[test]
    fn vertices_in_rect_is_the_brute_force_scan_in_row_order() {
        let g = grid();
        let layer = LayerId::new(1);
        for (x0, y0, w, h) in [
            (0, 0, 10, 10),
            (-30, 15, 70, 3),
            (33, 47, 1, 1),
            (190, 190, 40, 40),
        ] {
            let rect = Rect::from_coords(x0, y0, x0 + w, y0 + h);
            let r = rect.expanded(g.pitch() / 2);
            let want: Vec<VertexId> = g
                .iter_vertices()
                .filter(|&v| g.layer_of(v) == layer && r.contains(&g.point_of(v)))
                .collect();
            assert_eq!(g.vertices_in_rect(layer, &rect), want, "{rect:?}");
        }
    }
}
