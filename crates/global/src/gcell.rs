//! The coarse gcell grid.

use tpl_design::Design;
use tpl_geom::{Dbu, Point, Rect};

/// A coarse grid of rectangular gcells over the die.
///
/// Global routing works on this grid; each gcell spans a configurable number
/// of detailed-routing tracks.
#[derive(Clone, Debug)]
pub struct GCellGrid {
    die: Rect,
    cell: Dbu,
    nx: usize,
    ny: usize,
}

impl GCellGrid {
    /// Builds a gcell grid with cells of `tracks_per_gcell` track pitches.
    ///
    /// # Panics
    ///
    /// Panics if `tracks_per_gcell` is zero.
    pub fn build(design: &Design, tracks_per_gcell: usize) -> Self {
        assert!(tracks_per_gcell > 0, "gcells must span at least one track");
        let die = design.die();
        let pitch = design.tech().layers()[0].pitch;
        let cell = pitch * tracks_per_gcell as Dbu;
        let nx = ((die.width() + cell - 1) / cell).max(1) as usize;
        let ny = ((die.height() + cell - 1) / cell).max(1) as usize;
        Self { die, cell, nx, ny }
    }

    /// Number of gcell columns.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of gcell rows.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Side length of a gcell in database units.
    #[inline]
    pub fn cell_size(&self) -> Dbu {
        self.cell
    }

    /// The gcell containing a point (clamped to the grid).
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        let gx = ((p.x - self.die.lo.x) / self.cell).clamp(0, self.nx as Dbu - 1) as usize;
        let gy = ((p.y - self.die.lo.y) / self.cell).clamp(0, self.ny as Dbu - 1) as usize;
        (gx, gy)
    }

    /// The rectangle covered by gcell `(gx, gy)`, clipped to the die.
    ///
    /// # Panics
    ///
    /// Panics if the gcell coordinates are out of range.
    pub fn cell_rect(&self, gx: usize, gy: usize) -> Rect {
        assert!(gx < self.nx && gy < self.ny, "gcell out of range");
        let lo = Point::new(
            self.die.lo.x + gx as Dbu * self.cell,
            self.die.lo.y + gy as Dbu * self.cell,
        );
        let hi = Point::new(
            (lo.x + self.cell).min(self.die.hi.x),
            (lo.y + self.cell).min(self.die.hi.y),
        );
        Rect::new(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};

    fn design() -> Design {
        let mut b = DesignBuilder::new(
            "g",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 430, 430),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(400, 400, 410, 410));
        b.add_net("n", vec![p0, p1]);
        b.build().unwrap()
    }

    #[test]
    fn grid_dimensions_round_up() {
        let g = GCellGrid::build(&design(), 5);
        // Die 430 wide, gcell 100 -> 5 columns.
        assert_eq!(g.nx(), 5);
        assert_eq!(g.ny(), 5);
        assert_eq!(g.cell_size(), 100);
    }

    #[test]
    fn cell_lookup_and_rect() {
        let g = GCellGrid::build(&design(), 5);
        assert_eq!(g.cell_of(Point::new(0, 0)), (0, 0));
        assert_eq!(g.cell_of(Point::new(250, 140)), (2, 1));
        assert_eq!(g.cell_of(Point::new(10_000, 10_000)), (4, 4));
        let r = g.cell_rect(4, 4);
        assert_eq!(r, Rect::from_coords(400, 400, 430, 430));
        assert!(g.cell_rect(2, 1).contains(&Point::new(250, 140)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_rect_checks_bounds() {
        GCellGrid::build(&design(), 5).cell_rect(9, 0);
    }
}
