//! 2-D integer points.

use crate::{Dbu, Dir};
use std::fmt;
use std::ops::{Add, Sub};

/// A point in database units on a single layer.
///
/// Points are ordered lexicographically (`x` first, then `y`), which gives the
/// deterministic tie-breaking the routers rely on.
///
/// # Examples
///
/// ```
/// use tpl_geom::Point;
/// let p = Point::new(3, 4);
/// let q = Point::new(1, 1);
/// assert_eq!(p.manhattan(&q), 5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// Horizontal coordinate in database units.
    pub x: Dbu,
    /// Vertical coordinate in database units.
    pub y: Dbu,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: Dbu, y: Dbu) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0, 0);

    /// Manhattan (L1) distance to another point.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpl_geom::Point;
    /// assert_eq!(Point::new(0, 0).manhattan(&Point::new(2, 3)), 5);
    /// ```
    #[inline]
    pub fn manhattan(&self, other: &Point) -> Dbu {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Squared Euclidean distance to another point.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> i128 {
        crate::dist_sq(self.x - other.x, self.y - other.y)
    }

    /// Returns the point translated by `(dx, dy)`.
    #[inline]
    pub fn translated(&self, dx: Dbu, dy: Dbu) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Returns the neighbouring point one `step` away in planar direction
    /// `dir`.
    ///
    /// # Panics
    ///
    /// Panics if `dir` is [`Dir::Up`] or [`Dir::Down`]; those directions move
    /// between layers, not within the plane.
    #[inline]
    pub fn stepped(&self, dir: Dir, step: Dbu) -> Point {
        match dir {
            Dir::East => self.translated(step, 0),
            Dir::West => self.translated(-step, 0),
            Dir::North => self.translated(0, step),
            Dir::South => self.translated(0, -step),
            Dir::Up | Dir::Down => panic!("stepped() requires a planar direction"),
        }
    }

    /// Componentwise minimum of two points.
    #[inline]
    pub fn componentwise_min(&self, other: &Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Componentwise maximum of two points.
    #[inline]
    pub fn componentwise_max(&self, other: &Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl Add for Point {
    type Output = Point;

    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;

    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl From<(Dbu, Dbu)> for Point {
    #[inline]
    fn from((x, y): (Dbu, Dbu)) -> Self {
        Point::new(x, y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance_is_symmetric() {
        let a = Point::new(3, -7);
        let b = Point::new(-2, 9);
        assert_eq!(a.manhattan(&b), b.manhattan(&a));
        assert_eq!(a.manhattan(&b), 5 + 16);
    }

    #[test]
    fn stepped_moves_one_grid_in_each_planar_direction() {
        let p = Point::new(5, 5);
        assert_eq!(p.stepped(Dir::East, 2), Point::new(7, 5));
        assert_eq!(p.stepped(Dir::West, 2), Point::new(3, 5));
        assert_eq!(p.stepped(Dir::North, 2), Point::new(5, 7));
        assert_eq!(p.stepped(Dir::South, 2), Point::new(5, 3));
    }

    #[test]
    #[should_panic(expected = "planar direction")]
    fn stepped_panics_on_via_direction() {
        Point::new(0, 0).stepped(Dir::Up, 1);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Point::new(10, 20);
        let b = Point::new(-3, 4);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Point::new(1, 100) < Point::new(2, 0));
        assert!(Point::new(1, 1) < Point::new(1, 2));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point::new(1, 9);
        let b = Point::new(4, 2);
        assert_eq!(a.componentwise_min(&b), Point::new(1, 2));
        assert_eq!(a.componentwise_max(&b), Point::new(4, 9));
    }

    #[test]
    fn display_format() {
        assert_eq!(Point::new(1, -2).to_string(), "(1, -2)");
    }
}
