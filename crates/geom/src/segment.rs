//! Orthogonal centre-line segments.

use crate::{Axis, Dbu, Point, Rect};
use std::fmt;

/// A horizontal or vertical centre-line segment between two grid points.
///
/// Routed wires are stored as segments plus a width; [`Segment::to_rect`]
/// expands the centre line into the physical metal shape.
///
/// # Examples
///
/// ```
/// use tpl_geom::{Point, Segment};
/// let s = Segment::new(Point::new(0, 0), Point::new(30, 0));
/// assert_eq!(s.length(), 30);
/// assert!(s.axis().unwrap().is_horizontal());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Segment {
    /// First endpoint (normalised to be `<=` the second).
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment, normalising endpoint order.
    ///
    /// # Panics
    ///
    /// Panics if the segment is neither horizontal nor vertical.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        assert!(
            a.x == b.x || a.y == b.y,
            "segments must be axis-aligned: {a} -> {b}"
        );
        if a <= b {
            Self { a, b }
        } else {
            Self { a: b, b: a }
        }
    }

    /// Manhattan length of the segment (0 for a degenerate point segment).
    #[inline]
    pub fn length(&self) -> Dbu {
        self.a.manhattan(&self.b)
    }

    /// The axis the segment runs along; `None` for a degenerate point.
    #[inline]
    pub fn axis(&self) -> Option<Axis> {
        if self.a == self.b {
            None
        } else if self.a.y == self.b.y {
            Some(Axis::Horizontal)
        } else {
            Some(Axis::Vertical)
        }
    }

    /// Expands the centre line into a rectangle of the given total `width`.
    ///
    /// The width is applied symmetrically (half on each side); the ends are
    /// also extended by half the width so that collinear abutting segments
    /// merge into a continuous shape.
    #[inline]
    pub fn to_rect(&self, width: Dbu) -> Rect {
        let half = width / 2;
        Rect::new(
            self.a.translated(-half, -half),
            self.b.translated(half, half),
        )
    }

    /// The tight bounding box of the centre line (zero width).
    #[inline]
    pub fn bbox(&self) -> Rect {
        Rect::new(self.a, self.b)
    }

    /// `true` if the given point lies on the centre line.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.bbox().contains(p)
            && (self.a.x == self.b.x && p.x == self.a.x || self.a.y == self.b.y && p.y == self.a.y)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalises_endpoint_order() {
        let s = Segment::new(Point::new(10, 0), Point::new(0, 0));
        assert_eq!(s.a, Point::new(0, 0));
        assert_eq!(s.b, Point::new(10, 0));
    }

    #[test]
    #[should_panic(expected = "axis-aligned")]
    fn rejects_diagonal_segments() {
        Segment::new(Point::new(0, 0), Point::new(3, 4));
    }

    #[test]
    fn length_and_axis() {
        let h = Segment::new(Point::new(0, 5), Point::new(20, 5));
        let v = Segment::new(Point::new(5, 0), Point::new(5, 7));
        let p = Segment::new(Point::new(1, 1), Point::new(1, 1));
        assert_eq!(h.length(), 20);
        assert_eq!(h.axis(), Some(Axis::Horizontal));
        assert_eq!(v.length(), 7);
        assert_eq!(v.axis(), Some(Axis::Vertical));
        assert_eq!(p.axis(), None);
    }

    #[test]
    fn to_rect_expands_width_symmetrically() {
        let s = Segment::new(Point::new(0, 10), Point::new(30, 10));
        let r = s.to_rect(4);
        assert_eq!(r, Rect::from_coords(-2, 8, 32, 12));
    }

    #[test]
    fn contains_point_on_line_only() {
        let s = Segment::new(Point::new(0, 0), Point::new(10, 0));
        assert!(s.contains_point(&Point::new(5, 0)));
        assert!(!s.contains_point(&Point::new(5, 1)));
        assert!(!s.contains_point(&Point::new(11, 0)));
    }
}
