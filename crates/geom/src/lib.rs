//! Integer Manhattan geometry primitives for the Mr.TPL reproduction.
//!
//! Every coordinate in the workspace is an integer number of database units
//! ([`Dbu`]).  The routing problem is rectilinear, so the crate only provides
//! axis-aligned primitives: [`Point`], [`Rect`], [`Segment`] and [`Interval`],
//! together with the direction/axis vocabulary ([`Dir`], [`Axis`]) shared by
//! the grid graph and the routers, a simple uniform-bin spatial index
//! ([`BinIndex`]) used for conflict detection and color-cost queries, and the
//! Manhattan minimum spanning tree ([`manhattan_mst`]) that the global router
//! and the DAC'12 baseline split multi-pin nets by.
//!
//! # Examples
//!
//! ```
//! use tpl_geom::{Point, Rect};
//!
//! let a = Rect::new(Point::new(0, 0), Point::new(10, 10));
//! let b = Rect::new(Point::new(14, 0), Point::new(20, 10));
//! assert_eq!(a.spacing_to(&b), 4);
//! assert!(!a.intersects(&b));
//! ```

#![warn(missing_docs)]

mod axis;
mod dir;
mod index;
mod interval;
mod mst;
mod point;
mod rect;
mod segment;

pub use axis::Axis;
pub use dir::Dir;
pub use index::BinIndex;
pub use interval::Interval;
pub use mst::manhattan_mst;
pub use point::Point;
pub use rect::Rect;
pub use segment::Segment;

/// Database unit: the integer coordinate type used across the workspace.
pub type Dbu = i64;

/// Squared Euclidean distance helper that never overflows for layout-scale
/// coordinates (|x| < 2^31).
///
/// # Examples
///
/// ```
/// assert_eq!(tpl_geom::dist_sq(3, 4), 25);
/// ```
#[inline]
pub fn dist_sq(dx: Dbu, dy: Dbu) -> i128 {
    (dx as i128) * (dx as i128) + (dy as i128) * (dy as i128)
}
