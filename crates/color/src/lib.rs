//! Colour state, mask model, conflict and stitch machinery for triple
//! patterning lithography.
//!
//! The crate provides the building blocks Mr.TPL and the baselines share:
//!
//! * [`Mask`] — the three TPL masks (red, green, blue).
//! * [`ColorState`] — the paper's 3-bit candidate set (Table I): during path
//!   search a wire segment may still be printable on several masks at once.
//! * [`ColorSetArena`], [`VerSetId`], [`SegSetId`] — the vertice colour-set /
//!   segment colour-set structures of Algorithm 3 (backtrace); a `segSet`
//!   is a stitch-free region whose colour state is the intersection of its
//!   members, and a stitch is exactly a boundary between two `segSet`s.
//! * [`ColorMap`] — an incremental spatial map of already-coloured features,
//!   answering "how many features of another net with mask *m* lie within
//!   `Dcolor` of this rectangle?", the quantity behind `Cost_color` in
//!   Eq. (1).  It keeps that count current for every grid vertex's wire
//!   footprint as features are inserted and removed.
//! * [`ColorCostCache`] — that pressure per grid vertex together with the
//!   vertex's `Cost_trad` node penalty, one cached record per vertex while
//!   a net is routed (shared by Mr.TPL and the DAC'12 baseline).
//! * [`ColoredLayout`] — a finished, fully coloured layout on which colour
//!   conflicts and stitches are counted for the evaluation tables.
//!
//! # Examples
//!
//! ```
//! use tpl_color::{ColorState, Mask};
//!
//! let s = ColorState::all();
//! let t = s.without(Mask::Green);
//! assert_eq!(t.to_string(), "101");
//! assert_eq!(t.candidates().count(), 2);
//! assert_eq!(t.intersect(ColorState::from_mask(Mask::Red)).single(), Some(Mask::Red));
//! ```

#![warn(missing_docs)]

mod colorcost;
mod colormap;
mod layout;
mod mask;
mod sets;
mod state;

pub use colorcost::ColorCostCache;
pub use colormap::{ColorMap, Feature, FeatureKind};
pub use layout::{ColoredLayout, ConflictPair, LayoutStats, StitchSite};
pub use mask::Mask;
pub use sets::{ColorSetArena, SegSetId, VerSetId};
pub use state::ColorState;
