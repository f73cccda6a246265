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
//! * [`ColoredLayout`] — a layout of features and their masks, and the one
//!   place that lists which features interact: one scan per layout keeps
//!   each layer's *near* pairs (different nets closer than `Dcolor`) and
//!   *touching* pairs (one net, intersecting).  The evaluation tables'
//!   conflicts and stitches filter those pairs by mask, the conflicts name
//!   the nets to rip up, and the decomposition baseline builds its conflict
//!   graph from the same pairs before any mask is set.
//! * [`TplConfig`] — the one configuration of Mr.TPL and the DAC'12
//!   baseline, and its [`step_costs`](TplConfig::step_costs), the one
//!   mask-step cost both routers' searches price (`Cost_trad` plus colour
//!   pressure plus a stitch off the inherited masks, Eq. (1)).
//! * [`color_route`] — the one rule by which both routers turn a net's
//!   paths into its coloured wires and pins, by [`ColorMap::pin_mask`].
//! * [`ColorRule`] — the colour rule both routers hand the shared
//!   negotiation driver [`tpl_grid::negotiate`]: it keeps the colour map of
//!   the committed nets, and a pass leaves colour conflicts whose victims
//!   reroute.
//!
//! With [`color_route`] and the shared MST [`tpl_geom::manhattan_mst`], the
//! two routers differ only in their search graph (colour states on grid
//! vertices, or one node per vertex and mask) and in routing a net whole or
//! as 2-pin connections.
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
mod config;
mod layout;
mod mask;
mod route;
mod rule;
mod sets;
mod state;

pub use colorcost::ColorCostCache;
pub use colormap::{ColorMap, Feature, FeatureKind};
pub use config::TplConfig;
pub use layout::{ColoredLayout, ConflictPair, LayoutStats, StitchSite};
pub use mask::Mask;
pub use route::{color_route, ColoredPath};
pub use rule::ColorRule;
pub use sets::{ColorSetArena, SegSetId, VerSetId};
pub use state::ColorState;
