//! DAC'12-style TPL-aware routing baseline (Ma, Zhang and Wong, DAC 2012).
//!
//! This is the state-of-the-art baseline the paper compares against in
//! Table II.  The method differs from Mr.TPL in two essential ways:
//!
//! 1. **Vertex splitting instead of colour states.**  The routing graph is
//!    expanded so that every grid vertex becomes one search node per mask
//!    (3 nodes); a path through the expanded graph simultaneously chooses
//!    the geometry *and* a single concrete mask per vertex.  A stitch is a
//!    mask change on a planar step, so `(vertex, mask)` is all the state the
//!    step cost reads.  The expansion makes every search proportionally more
//!    expensive, which is where the paper's runtime gap comes from.
//! 2. **2-pin decomposition.**  Multi-pin nets are broken into 2-pin
//!    connections along a minimum spanning tree and each connection is routed
//!    (and coloured) independently.  Because an already-coloured connection
//!    can never change its mask, junctions between connections frequently
//!    force stitches — exactly the behaviour of Fig. 1(c) in the paper.
//!
//! Everything else is Mr.TPL's own code, so the comparison isolates the
//! colour-handling strategy: the configuration and the mask-step cost
//! ([`tpl_color::TplConfig`] and its `step_costs`), the rule that turns a
//! net's paths and masks into its wires and pin masks
//! ([`tpl_color::color_route`]), the rip-up-and-reroute loop
//! ([`tpl_grid::negotiate`] under [`tpl_color::ColorRule`]), and the MST,
//! which the global router shares too ([`tpl_geom::manhattan_mst`]).
//!
//! # Examples
//!
//! ```
//! use tpl_dac12::{Dac12Config, Dac12Router};
//! use tpl_global::{GlobalConfig, GlobalRouter};
//! use tpl_ispd::CaseParams;
//!
//! let design = CaseParams::ispd18_like(1).scaled(0.25).generate();
//! let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
//! let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
//! assert_eq!(result.solution.routed_count(), design.nets().len());
//! ```

#![warn(missing_docs)]

mod expanded;
mod router;

pub use expanded::ExpandedGraph;
pub use router::{Dac12Config, Dac12Result, Dac12Router, Dac12Stats};
