//! Coarse-grid pattern global router producing route guides.
//!
//! The paper's detailed routers consume global-routing (GR) guides: Mr.TPL
//! "calculates color cost by GR guide" and the ISPD cost function penalises
//! out-of-guide wiring.  This crate provides the guide-producing substrate
//! on a grid of gcells.  Per net, the router
//!
//! 1. collects the gcells of the pins' centres (its terminals),
//! 2. joins them with a Manhattan minimum spanning tree
//!    ([`tpl_geom::manhattan_mst`]),
//! 3. lays the horizontal-first L on each tree edge, and
//! 4. grows every gcell on those Ls and every terminal by
//!    [`GlobalConfig::guide_expansion`] gcells and emits their union as
//!    row runs: one guide region per maximal run of gcells along one gcell
//!    row whose grown cells overlap or abut, spanning every routing layer.
//!
//! A run's region is the hull of its grown cells, which is exactly their
//! union, so a net's guide is exactly the union of its grown gcells on
//! every layer, held in about a tenth of the regions one per grown gcell
//! per layer would take (ISPD-19-like ×1.0 suite: 10,194 against 98,763).
//!
//! It keeps no congestion map.  On the ISPD-18-like and ISPD-19-like suites
//! at ×0.3, ×0.5 and ×1.0, cases 1–10 and four generator seeds each (240
//! runs, 77,450 two-pin connections), a congestion-aware router with an
//! edge-demand map, a maze fallback and negotiation rounds overflowed no
//! gcell edge, never ran its maze, and produced exactly these guides.
//!
//! # Examples
//!
//! ```
//! use tpl_global::{GlobalConfig, GlobalRouter};
//! use tpl_ispd::CaseParams;
//!
//! let design = CaseParams::ispd18_like(1).scaled(0.3).generate();
//! let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
//! assert_eq!(guides.num_nets(), design.nets().len());
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod exactness;
mod gcell;
mod router;

pub use gcell::GCellGrid;
pub use router::{GlobalConfig, GlobalRouter, GlobalStats};
