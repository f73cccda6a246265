//! Track-based 3-D detailed routing grid graph.
//!
//! This crate plays the role of Dr.CU's grid/track substrate: it turns a
//! [`tpl_design::Design`] into a uniform grid graph whose vertices are track
//! crossings on each metal layer and whose edges are planar steps (preferred
//! or wrong-way) and vias between adjacent layers.  On top of the immutable
//! [`GridGraph`] sits the mutable [`GridState`] holding blockages, net
//! occupancy and negotiation history, plus helpers to map pins onto covered
//! vertices and to convert vertex paths into routed geometry.
//!
//! All routers in the workspace (the TPL-unaware Dr.CU-like baseline, the
//! DAC'12 vertex-splitting baseline and Mr.TPL itself) share this substrate,
//! which keeps the Table II runtime comparison apples-to-apples.
//!
//! # Examples
//!
//! ```
//! use tpl_grid::GridGraph;
//! use tpl_ispd::CaseParams;
//!
//! let design = CaseParams::ispd18_like(1).scaled(0.3).generate();
//! let grid = GridGraph::build(&design);
//! assert!(grid.num_vertices() > 0);
//! ```

#![warn(missing_docs)]

mod bitset;
mod bucket;
mod budget;
mod costs;
mod epoch;
mod graph;
mod path;
mod pins;
mod state;

pub use bitset::DenseBitSet;
pub use bucket::BucketQueue;
pub use budget::{CancelToken, Outcome, RouteBudget, StopReason};
pub use costs::CostParams;
pub use epoch::EpochStamps;
pub use graph::{GridGraph, VertexId};
pub use path::path_to_routed_net;
pub use pins::PinCoverage;
pub use state::GridState;
