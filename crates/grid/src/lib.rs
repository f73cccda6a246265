//! Track-based 3-D detailed routing grid graph.
//!
//! This crate plays the role of Dr.CU's grid/track substrate: it turns a
//! [`tpl_design::Design`] into a uniform grid graph whose vertices are track
//! crossings on each metal layer and whose edges are planar steps (preferred
//! or wrong-way) and vias between adjacent layers.  On top of the immutable
//! [`GridGraph`] sits the mutable [`GridState`] holding blockages, net
//! occupancy and negotiation history, plus helpers to map pins onto covered
//! vertices and to convert vertex paths into routed geometry ([`emit_wires`],
//! the one path emitter of every detailed router).
//!
//! All detailed routers in the workspace (the TPL-unaware Dr.CU-like
//! baseline, the DAC'12 vertex-splitting baseline and Mr.TPL itself) share
//! this substrate, which keeps the Table II runtime comparison
//! apples-to-apples:
//!
//! * [`Kernel`] — the one best-first search loop every router runs, each
//!   over its own [`SearchSpace`]: A\*, or plain Dijkstra's answer from
//!   fewer pops in one A\*-order pass, whether a step reads the payload
//!   (Mr.TPL's colour state) or there is none (DAC'12 and the Dr.CU-like
//!   maze);
//! * [`GoalBound`] — the detailed routers' consistent lower bounds, from
//!   one box list: the layer-aware [`GoalBound::h`] for the searches that
//!   return plain Dijkstra's answer, and the Manhattan value Mr.TPL's A\*
//!   passes keep;
//! * [`TradCost`] — the one traditional step cost (`Cost_trad` of Eq. (1)),
//!   over the net's [`guide_membership`], with its direction-class part
//!   tabulated once by [`CostParams::base_table`];
//! * [`negotiate`] — the one rip-up-and-reroute loop, under each router's rule;
//! * [`GoalMarks`] — the O(1) goal test of the detailed routers' searches;
//! * [`EpochMap`] (and [`EpochStamps`], its value-less form) — the O(1)-reset
//!   generation stamps behind the routers' reused per-vertex buffers (the
//!   kernel stamps its per-node records the same way, inside each record).
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
mod bound;
mod budget;
mod costs;
mod epoch;
mod frontier;
mod graph;
mod kernel;
mod negotiate;
mod path;
mod pins;
mod state;

pub use bitset::DenseBitSet;
pub use bound::GoalBound;
pub use budget::{CancelToken, Outcome, RouteBudget, StopReason};
pub use costs::{guide_membership, CostParams, TradCost};
pub use epoch::{EpochMap, EpochStamps};
pub use graph::{GridGraph, VertexId};
pub use kernel::{Kernel, SearchSpace};
pub use negotiate::{
    negotiate, Negotiation, NegotiationRule, NetRoute, NetTurn, OverlapRule, TraceNames,
};
pub use path::emit_wires;
pub use pins::{GoalMarks, PinCoverage};
pub use state::GridState;
