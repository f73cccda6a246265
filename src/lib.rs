//! Facade crate for the Mr.TPL reproduction workspace.
//!
//! `mr-tpl` re-exports every sub-crate of the reproduction under one roof so
//! that examples, integration tests and downstream users can depend on a
//! single crate:
//!
//! * [`geom`] — integer Manhattan geometry.
//! * [`design`] — technology, netlist and routing-solution model.
//! * [`ispd`] — synthetic ISPD-2018/2019-like benchmarks and the cost scorer.
//! * [`lefdef`] — LEF/DEF subset parsers, writers and lowering for ingesting
//!   real designs.
//! * [`global`] — the gcell global router producing route guides.
//! * [`grid`] — the track-based detailed-routing grid graph.
//! * [`color`] — colour states, verSets/segSets, conflict and stitch counting.
//! * [`drcu`] — the TPL-unaware Dr.CU-like detailed router baseline.
//! * [`dac12`] — the DAC'12 vertex-splitting TPL-aware routing baseline.
//! * [`decompose`] — the OpenMPL-like layout decomposition baseline.
//! * [`core`] — Mr.TPL itself (the paper's contribution).
//! * [`metrics`] — evaluation metrics and table reporting.
//! * [`harness`] — the parallel, deterministic suite-execution engine behind
//!   the `mrtpl-bench` CLI (method registry, scheduler, JSON reports).
//!
//! # Examples
//!
//! ```
//! use mr_tpl::prelude::*;
//!
//! let design = CaseParams::ispd18_like(1).scaled(0.25).generate();
//! let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
//! let routed = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
//! assert_eq!(routed.solution.routed_count(), design.nets().len());
//! ```

#![warn(missing_docs)]

pub use mrtpl_core as core;
pub use tpl_color as color;
pub use tpl_dac12 as dac12;
pub use tpl_decompose as decompose;
pub use tpl_design as design;
pub use tpl_drcu as drcu;
pub use tpl_geom as geom;
pub use tpl_global as global;
pub use tpl_grid as grid;
pub use tpl_harness as harness;
pub use tpl_ispd as ispd;
pub use tpl_lefdef as lefdef;
pub use tpl_metrics as metrics;

/// The most common imports for running the full flow.
pub mod prelude {
    pub use mrtpl_core::{MrTplConfig, MrTplResult, MrTplRouter};
    pub use tpl_color::{ColorState, ColoredLayout, Mask};
    pub use tpl_design::{Design, DesignBuilder, NetId, RouteGuides, RoutingSolution, Technology};
    pub use tpl_drcu::{DrCuConfig, DrCuRouter};
    pub use tpl_geom::{Point, Rect};
    pub use tpl_global::{GlobalConfig, GlobalRouter};
    pub use tpl_ispd::CaseParams;
}
