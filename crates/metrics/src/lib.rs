//! Evaluation metrics and report tables for the Mr.TPL reproduction.
//!
//! The crate turns raw router outputs into the rows of the paper's tables:
//! per-case conflict/stitch/cost/runtime records, improvement percentages and
//! plain-text table rendering used by the `mrtpl-bench` binary of
//! `tpl-bench`.

#![warn(missing_docs)]

mod report;
mod summary;

pub use report::{format_table, TableRow};
pub use summary::{
    improvement_percent, safe_speedup, total_speedup, CaseRecord, SuiteSummary, SuiteTotals,
};
