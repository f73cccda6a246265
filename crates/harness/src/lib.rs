//! Parallel, deterministic suite-execution engine for the Mr.TPL
//! reproduction.
//!
//! The paper evaluates Mr.TPL against three baselines over two ten-case
//! suites; this crate owns "run method M on case C" as a first-class job so
//! every consumer (the `mrtpl-bench` CLI, the examples, CI smoke runs)
//! shares one execution layer:
//!
//! * [`Method`] + [`MethodRegistry`] — the four flows of the paper
//!   (`mrtpl`, `dac12`, `drcu`, `decompose`) behind one trait, selectable by
//!   name.
//! * [`run_matrix`] — a scheduler on [`std::thread::scope`] that fans the
//!   method × case matrix over `--jobs N` workers with per-job panic
//!   isolation (a crashing case becomes a failed [`JobRecord`], not a dead
//!   run) and stable input-order collection, so record order and every
//!   non-wall-clock field are independent of the worker count.  Jobs run
//!   under an optional [`RouteBudget`]; a budget-stopped job keeps its
//!   best-so-far partial record and reports its `outcome`.
//! * [`RunReport`] — a hand-rolled (serde-free) JSON report next to the
//!   plain-text paper tables of `tpl-metrics`.
//!
//! # Examples
//!
//! ```
//! use tpl_harness::{run_matrix, MethodRegistry, RunOptions};
//! use tpl_ispd::{run_suite, Suite};
//!
//! let registry = MethodRegistry::builtin();
//! let methods = registry.select("dac12,mrtpl").unwrap();
//! let cases = run_suite(Suite::Ispd18, &[1], 0.25);
//! let records = run_matrix(&methods, &cases, &RunOptions { jobs: 2, ..RunOptions::default() });
//! assert_eq!(records.len(), 2);
//! assert!(records.iter().all(|r| r.record().is_some()));
//! ```

#![warn(missing_docs)]

pub mod flows;
pub mod json;
mod method;
mod report;
mod scheduler;

pub use method::{Dac12Method, DecomposeMethod, DrCuMethod, Method, MethodRegistry, MrTplMethod};
pub use report::{InputProvenance, RunReport};
pub use scheduler::{run_matrix, JobOutcome, JobRecord, PreparedCase, RunOptions};
pub use tpl_grid::{CancelToken, Outcome, RouteBudget, StopReason};
pub use tpl_trace::TaskPhases;
