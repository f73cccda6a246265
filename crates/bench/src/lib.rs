//! Benchmark front-end reproducing the paper's tables.
//!
//! Execution lives in `tpl-harness` (the [`Method`](tpl_harness::Method)
//! registry, the parallel scheduler, JSON reports); this crate is the
//! presentation layer on top of it:
//!
//! * [`cli`] — argument parsing and text rendering of the `mrtpl-bench`
//!   binary.  Its presets reproduce Table II (`--suite ispd18 --methods
//!   dac12,mrtpl`) and Table III (`--suite ispd19 --methods
//!   decompose,mrtpl`).

#![warn(missing_docs)]

pub mod cli;
