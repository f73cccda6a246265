//! Mr.TPL: a triple-patterning-aware detailed router for multi-pin nets.
//!
//! This crate is the reproduction of the paper's primary contribution.  It
//! routes every net of a design on the shared grid substrate while carrying a
//! **set-valued colour state** (a 3-bit mask-candidate set, Table I of the
//! paper) on every search vertex:
//!
//! 1. **Colour-state searching** ([`search`], Algorithm 2): a multi-source
//!    Dijkstra whose expansion evaluates, per direction, the cost of each of
//!    the three masks (traditional cost + colour-conflict pressure + stitch
//!    cost when the mask is not in the current state: Eq. (1) with α fixed
//!    at 1, priced by [`tpl_color::TplConfig::step_costs`]) and keeps
//!    the *set* of masks attaining the minimum.
//! 2. **Backtrace** ([`backtrace`], Algorithm 3): walks predecessors from the
//!    reached pin, grouping vertices into verSets and segSets; states are
//!    intersected along the path, and a stitch is exactly a segSet boundary.
//! 3. **Mask assignment** (the `assign` module): every segSet commits to the candidate
//!    mask with the lowest conflict pressure; the paths, each vertex with
//!    its segSet's mask, become the net's wires and pin masks by
//!    [`tpl_color::color_route`], as in the DAC'12 baseline.
//! 4. **Rip-up and reroute**: remaining colour conflicts bump history costs
//!    and send their victims back through steps 1–3, one net at a time:
//!    each victim is ripped up just before it reroutes and committed before
//!    the next one routes.  A wire–pin conflict rips up both nets, a
//!    wire–wire conflict the larger net id.  The loop is
//!    [`tpl_grid::negotiate`], shared with both baselines, under the
//!    [`tpl_color::ColorRule`] the DAC'12 baseline shares.
//!
//! # Examples
//!
//! ```
//! use mrtpl_core::{MrTplConfig, MrTplRouter};
//! use tpl_global::{GlobalConfig, GlobalRouter};
//! use tpl_ispd::CaseParams;
//!
//! let design = CaseParams::ispd18_like(1).scaled(0.25).generate();
//! let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
//! let result = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
//! assert_eq!(result.solution.routed_count(), design.nets().len());
//! ```

#![warn(missing_docs)]

mod assign;
mod backtrace;
mod config;
mod router;
mod search;

pub use backtrace::backtrace;
pub use config::{MrTplConfig, MrTplStats};
pub use router::{MrTplResult, MrTplRouter};
pub use search::{search, NetBuffers, SearchContext};
