//! The four end-to-end flows the paper evaluates, as free functions.
//!
//! Each flow takes a prepared case (design plus route guides) and returns the
//! per-case [`CaseRecord`] alongside the flow's full native result.  The
//! [`Method`](crate::Method) wrappers build on these.

use mrtpl_core::{MrTplConfig, MrTplRouter};
use std::time::Instant;
use tpl_dac12::{Dac12Config, Dac12Router};
use tpl_decompose::{DecomposeConfig, Decomposer};
use tpl_design::{Design, RouteGuides};
use tpl_drcu::{DrCuConfig, DrCuRouter};
use tpl_global::{GlobalConfig, GlobalRouter};
use tpl_grid::{Outcome, RouteBudget};
use tpl_ispd::{score_solution, Case, ScoreWeights};
use tpl_metrics::CaseRecord;

/// Prepares a benchmark [`Case`] — synthetic or externally ingested — by
/// instantiating its design and routing its guides under `budget` (the part
/// shared by every method).  Nets after a budget stop keep their pins'
/// gcells as guides, so the guides always cover every pin; the returned
/// [`Outcome`] says whether guide generation ran to completion or
/// degraded/aborted.
pub fn prepare(case: &Case, budget: &RouteBudget) -> (Design, RouteGuides, Outcome) {
    let design = case.instantiate();
    let (guides, stats) =
        GlobalRouter::new(GlobalConfig::default()).route_with_budget(&design, budget);
    (design, guides, stats.outcome)
}

/// The record of a colour-aware router's run.  Mr.TPL and DAC'12 report
/// their statistics under the same field names and time themselves.
macro_rules! colored_record {
    ($design:expr, $guides:expr, $result:expr) => {{
        let (design, guides, result) = ($design, $guides, &$result);
        let cost = score_solution(design, guides, &result.solution, &ScoreWeights::default());
        CaseRecord {
            case: design.name().to_string(),
            conflicts: result.stats.conflicts,
            stitches: result.stats.stitches,
            cost: cost.total(),
            runtime_seconds: result.stats.runtime_seconds,
            wirelength: result.solution.total_wirelength(),
            vias: result.solution.total_vias(),
            search_nodes: result.stats.search_nodes,
            rrr_iterations: result.stats.rrr_iterations,
            outcome: result.stats.outcome,
        }
    }};
}

/// Runs Mr.TPL on a prepared case under a [`RouteBudget`].  The record's
/// `outcome` reports whether the run completed, degraded on a budget trip
/// (the record then describes a best-so-far partial solution), or aborted.
pub fn run_mrtpl(
    design: &Design,
    guides: &RouteGuides,
    config: &MrTplConfig,
    budget: &RouteBudget,
) -> (CaseRecord, mrtpl_core::MrTplResult) {
    let result = MrTplRouter::new(*config).route_with_budget(design, guides, budget);
    (colored_record!(design, guides, result), result)
}

/// Runs the DAC'12 baseline on a prepared case under a [`RouteBudget`].
pub fn run_dac12(
    design: &Design,
    guides: &RouteGuides,
    config: &Dac12Config,
    budget: &RouteBudget,
) -> (CaseRecord, tpl_dac12::Dac12Result) {
    let result = Dac12Router::new(*config).route_with_budget(design, guides, budget);
    (colored_record!(design, guides, result), result)
}

/// Runs the colour-blind Dr.CU-like router alone on a prepared case under a
/// [`RouteBudget`].
///
/// The flow never colours the layout, so the conflict and stitch columns are
/// not applicable and reported as zero; the record's value is in the ISPD
/// routing cost and the runtime (the routing share of the decompose flow).
pub fn run_drcu(
    design: &Design,
    guides: &RouteGuides,
    config: &DrCuConfig,
    budget: &RouteBudget,
) -> (CaseRecord, tpl_drcu::DrCuResult) {
    let start = Instant::now();
    let result = DrCuRouter::new(*config).route_with_budget(design, guides, budget);
    let runtime_seconds = start.elapsed().as_secs_f64();
    (
        drcu_record(design, guides, &result, runtime_seconds),
        result,
    )
}

/// Runs the Dr.CU-like colour-blind router (under a [`RouteBudget`])
/// followed by the OpenMPL-style decomposition on a prepared case.
pub fn run_decompose(
    design: &Design,
    guides: &RouteGuides,
    route_config: &DrCuConfig,
    decompose_config: &DecomposeConfig,
    budget: &RouteBudget,
) -> (CaseRecord, tpl_decompose::DecomposeResult) {
    let start = Instant::now();
    let routed = DrCuRouter::new(*route_config).route_with_budget(design, guides, budget);
    let result = Decomposer::new(*decompose_config).decompose(design, &routed.solution);
    // Route + decompose only: scoring is excluded, like the TPL-aware flows
    // whose runtimes come from the routers' internal stats.
    let runtime_seconds = start.elapsed().as_secs_f64();
    let record = CaseRecord {
        conflicts: result.stats.conflicts,
        stitches: result.stats.stitches,
        ..drcu_record(design, guides, &routed, runtime_seconds)
    };
    (record, result)
}

/// The record of a Dr.CU-like routing run, with no conflicts or stitches.
fn drcu_record(
    design: &Design,
    guides: &RouteGuides,
    routed: &tpl_drcu::DrCuResult,
    runtime_seconds: f64,
) -> CaseRecord {
    let cost = score_solution(design, guides, &routed.solution, &ScoreWeights::default());
    CaseRecord {
        case: design.name().to_string(),
        conflicts: 0,
        stitches: 0,
        cost: cost.total(),
        runtime_seconds,
        wirelength: routed.solution.total_wirelength(),
        vias: routed.solution.total_vias(),
        search_nodes: routed.stats.search_nodes,
        rrr_iterations: routed.stats.rrr_iterations,
        outcome: routed.stats.outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drcu_flow_reports_no_colour_columns() {
        let case = Case::synthetic(tpl_ispd::CaseParams::ispd18_like(1).scaled(0.25));
        let (design, guides, _) = prepare(&case, &RouteBudget::default());
        let budget = RouteBudget::default();
        let (record, result) = run_drcu(&design, &guides, &DrCuConfig::default(), &budget);
        assert_eq!(record.conflicts, 0);
        assert_eq!(record.stitches, 0);
        assert!(record.cost > 0.0);
        assert!(record.search_nodes > 0);
        assert_eq!(record.case, design.name());
        assert_eq!(result.solution.routed_count(), design.nets().len());
    }
}
