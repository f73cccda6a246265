//! The three workloads: inputs made from a seed, the timed set-up that turns
//! them into routing inputs, and the routing flow of one case.
//!
//! Every call into the program is wrapped in a `tpl_trace` span named
//! `bench.<metric>`, so a traced pass yields per-layer times without any span
//! inside the program; with tracing off the spans cost one branch each.

use mr_tpl::core::{MrTplConfig, MrTplRouter};
use mr_tpl::dac12::{Dac12Config, Dac12Router};
use mr_tpl::decompose::{DecomposeConfig, Decomposer};
use mr_tpl::design::{Design, RouteGuides, RoutingSolution};
use mr_tpl::drcu::{DrCuConfig, DrCuRouter};
use mr_tpl::global::{GlobalConfig, GlobalRouter, GlobalStats};
use mr_tpl::ispd::{score_solution, Case, CaseParams, ScoreWeights, Suite};
use mr_tpl::lefdef::{lower, parse_def, parse_lef, write_def, write_lef};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tpl_trace::span;

/// One benchmark workload: a routing flow over a fixed case list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Mr.TPL on ISPD-18-like cases 1–10 ×0.3.
    MrTpl,
    /// The DAC'12 baseline on ISPD-18-like cases 1–6 ×0.25.
    Dac12,
    /// Dr.CU-like routing plus decomposition on ISPD-19-like cases 1–10
    /// ×1.0, read through LEF/DEF.
    Decompose,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::MrTpl, Workload::Dac12, Workload::Decompose];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MrTpl => "mrtpl-ispd18",
            Workload::Dac12 => "dac12-ispd18",
            Workload::Decompose => "decompose-ispd19",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn suite(self) -> Suite {
        match self {
            Workload::MrTpl | Workload::Dac12 => Suite::Ispd18,
            Workload::Decompose => Suite::Ispd19,
        }
    }

    /// Cases per replica.  DAC'12 stops at case 6: its cases 7–10 take
    /// several times as long as cases 1–6 together.
    fn cases(self) -> usize {
        match self {
            Workload::MrTpl | Workload::Decompose => 10,
            Workload::Dac12 => 6,
        }
    }

    fn scale(self) -> f64 {
        match self {
            Workload::MrTpl => 0.3,
            Workload::Dac12 => 0.25,
            Workload::Decompose => 1.0,
        }
    }

    /// Typical seconds to route one replica on a 2-core Xeon host; sizes the
    /// replica count from `--seconds`.
    pub fn nominal_replica_seconds(self) -> f64 {
        match self {
            Workload::MrTpl => 1.5,
            Workload::Dac12 => 0.45,
            Workload::Decompose => 5.2,
        }
    }
}

/// Shrinks a workload for a quick self-test; the defaults are the real size.
#[derive(Clone, Copy, Debug, Default)]
pub struct Size {
    /// Scale factor in place of the workload's own.
    pub scale: Option<f64>,
    /// Only the first this-many cases.
    pub cases: Option<usize>,
}

/// The design text of one case, written before any timing starts.
pub struct LefDefText {
    lef: String,
    def: String,
}

/// A workload's inputs, made from the seed and the replica count alone:
/// `replicas` copies of the case list, replica-major, each under its own
/// generator salt.
pub struct Inputs {
    replicas: usize,
    source: Source,
}

enum Source {
    /// Synthetic cases, generated during set-up.
    Synthetic(Vec<Case>),
    /// LEF/DEF text, parsed and lowered during set-up.
    LefDef(Vec<LefDefText>),
}

impl Inputs {
    /// Number of cases over all replicas.
    pub fn len(&self) -> usize {
        match &self.source {
            Source::Synthetic(cases) => cases.len(),
            Source::LefDef(texts) => texts.len(),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Cases in one replica.
    pub fn cases_per_replica(&self) -> usize {
        self.len() / self.replicas
    }

    /// Bytes of LEF/DEF text set-up parses (zero for synthetic inputs).
    pub fn text_bytes(&self) -> usize {
        match &self.source {
            Source::Synthetic(_) => 0,
            Source::LefDef(texts) => texts.iter().map(|t| t.lef.len() + t.def.len()).sum(),
        }
    }
}

/// Makes the workload's inputs.  Replica `r` adds `seed + r * 2^32` to
/// every case's generator seed, so seed 0's first replica is the canonical
/// suite and no two (seed, replica) pairs below 2^32 share a salt.
pub fn make_inputs(workload: Workload, seed: u64, size: Size, replicas: usize) -> Inputs {
    let scale = size.scale.unwrap_or(workload.scale());
    let cases = size.cases.unwrap_or(workload.cases()).min(workload.cases());
    let params: Vec<CaseParams> = (0..replicas as u64)
        .flat_map(|replica| {
            let salt = seed.wrapping_add(replica << 32);
            (1..=cases).map(move |idx| {
                let mut params = workload.suite().case(idx).scaled(scale);
                params.seed = params.seed.wrapping_add(salt);
                params
            })
        })
        .collect();
    let source = match workload {
        Workload::MrTpl | Workload::Dac12 => {
            Source::Synthetic(params.into_iter().map(Case::synthetic).collect())
        }
        Workload::Decompose => Source::LefDef(
            params
                .iter()
                .map(|p| {
                    let design = p.generate();
                    LefDefText {
                        lef: write_lef(design.tech()),
                        def: write_def(&design, None),
                    }
                })
                .collect(),
        ),
    };
    Inputs { replicas, source }
}

/// One case ready to route.
pub struct Prepared {
    design: Design,
    guides: RouteGuides,
}

/// What set-up reports besides the prepared cases; identical on every
/// repeat of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetupCounts {
    /// Global-router maze pops over all cases.
    pub global_search_nodes: usize,
    /// Two-pin connections the global router had to maze-route.
    pub global_maze_routed: usize,
}

/// The timed set-up: generates (or parses and lowers) every design and
/// routes its guides.
///
/// # Errors
///
/// A parse or lowering error, or guides that did not complete.
pub fn set_up(inputs: &Inputs) -> Result<(Vec<Prepared>, SetupCounts), String> {
    let designs: Vec<Design> = match &inputs.source {
        Source::Synthetic(cases) => cases
            .iter()
            .map(|case| {
                let _s = span!("bench.ispd.generate");
                case.instantiate()
            })
            .collect(),
        Source::LefDef(texts) => texts
            .iter()
            .map(|text| {
                let lef = {
                    let _s = span!("bench.lefdef.parse");
                    parse_lef(&text.lef).map_err(|e| format!("LEF: {e}"))?
                };
                let def = {
                    let _s = span!("bench.lefdef.parse");
                    parse_def(&text.def).map_err(|e| format!("DEF: {e}"))?
                };
                let _s = span!("bench.lefdef.lower");
                Ok(lower(&lef, &def).map_err(|e| e.to_string())?.design)
            })
            .collect::<Result<_, String>>()?,
    };
    let mut counts = SetupCounts::default();
    let mut prepared = Vec::with_capacity(designs.len());
    for design in designs {
        let (guides, stats): (RouteGuides, GlobalStats) = {
            let _s = span!("bench.global.route");
            GlobalRouter::new(GlobalConfig::default()).route_with_stats(&design)
        };
        if !stats.outcome.is_complete() {
            return Err(format!(
                "{}: global routing {}",
                design.name(),
                stats.outcome.as_str()
            ));
        }
        counts.global_search_nodes += stats.search_nodes;
        counts.global_maze_routed += stats.maze_routed;
        prepared.push(Prepared { design, guides });
    }
    Ok((prepared, counts))
}

/// Everything one case's flow reports.  Deterministic: two runs of the same
/// case must agree on every field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaseCounts {
    /// Colour conflicts in the final layout.
    pub conflicts: usize,
    /// Stitches in the final layout.
    pub stitches: usize,
    /// ISPD-style routing cost.
    pub cost: f64,
    /// Wirelength in database units.
    pub wirelength: i64,
    /// Vias.
    pub vias: usize,
    /// Nets with routed geometry.
    pub routed_nets: usize,
    /// Mr.TPL: heap pops over all colour-state searches.
    pub core_search_nodes: usize,
    /// Mr.TPL: segSets (mask decisions) created.
    pub core_seg_sets: usize,
    /// Conflicts after the initial pass (Mr.TPL only).
    pub core_initial_conflicts: usize,
    /// Rip-up-and-reroute iterations of whichever router ran.
    pub rrr_iterations: usize,
    /// DAC'12: two-pin connections routed.
    pub dac12_connections: usize,
    /// Dr.CU: vertices still shared by two nets after the final pass.
    pub drcu_remaining_overlaps: usize,
    /// Decomposition: features (conflict-graph vertices).
    pub decompose_features: usize,
    /// Decomposition: conflict-graph edges.
    pub decompose_edges: usize,
    /// Decomposition: connected components after simplification.
    pub decompose_components: usize,
}

/// One case of a routing pass.
pub struct CaseRun {
    /// Wall-clock seconds of the router and scoring calls.
    pub seconds: f64,
    /// The counts, or why the case failed.
    pub result: Result<CaseCounts, String>,
}

/// Routes and scores one prepared case.
pub fn run_case(workload: Workload, case: &Prepared) -> CaseRun {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| route_case(workload, case)));
    let seconds = start.elapsed().as_secs_f64();
    let result = outcome.unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("{}: panicked: {message}", case.design.name()))
    });
    CaseRun { seconds, result }
}

fn score(case: &Prepared, solution: &RoutingSolution) -> f64 {
    let _s = span!("bench.ispd.score");
    score_solution(
        &case.design,
        &case.guides,
        solution,
        &ScoreWeights::default(),
    )
    .total()
}

fn route_case(workload: Workload, case: &Prepared) -> Result<CaseCounts, String> {
    let (design, guides) = (&case.design, &case.guides);
    let fail = |what: String| Err(format!("{}: {what}", design.name()));
    let counts = match workload {
        Workload::MrTpl => {
            let result = {
                let _s = span!("bench.core.route");
                MrTplRouter::new(MrTplConfig::default()).route(design, guides)
            };
            let stats = &result.stats;
            if !stats.outcome.is_complete() {
                return fail(format!("outcome {}", stats.outcome.as_str()));
            }
            if stats.failed_nets != 0 {
                return fail(format!("{} failed nets", stats.failed_nets));
            }
            CaseCounts {
                conflicts: stats.conflicts,
                stitches: stats.stitches,
                cost: score(case, &result.solution),
                wirelength: result.solution.total_wirelength(),
                vias: result.solution.total_vias(),
                routed_nets: result.solution.routed_count(),
                core_search_nodes: stats.search_nodes,
                core_seg_sets: stats.seg_sets,
                core_initial_conflicts: stats.conflict_history.first().copied().unwrap_or(0),
                rrr_iterations: stats.rrr_iterations,
                ..CaseCounts::default()
            }
        }
        Workload::Dac12 => {
            let result = {
                let _s = span!("bench.dac12.route");
                Dac12Router::new(Dac12Config::default()).route(design, guides)
            };
            let stats = &result.stats;
            if stats.failed_nets != 0 {
                return fail(format!("{} failed nets", stats.failed_nets));
            }
            CaseCounts {
                conflicts: stats.conflicts,
                stitches: stats.stitches,
                cost: score(case, &result.solution),
                wirelength: result.solution.total_wirelength(),
                vias: result.solution.total_vias(),
                routed_nets: result.solution.routed_count(),
                rrr_iterations: stats.rrr_iterations,
                dac12_connections: stats.two_pin_connections,
                ..CaseCounts::default()
            }
        }
        Workload::Decompose => {
            let routed = {
                let _s = span!("bench.drcu.route");
                DrCuRouter::new(DrCuConfig::default()).route(design, guides)
            };
            if routed.stats.failed_nets != 0 {
                return fail(format!("{} failed nets", routed.stats.failed_nets));
            }
            let colored = {
                let _s = span!("bench.decompose.run");
                Decomposer::new(DecomposeConfig::default()).decompose(design, &routed.solution)
            };
            let stats = &colored.stats;
            if stats.uncolored_features != 0 {
                return fail(format!("{} uncoloured features", stats.uncolored_features));
            }
            CaseCounts {
                conflicts: stats.conflicts,
                stitches: stats.stitches,
                cost: score(case, &routed.solution),
                wirelength: routed.solution.total_wirelength(),
                vias: routed.solution.total_vias(),
                routed_nets: routed.solution.routed_count(),
                rrr_iterations: routed.stats.rrr_iterations,
                drcu_remaining_overlaps: routed.stats.remaining_overlaps,
                decompose_features: stats.features,
                decompose_edges: stats.edges,
                decompose_components: stats.components,
                ..CaseCounts::default()
            }
        }
    };
    if counts.routed_nets != design.nets().len() {
        return fail(format!(
            "{} of {} nets routed",
            counts.routed_nets,
            design.nets().len()
        ));
    }
    Ok(counts)
}

/// The design name of a prepared case.
pub fn case_name(case: &Prepared) -> &str {
    case.design.name()
}
