//! Argument parsing and text rendering of the `mrtpl-bench` binary.

use std::path::Path;
use tpl_harness::{run_matrix, InputProvenance, MethodRegistry, RunOptions, RunReport};
use tpl_ispd::{cases_from_def_dir, run_suite, Case, Suite};
use tpl_metrics::{format_table, SuiteSummary, SuiteTotals, TableRow};

/// Output format of `mrtpl-bench`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Aligned plain-text table plus per-method totals.
    Text,
    /// The JSON report of `tpl-harness` (see its schema docs).
    Json,
}

/// Parsed `mrtpl-bench` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    /// The suite to run.
    pub suite: Suite,
    /// Case indices (empty means all ten).
    pub cases: Vec<usize>,
    /// Comma-separated method selection.
    pub methods: String,
    /// Scale factor applied to every case.
    pub scale: f64,
    /// Worker-thread count (cases × methods fan-out).
    pub jobs: usize,
    /// Output format.
    pub format: Format,
    /// Write the report to this path instead of stdout.
    pub out: Option<String>,
    /// Route an external DEF file (or a directory of `.def` files) instead
    /// of a synthetic suite.
    pub def: Option<String>,
    /// Explicit LEF for `--def`; defaults to the DEF's sibling `<stem>.lef`,
    /// then `tech.lef` in the same directory.
    pub lef: Option<String>,
    /// Zero wall-clock fields for byte-stable output.
    pub deterministic: bool,
    /// Write trace exports (Chrome trace, per-phase metrics, wall-clock
    /// timings) into this directory; also turns tracing on for the run.
    pub trace: Option<String>,
    /// Search-node budget per job (`--budget`); deterministic, so it
    /// composes with `--deterministic` byte-comparisons.
    pub budget: Option<u64>,
    /// Wall-clock deadline per job in seconds (`--deadline`); inherently
    /// machine-dependent, so not for byte-compared runs.
    pub deadline: Option<f64>,
    /// Seed of a deterministic fault-injection plan (`--fault-plan`); faults
    /// fire at fixed `tpl-fault` sites as a pure function of the seed.
    pub fault_plan: Option<u64>,
    /// Print the method registry and exit.
    pub list_methods: bool,
    /// Print usage and exit.
    pub help: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            suite: Suite::Ispd18,
            cases: Vec::new(),
            methods: "dac12,mrtpl".to_string(),
            scale: 1.0,
            jobs: 1,
            format: Format::Text,
            out: None,
            def: None,
            lef: None,
            deterministic: false,
            trace: None,
            budget: None,
            deadline: None,
            fault_plan: None,
            list_methods: false,
            help: false,
        }
    }
}

/// The usage text printed by `--help` and on parse errors.
pub const USAGE: &str = "\
mrtpl-bench — run a method × case matrix over an ISPD-like suite

USAGE:
  mrtpl-bench [OPTIONS]

OPTIONS:
  --suite <ispd18|ispd19>   suite to run (default: ispd18)
  --cases <LIST>            comma-separated case indices 1..=10 (default: all)
  --methods <LIST>          comma-separated methods (default: dac12,mrtpl)
  --scale <S>               case scale factor (default: 1.0)
  --jobs <N>                worker threads over the case matrix (default: 1)
  --def <PATH>              route an external DEF file (or a directory of
                            .def files) instead of a synthetic suite
  --lef <PATH>              LEF for --def (default: the DEF's sibling
                            <stem>.lef, then tech.lef in its directory)
  --format <text|json>      output format (default: text)
  --out <PATH>              write the report to a file instead of stdout
  --deterministic           zero wall-clock fields (byte-stable output);
                            real runtimes go to a *.timings.json sidecar
                            next to --out
  --trace <DIR>             enable tpl-trace and write DIR/chrome.trace.json
                            (load in chrome://tracing or Perfetto),
                            DIR/metrics.json (report + per-phase counters)
                            and DIR/timings.json; never changes the report
  --budget <NODES>          search-node budget per job; budget-stopped runs
                            return best-so-far partial results marked
                            degraded/aborted; deterministic across --jobs
  --deadline <SECS>         wall-clock deadline per job (machine-dependent;
                            not for byte-compared runs)
  --fault-plan <SEED>       install a deterministic fault-injection plan:
                            panics/delays/budget trips fire at fixed sites
                            as a pure function of the seed (robustness
                            testing; the scheduler must always survive)
  --list-methods            print the method registry and exit
  --help                    print this help

PRESETS:
  Table II  == --suite ispd18 --methods dac12,mrtpl
  Table III == --suite ispd19 --methods decompose,mrtpl
";

/// Parses a `--scale` value: a strictly positive, finite float (`inf` would
/// saturate the case dimensions instead of erroring).
pub fn parse_scale_value(v: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("invalid --scale value `{v}`"))
}

/// Parses a `--jobs` value: an integer of at least 1.
pub fn parse_jobs_value(v: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .ok()
        .filter(|j| *j >= 1)
        .ok_or_else(|| format!("invalid --jobs value `{v}`"))
}

/// Parses a `--budget` value: a non-negative integer node count (0 is legal
/// and means "degrade everything immediately").
pub fn parse_budget_value(v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("invalid --budget value `{v}`"))
}

/// Parses a `--deadline` value: a strictly positive, finite seconds count.
pub fn parse_deadline_value(v: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("invalid --deadline value `{v}`"))
}

/// Parses a `--fault-plan` seed: any u64.
pub fn parse_seed_value(v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("invalid --fault-plan seed `{v}`"))
}

/// Parses `mrtpl-bench` arguments (without the program name).
pub fn parse_bench_args(args: impl Iterator<Item = String>) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs::default();
    let mut iter = args;
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        match arg.as_str() {
            "--suite" => {
                let v = take("--suite")?;
                parsed.suite = Suite::parse(&v)
                    .ok_or_else(|| format!("unknown suite `{v}` (ispd18 or ispd19)"))?;
            }
            "--cases" => {
                let v = take("--cases")?;
                parsed.cases = parse_case_list(&v)?;
            }
            "--methods" => parsed.methods = take("--methods")?,
            "--scale" => parsed.scale = parse_scale_value(&take("--scale")?)?,
            "--jobs" => parsed.jobs = parse_jobs_value(&take("--jobs")?)?,
            "--format" => {
                let v = take("--format")?;
                parsed.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    _ => return Err(format!("unknown format `{v}` (text or json)")),
                };
            }
            "--budget" => parsed.budget = Some(parse_budget_value(&take("--budget")?)?),
            "--deadline" => parsed.deadline = Some(parse_deadline_value(&take("--deadline")?)?),
            "--fault-plan" => parsed.fault_plan = Some(parse_seed_value(&take("--fault-plan")?)?),
            "--def" => parsed.def = Some(take("--def")?),
            "--lef" => parsed.lef = Some(take("--lef")?),
            "--out" => parsed.out = Some(take("--out")?),
            "--trace" => parsed.trace = Some(take("--trace")?),
            "--deterministic" => parsed.deterministic = true,
            "--list-methods" => parsed.list_methods = true,
            "--help" | "-h" => parsed.help = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn parse_case_list(spec: &str) -> Result<Vec<usize>, String> {
    let mut cases = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let idx: usize = part
            .parse()
            .map_err(|_| format!("invalid case index `{part}`"))?;
        if !(1..=10).contains(&idx) {
            return Err(format!("case index {idx} out of range 1..=10"));
        }
        cases.push(idx);
    }
    Ok(cases)
}

/// Builds the case list of an external `--def` run.
fn external_cases(args: &BenchArgs, def: &str) -> Result<Vec<Case>, String> {
    if !args.cases.is_empty() {
        return Err(
            "--cases selects synthetic suite indices; it cannot be combined with --def".to_string(),
        );
    }
    if (args.scale - 1.0).abs() > f64::EPSILON {
        return Err(
            "--scale applies to synthetic cases; it cannot be combined with --def".to_string(),
        );
    }
    let def_path = Path::new(def);
    if def_path.is_dir() {
        if args.lef.is_some() {
            return Err(
                "--lef needs a single DEF file; a --def directory discovers each case's LEF"
                    .to_string(),
            );
        }
        return cases_from_def_dir(def_path).map_err(|e| e.to_string());
    }
    let lef_path = match &args.lef {
        Some(lef) => Path::new(lef).to_path_buf(),
        None => {
            let sibling = def_path.with_extension("lef");
            let shared = def_path.with_file_name("tech.lef");
            if sibling.is_file() {
                sibling
            } else if shared.is_file() {
                shared
            } else {
                return Err(format!(
                    "no LEF for {def}: pass --lef or provide {} or {}",
                    sibling.display(),
                    shared.display()
                ));
            }
        }
    };
    let case = Case::from_lefdef(&lef_path, def_path).map_err(|e| e.to_string())?;
    Ok(vec![case])
}

/// Runs the parsed matrix through the harness and returns the report.
pub fn execute(args: &BenchArgs) -> Result<RunReport, String> {
    let registry = MethodRegistry::builtin();
    let methods = registry.select(&args.methods)?;
    let (suite, input, cases) = match &args.def {
        Some(def) => (
            "external".to_string(),
            InputProvenance::External {
                lef: args.lef.clone(),
                def: def.clone(),
            },
            external_cases(args, def)?,
        ),
        None => {
            if args.lef.is_some() {
                return Err("--lef only makes sense together with --def".to_string());
            }
            (
                args.suite.name().to_string(),
                InputProvenance::Synthetic,
                run_suite(args.suite, &args.cases, args.scale),
            )
        }
    };
    if args.trace.is_some() {
        tpl_trace::enable();
    }
    match args.fault_plan {
        // Install (or replace) the process-wide plan so every fault site
        // keys off this run's seed; without the flag, clear any leftover
        // plan so fault points stay zero-cost.
        Some(seed) => tpl_fault::install(seed),
        None => tpl_fault::clear(),
    }
    let options = RunOptions {
        jobs: args.jobs,
        deterministic: args.deterministic,
        trace: args.trace.is_some(),
        max_search_nodes: args.budget,
        deadline_seconds: args.deadline,
    };
    let records = run_matrix(&methods, &cases, &options);
    Ok(RunReport {
        suite,
        input,
        scale: args.scale,
        jobs: args.jobs,
        deterministic: args.deterministic,
        methods: methods.iter().map(|m| m.name().to_string()).collect(),
        records,
    })
}

/// Renders a report as an aligned text table plus per-method totals.
pub fn render_text(report: &RunReport) -> String {
    let rows: Vec<TableRow> = report
        .records
        .iter()
        .map(|job| match job.record() {
            Some(r) => TableRow::new([
                job.case.clone(),
                job.method.clone(),
                "ok".to_string(),
                r.conflicts.to_string(),
                r.stitches.to_string(),
                format!("{:.4e}", r.cost),
                format!("{:.2}", r.runtime_seconds),
            ]),
            None => TableRow::new([
                job.case.clone(),
                job.method.clone(),
                "FAILED".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]),
        })
        .collect();
    let mut out = format_table(
        &[
            "case",
            "method",
            "status",
            "conflicts",
            "stitches",
            "cost",
            "time s",
        ],
        &rows,
    );
    out.push('\n');
    for method in &report.methods {
        let totals = SuiteTotals::from_records(&report.records_of(method));
        let failed = report.failures_of(method);
        out.push_str(&format!(
            "total {method:<10} cases {:2} (failed {failed}): conflicts {:5}  stitches {:5}  cost {:.4e}  time {:.2}s\n",
            totals.cases, totals.conflicts, totals.stitches, totals.cost, totals.runtime_seconds,
        ));
    }
    // The `avg` row of the paper's Tables II/III, against the first method.
    // No speedup in deterministic mode: wall-clock fields are zeroed, so a
    // ratio would be a misleading 0.00x.
    if let Some((baseline, rest)) = report.methods.split_first() {
        for method in rest {
            let (base, ours) = report.paired_records(baseline, method);
            if ours.is_empty() {
                continue;
            }
            let summary = SuiteSummary::from_records(&base, &ours);
            out.push_str(&format!(
                "avg {method} vs {baseline}: conflicts {:.2} -> {:.2} (improvement {:.2}%), stitches {:.2} -> {:.2} ({:.2}%), cost improvement {:.2}%",
                summary.baseline_conflicts,
                summary.ours_conflicts,
                summary.conflict_improvement,
                summary.baseline_stitches,
                summary.ours_stitches,
                summary.stitch_improvement,
                summary.cost_improvement,
            ));
            if !report.deterministic {
                out.push_str(&format!(
                    ", speedup {:.2}x (geomean {:.2}x)",
                    summary.speedup, summary.geomean_speedup
                ));
            }
            out.push('\n');
        }
    }
    out
}

/// The `*.timings.json` sidecar path of a `--deterministic --out` report:
/// `reports/foo.json` → `reports/foo.timings.json`.  Deterministic reports
/// zero `runtime_seconds` for byte-stable comparison, so the real wall-clock
/// numbers land next to the report instead of inside it.
pub fn timings_sidecar_path(out: &str) -> String {
    Path::new(out)
        .with_extension("timings.json")
        .to_string_lossy()
        .into_owned()
}

/// Writes the three `--trace` exports into `dir`:
///
/// * `chrome.trace.json` — the raw event stream in Chrome `trace_event`
///   format, loadable in `chrome://tracing` or Perfetto,
/// * `metrics.json` — the JSON report plus a per-phase `phases` block on
///   every traced record,
/// * `timings.json` — real per-job wall-clock seconds (measured even in
///   deterministic mode).
///
/// Draining the trace registry consumes the run's raw events, so this is
/// called once, after the report is rendered.
pub fn write_trace_outputs(report: &RunReport, dir: &str) -> Result<(), String> {
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let dump = tpl_trace::drain();
    let writes = [
        ("chrome.trace.json", dump.to_chrome_json()),
        ("metrics.json", report.to_json_with_phases()),
        ("timings.json", report.timings_json()),
    ];
    for (name, contents) in writes {
        let path = dir.join(name);
        std::fs::write(&path, contents)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Renders the method registry for `--list-methods`.
pub fn render_method_list() -> String {
    let registry = MethodRegistry::builtin();
    let mut out = String::new();
    for method in registry.iter() {
        out.push_str(&format!("{:<10} {}\n", method.name(), method.description()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        parse_bench_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_table2_preset() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, BenchArgs::default());
        assert_eq!(args.suite, Suite::Ispd18);
        assert_eq!(args.methods, "dac12,mrtpl");
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(&[
            "--suite",
            "ispd19",
            "--cases",
            "1,3, 5",
            "--methods",
            "decompose,mrtpl",
            "--scale",
            "0.5",
            "--jobs",
            "8",
            "--format",
            "json",
            "--out",
            "report.json",
            "--trace",
            "out/trace",
            "--deterministic",
        ])
        .unwrap();
        assert_eq!(args.suite, Suite::Ispd19);
        assert_eq!(args.cases, vec![1, 3, 5]);
        assert_eq!(args.methods, "decompose,mrtpl");
        assert_eq!(args.scale, 0.5);
        assert_eq!(args.jobs, 8);
        assert_eq!(args.format, Format::Json);
        assert_eq!(args.out.as_deref(), Some("report.json"));
        assert_eq!(args.trace.as_deref(), Some("out/trace"));
        assert!(args.deterministic);
    }

    #[test]
    fn robustness_flags_parse_and_default_off() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.budget, None);
        assert_eq!(args.deadline, None);
        assert_eq!(args.fault_plan, None);
        let args = parse(&[
            "--budget",
            "50000",
            "--deadline",
            "2.5",
            "--fault-plan",
            "42",
        ])
        .unwrap();
        assert_eq!(args.budget, Some(50_000));
        assert_eq!(args.deadline, Some(2.5));
        assert_eq!(args.fault_plan, Some(42));
        // Zero budget is legal: everything degrades immediately.
        assert_eq!(parse(&["--budget", "0"]).unwrap().budget, Some(0));
        assert!(parse(&["--budget", "-1"]).unwrap_err().contains("budget"));
        assert!(parse(&["--deadline", "0"])
            .unwrap_err()
            .contains("deadline"));
        assert!(parse(&["--deadline", "inf"])
            .unwrap_err()
            .contains("deadline"));
        assert!(parse(&["--fault-plan", "x"])
            .unwrap_err()
            .contains("fault-plan"));
    }

    #[test]
    fn timings_sidecar_sits_next_to_the_report() {
        assert_eq!(
            timings_sidecar_path("reports/foo.json"),
            "reports/foo.timings.json"
        );
        assert_eq!(timings_sidecar_path("foo"), "foo.timings.json");
    }

    #[test]
    fn bad_inputs_are_rejected_with_messages() {
        assert!(parse(&["--suite", "ispd20"]).unwrap_err().contains("suite"));
        assert!(parse(&["--cases", "11"]).unwrap_err().contains("range"));
        assert!(parse(&["--cases", "x"]).unwrap_err().contains("invalid"));
        assert!(parse(&["--scale", "-1"]).unwrap_err().contains("scale"));
        assert!(parse(&["--scale", "inf"]).unwrap_err().contains("scale"));
        assert!(parse(&["--scale", "NaN"]).unwrap_err().contains("scale"));
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("job"));
        assert!(parse(&["--format", "xml"]).unwrap_err().contains("format"));
        assert!(parse(&["--a-star", "off"]).unwrap_err().contains("unknown"));
        assert!(parse(&["--scale"]).unwrap_err().contains("missing value"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn execute_produces_a_report_with_both_formats() {
        let args = BenchArgs {
            cases: vec![1],
            scale: 0.25,
            jobs: 2,
            deterministic: true,
            ..BenchArgs::default()
        };
        let report = execute(&args).unwrap();
        assert_eq!(report.records.len(), 2);
        let text = render_text(&report);
        assert!(text.contains("ispd18_like_test1"));
        assert!(text.contains("total dac12"));
        assert!(text.contains("avg mrtpl vs dac12: conflicts"));
        assert!(!text.contains("speedup"), "no speedup from zeroed clocks");
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"ispd18\""));
    }

    #[test]
    fn unknown_method_selection_fails_execute() {
        let args = BenchArgs {
            methods: "nope".to_string(),
            ..BenchArgs::default()
        };
        assert!(execute(&args).unwrap_err().contains("unknown method"));
    }

    #[test]
    fn def_and_lef_flags_parse() {
        let args = parse(&["--def", "designs/chip.def", "--lef", "designs/tech.lef"]).unwrap();
        assert_eq!(args.def.as_deref(), Some("designs/chip.def"));
        assert_eq!(args.lef.as_deref(), Some("designs/tech.lef"));
    }

    #[test]
    fn external_runs_reject_synthetic_only_flags() {
        let base = BenchArgs {
            def: Some("/nonexistent/chip.def".to_string()),
            ..BenchArgs::default()
        };
        let with_cases = BenchArgs {
            cases: vec![1],
            ..base.clone()
        };
        assert!(execute(&with_cases).unwrap_err().contains("--cases"));
        let with_scale = BenchArgs {
            scale: 0.5,
            ..base.clone()
        };
        assert!(execute(&with_scale).unwrap_err().contains("--scale"));
        let lef_only = BenchArgs {
            lef: Some("tech.lef".to_string()),
            def: None,
            ..BenchArgs::default()
        };
        assert!(execute(&lef_only).unwrap_err().contains("--def"));
        // A missing DEF fails with the LEF-discovery error, not a panic.
        assert!(execute(&base).unwrap_err().contains("no LEF"));
    }

    #[test]
    fn method_list_names_all_builtins() {
        let list = render_method_list();
        for name in ["mrtpl", "dac12", "drcu", "decompose"] {
            assert!(list.contains(name));
        }
    }
}
