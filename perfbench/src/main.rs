//! Wall-clock routing benchmark.  From the repository root:
//!
//! ```bash
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload mrtpl-ispd18 --seed 0 --seconds 30 --trace 0
//! ```
//!
//! A run makes its inputs from `--seed`: as many salted replicas of the
//! workload's case list as fill `--seconds`.  It repeats the set-up, routes
//! every replica once, checks every case's result, and prints as its last
//! line `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! `README.md` in this directory explains the workloads and metrics.

mod host;
mod probe;
mod selftime;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tpl_trace::TaskPhases;
use workload::{CaseCounts, CaseRun, Inputs, Prepared, SetupCounts, Size, Workload};

const USAGE: &str = "usage: perfbench --workload <mrtpl-ispd18|dac12-ispd18|decompose-ispd19> \
--seed <n> --seconds <s> --trace <0|1> [--replicas <n>] [--scale <f>] [--cases <n>]";

/// End-to-end metrics, printed with `--trace 0`.  All are per replica: the
/// set-up time is the median over set-up repeats, the rest are means over
/// replicas.
const END_TO_END: [(&str, &str); 8] = [
    ("route_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("stitches", "count"),
    ("cost", "score"),
    ("wirelength", "dbu"),
    ("vias", "count"),
    ("routed_nets", "count"),
];

/// Per-layer metrics, printed with `--trace 1`; times and counts are means
/// per replica.  A layer the workload never enters reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("quality.conflicts", "count"),
    ("ispd.generate_s", "s"),
    ("ispd.score_s", "s"),
    ("lefdef.parse_s", "s"),
    ("lefdef.parse_mb_per_s", "MB/s"),
    ("lefdef.lower_s", "s"),
    ("global.route_s", "s"),
    ("global.search_nodes", "count"),
    ("global.maze_routed", "count"),
    ("global.ns_per_node", "ns"),
    ("core.route_s", "s"),
    ("core.search_nodes", "count"),
    ("core.ns_per_node", "ns"),
    ("core.rrr_iterations", "count"),
    ("core.seg_sets", "count"),
    ("core.rrr_yield", "ratio"),
    ("core.color_search_s", "s"),
    ("core.assign_s", "s"),
    ("core.conflict_detect_s", "s"),
    ("core.rip_up_s", "s"),
    ("core.pruned_per_node", "ratio"),
    ("dac12.route_s", "s"),
    ("dac12.two_pin_connections", "count"),
    ("dac12.rrr_iterations", "count"),
    ("dac12.ms_per_connection", "ms"),
    ("drcu.route_s", "s"),
    ("drcu.rrr_iterations", "count"),
    ("drcu.remaining_overlaps", "count"),
    ("decompose.run_s", "s"),
    ("decompose.features", "count"),
    ("decompose.edges", "count"),
    ("decompose.components", "count"),
    ("host.probe_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.setups", "count"),
];

/// Share of `--seconds` spent repeating the set-up.
const SETUP_SHARE: f64 = 0.1;
/// Set-up repeats at least this often, whatever `--seconds` says ...
const MIN_SETUPS: usize = 5;
/// ... and at most this often.
const MAX_SETUPS: usize = 200;
/// Share of `--seconds` the routing pass is sized to fill.
const ROUTE_SHARE: f64 = 0.8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    replicas: Option<usize>,
    size: Size,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut replicas, mut size) = (None, Size::default());
    let positive = |flag: &str, text: String| match text.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("{flag} takes a positive number, not {text}")),
    };
    let count = |flag: &str, text: String| match text.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} takes a whole number above 0, not {text}")),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(positive(&flag, value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--replicas" => replicas = Some(count(&flag, value)?),
            "--scale" => size.scale = Some(positive(&flag, value)?),
            "--cases" => size.cases = Some(count(&flag, value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        replicas,
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host::fingerprint_json());
    let result = run(&args);
    for failure in &result.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", result.to_json(args.trace));
    ExitCode::SUCCESS
}

/// Named metric values.
type Metrics = BTreeMap<&'static str, f64>;

/// What a run prints.
struct RunResult {
    attempted: usize,
    failures: Vec<String>,
    metrics: Metrics,
}

impl RunResult {
    fn to_json(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

fn run(args: &Args) -> RunResult {
    let replicas = args.replicas.unwrap_or_else(|| {
        let fill = args.seconds * ROUTE_SHARE / args.workload.nominal_replica_seconds();
        (fill as usize).max(1)
    });
    let inputs = workload::make_inputs(args.workload, args.seed, args.size, replicas);
    let share = Duration::from_secs_f64(args.seconds * SETUP_SHARE);
    let setup = match repeat_setup(&inputs, args.trace, share) {
        Ok(setup) => setup,
        Err(failure) => {
            return RunResult {
                attempted: inputs.len(),
                failures: vec![failure],
                metrics: Metrics::new(),
            }
        }
    };

    // Route every replica once, then repeat to check determinism: replica 0
    // untraced, or with --trace 1 the first half of the replicas traced, so
    // a traced run lasts as long as an untraced one.
    let per_replica = inputs.cases_per_replica();
    let (first, repeat, layers) = if args.trace {
        let half = &setup.prepared[..per_replica * (replicas / 2).max(1)];
        let first = route(args.workload, half);
        let (repeat, layers) = traced_pass(args.workload, half, per_replica);
        (first, repeat, Some(layers))
    } else {
        let first = route(args.workload, &setup.prepared);
        let repeat = route(args.workload, &setup.prepared[..per_replica]);
        (first, repeat, None)
    };

    let mut failures = Vec::new();
    for (index, run) in first.cases.iter().chain(&repeat.cases).enumerate() {
        let case = index % first.cases.len();
        let label = format!(
            "{} (replica {}, pass {})",
            workload::case_name(&setup.prepared[case]),
            case / per_replica,
            index / first.cases.len()
        );
        match (&run.result, &first.cases[case].result) {
            (Err(failure), _) => failures.push(format!("{label}: {failure}")),
            (Ok(counts), Ok(reference)) if counts != reference => {
                failures.push(format!("{label}: counters differ between repeats"))
            }
            _ => {}
        }
    }
    for (case, run) in setup.prepared.iter().zip(&first.cases).take(per_replica) {
        if let Ok(c) = &run.result {
            println!(
                "replica 0 {} conflicts={} stitches={} cost={} wirelength={} vias={} \
                 search_nodes={} rrr_iterations={} seconds={:.4}",
                workload::case_name(case),
                c.conflicts,
                c.stitches,
                c.cost,
                c.wirelength,
                c.vias,
                c.core_search_nodes,
                c.rrr_iterations,
                run.seconds
            );
        }
    }

    let n = replicas as f64;
    let metrics = match layers {
        Some(mut metrics) => {
            metrics.extend(medians(setup.layers.iter()));
            let probes = setup
                .probes
                .iter()
                .chain(&first.probes)
                .chain(&repeat.probes);
            metrics.insert("host.probe_ms", median(probes.copied()) * 1e3);
            metrics.insert("trace.overhead", repeat.scaled_s / first.scaled_s - 1.0);
            metrics.insert("trace.setups", setup.layers.len() as f64);
            metrics
        }
        None => {
            let counts: Vec<&CaseCounts> = first
                .cases
                .iter()
                .filter_map(|c| c.result.as_ref().ok())
                .collect();
            let mean = |f: fn(&CaseCounts) -> f64| counts.iter().map(|c| f(c)).sum::<f64>() / n;
            Metrics::from([
                ("route_s", first.scaled_s / n),
                ("setup_s", median(setup.scaled_s.iter().map(|s| s / n))),
                ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0)),
                ("stitches", mean(|c| c.stitches as f64)),
                ("cost", mean(|c| c.cost)),
                ("wirelength", mean(|c| c.wirelength as f64)),
                ("vias", mean(|c| c.vias as f64)),
                ("routed_nets", mean(|c| c.routed_nets as f64)),
            ])
        }
    };
    RunResult {
        attempted: first.cases.len() + repeat.cases.len(),
        failures,
        metrics,
    }
}

/// Scales wall-clock seconds to the reference host's speed, given the probe
/// times taken just before and just after them.
fn scale(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * probe::REFERENCE_S * 2.0 / (before + after)
}

/// A routing pass, probing the host before each case and after the last.
struct Pass {
    cases: Vec<CaseRun>,
    /// Seconds summed over cases, each scaled by the probes around it.
    scaled_s: f64,
    probes: Vec<f64>,
}

fn route(workload: Workload, prepared: &[Prepared]) -> Pass {
    let mut pass = Pass {
        cases: Vec::with_capacity(prepared.len()),
        scaled_s: 0.0,
        probes: vec![probe::seconds()],
    };
    for case in prepared {
        let run = workload::run_case(workload, case);
        let before = pass.probes[pass.probes.len() - 1];
        let after = probe::seconds();
        pass.probes.push(after);
        pass.scaled_s += scale(run.seconds, before, after);
        pass.cases.push(run);
    }
    pass
}

/// The repeated set-up: the first repeat's cases, every repeat's time
/// scaled by the probes around it, and with tracing the per-layer metrics
/// of every repeat.
struct Setup {
    prepared: Vec<Prepared>,
    scaled_s: Vec<f64>,
    probes: Vec<f64>,
    layers: Vec<Metrics>,
}

fn repeat_setup(inputs: &Inputs, traced: bool, share: Duration) -> Result<Setup, String> {
    let start = Instant::now();
    let mut first: Option<(Vec<Prepared>, SetupCounts)> = None;
    let mut scaled_s = Vec::new();
    let mut probes = vec![probe::seconds()];
    let mut layers = Vec::new();
    while scaled_s.len() < MIN_SETUPS || (start.elapsed() < share && scaled_s.len() < MAX_SETUPS) {
        if traced {
            tpl_trace::enable();
        }
        let timer = Instant::now();
        let (prepared, counts) = workload::set_up(inputs)?;
        let seconds = timer.elapsed().as_secs_f64();
        if traced {
            tpl_trace::disable();
        }
        let before = probes[probes.len() - 1];
        let after = probe::seconds();
        probes.push(after);
        scaled_s.push(scale(seconds, before, after));
        if traced {
            let speed = scale(1.0, before, after);
            let phases = tpl_trace::global_phases();
            layers.push(setup_layers(&phases, speed, &counts, inputs));
        }
        match &first {
            None => first = Some((prepared, counts)),
            Some((_, reference)) if *reference != counts => {
                return Err("set-up counters differ between repeats".to_string())
            }
            Some(_) => {}
        }
    }
    let (prepared, _) = first.expect("set-up ran at least once");
    Ok(Setup {
        prepared,
        scaled_s,
        probes,
        layers,
    })
}

fn span_s(phases: &TaskPhases, name: &str) -> f64 {
    phases.span(name).map_or(0.0, |s| s.nanos as f64 / 1e9)
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer set-up metrics of one repeat, per replica, with span times
/// multiplied by `speed` to the reference host's speed.
fn setup_layers(phases: &TaskPhases, speed: f64, counts: &SetupCounts, inputs: &Inputs) -> Metrics {
    let n = inputs.replicas() as f64;
    let span_s = |name: &str| span_s(phases, name) * speed;
    let parse_s = span_s("bench.lefdef.parse");
    let global_s = span_s("bench.global.route");
    let nodes = counts.global_search_nodes as f64;
    Metrics::from([
        ("ispd.generate_s", span_s("bench.ispd.generate") / n),
        ("lefdef.parse_s", parse_s / n),
        (
            "lefdef.parse_mb_per_s",
            ratio(inputs.text_bytes() as f64 / 1e6, parse_s),
        ),
        ("lefdef.lower_s", span_s("bench.lefdef.lower") / n),
        ("global.route_s", global_s / n),
        ("global.search_nodes", nodes / n),
        ("global.maze_routed", counts.global_maze_routed as f64 / n),
        ("global.ns_per_node", ratio(global_s * 1e9, nodes)),
    ])
}

/// One routing pass with tracing on, and the per-layer metrics it yields,
/// per replica, with span times scaled like the pass.
fn traced_pass(workload: Workload, prepared: &[Prepared], per_replica: usize) -> (Pass, Metrics) {
    tpl_trace::enable();
    let pass = route(workload, prepared);
    tpl_trace::disable();
    let phases = tpl_trace::global_phases();
    let own = selftime::self_seconds(&tpl_trace::drain().to_chrome_json())
        .expect("the trace exporter writes valid Chrome JSON");
    let n = (prepared.len() / per_replica) as f64;
    let raw_s: f64 = pass.cases.iter().map(|c| c.seconds).sum();
    let speed = ratio(pass.scaled_s, raw_s);
    let own_s = |name: &str| own.get(name).copied().unwrap_or(0.0) * speed / n;
    let span_s = |name: &str| span_s(&phases, name) * speed / n;
    let counts: Vec<&CaseCounts> = pass
        .cases
        .iter()
        .filter_map(|c| c.result.as_ref().ok())
        .collect();
    let sum = |f: fn(&CaseCounts) -> usize| counts.iter().map(|c| f(c)).sum::<usize>() as f64 / n;
    let rrr = sum(|c| c.rrr_iterations);

    let mut metrics = Metrics::from([
        ("quality.conflicts", sum(|c| c.conflicts)),
        ("ispd.score_s", span_s("bench.ispd.score")),
    ]);
    match workload {
        Workload::MrTpl => {
            let route_s = span_s("bench.core.route");
            let nodes = sum(|c| c.core_search_nodes);
            let initial = sum(|c| c.core_initial_conflicts);
            let pruned = phases.counter("core.search_frontier_pruned").unwrap_or(0) as f64;
            let popped = phases.counter("core.search_nodes").unwrap_or(0) as f64;
            metrics.extend([
                ("core.route_s", route_s),
                ("core.search_nodes", nodes),
                ("core.ns_per_node", ratio(route_s * 1e9, nodes)),
                ("core.rrr_iterations", rrr),
                ("core.seg_sets", sum(|c| c.core_seg_sets)),
                (
                    "core.rrr_yield",
                    ratio(initial - sum(|c| c.conflicts), initial),
                ),
                ("core.color_search_s", own_s("core.color_search")),
                ("core.assign_s", own_s("core.assign")),
                ("core.conflict_detect_s", own_s("core.conflict_detect")),
                ("core.rip_up_s", own_s("core.rip_up")),
                ("core.pruned_per_node", ratio(pruned, popped)),
            ]);
        }
        Workload::Dac12 => {
            let route_s = span_s("bench.dac12.route");
            let connections = sum(|c| c.dac12_connections);
            metrics.extend([
                ("dac12.route_s", route_s),
                ("dac12.two_pin_connections", connections),
                ("dac12.rrr_iterations", rrr),
                ("dac12.ms_per_connection", ratio(route_s * 1e3, connections)),
            ]);
        }
        Workload::Decompose => {
            metrics.extend([
                ("drcu.route_s", span_s("bench.drcu.route")),
                ("drcu.rrr_iterations", rrr),
                (
                    "drcu.remaining_overlaps",
                    sum(|c| c.drcu_remaining_overlaps),
                ),
                ("decompose.run_s", span_s("bench.decompose.run")),
                ("decompose.features", sum(|c| c.decompose_features)),
                ("decompose.edges", sum(|c| c.decompose_edges)),
                ("decompose.components", sum(|c| c.decompose_components)),
            ]);
        }
    }
    (pass, metrics)
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Per-name medians over several metric sets.
fn medians<'a>(sets: impl Iterator<Item = &'a Metrics>) -> Metrics {
    let mut columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for set in sets {
        for (name, value) in set {
            columns.entry(name).or_default().push(*value);
        }
    }
    columns
        .into_iter()
        .map(|(name, values)| (name, median(values.into_iter())))
        .collect()
}
