//! Scheduler × `tpl-trace` integration: per-job phase aggregates, panic
//! origin spans, and the guarantee that tracing never touches the primary
//! report.
//!
//! Tests that flip the global trace switch hold [`trace_lock`] so they never
//! observe each other's sessions; the round-trip property test needs no
//! tracing at all.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use tpl_harness::json::JsonValue;
use tpl_harness::{
    run_matrix, InputProvenance, Method, MethodRegistry, PreparedCase, RunOptions, RunReport,
    TaskPhases,
};
use tpl_ispd::{run_suite, Suite};
use tpl_metrics::CaseRecord;
use tpl_trace::{PhaseStat, ValueStat};

/// Serialises tests that enable/disable the process-wide trace registry.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A stub whose trace events are a pure function of the case, so phase
/// aggregates must be identical whatever the worker count.
struct TracedStub;

impl Method for TracedStub {
    fn name(&self) -> &'static str {
        "traced-stub"
    }

    fn description(&self) -> &'static str {
        "records deterministic trace events per case"
    }

    fn run(&self, case: &PreparedCase) -> CaseRecord {
        let name = case.case().name().to_string();
        {
            let _work = tpl_trace::span!("stub.work", len = name.len());
            for byte in name.bytes() {
                tpl_trace::counter!("stub.bytes", u64::from(byte));
            }
            tpl_trace::value!("stub.len", name.len());
        }
        CaseRecord {
            case: name,
            ..CaseRecord::default()
        }
    }
}

/// A stub that panics inside a named span on every case.
struct PanicsInSpan;

impl Method for PanicsInSpan {
    fn name(&self) -> &'static str {
        "panics-in-span"
    }

    fn description(&self) -> &'static str {
        "crashes inside stub.crash to exercise panic origin attribution"
    }

    fn run(&self, case: &PreparedCase) -> CaseRecord {
        let _outer = tpl_trace::span!("stub.outer");
        let _inner = tpl_trace::span!("stub.crash");
        panic!("synthetic crash on {}", case.case().name());
    }
}

#[test]
fn phases_attach_per_job_and_are_worker_count_invariant() {
    let _guard = trace_lock();
    tpl_trace::enable();
    let stub = TracedStub;
    let methods: Vec<&dyn Method> = vec![&stub];
    let cases = run_suite(Suite::Ispd18, &[1, 2, 3, 4], 0.25);
    let baseline = run_matrix(
        &methods,
        &cases,
        &RunOptions {
            jobs: 1,
            deterministic: true,
            trace: true,
            ..RunOptions::default()
        },
    );
    for record in &baseline {
        let phases = record.phases.as_ref().expect("traced jobs carry phases");
        // The scheduler's own execute span plus the stub's events, all
        // attributed to this job's task.
        assert_eq!(
            phases.span("harness.execute").map(|s| s.count),
            Some(1),
            "{phases:?}"
        );
        assert_eq!(phases.span("stub.work").map(|s| s.count), Some(1));
        let expected: u64 = record.case.bytes().map(u64::from).sum();
        assert_eq!(phases.counter("stub.bytes"), Some(expected));
        // Deterministic mode strips wall-clock durations.
        assert_eq!(phases.span("stub.work").map(|s| s.nanos), Some(0));
    }
    for jobs in [2, 4, 8] {
        let parallel = run_matrix(
            &methods,
            &cases,
            &RunOptions {
                jobs,
                deterministic: true,
                trace: true,
                ..RunOptions::default()
            },
        );
        // JobRecord equality covers outcome AND phases (not wall time).
        assert_eq!(baseline, parallel, "jobs = {jobs}");
    }
    tpl_trace::disable();
}

#[test]
fn real_flow_phases_match_between_worker_counts() {
    let _guard = trace_lock();
    tpl_trace::enable();
    let registry = MethodRegistry::builtin();
    let methods = registry.select("dac12,mrtpl").unwrap();
    let cases = run_suite(Suite::Ispd18, &[1], 0.25);
    let run = |jobs| {
        run_matrix(
            &methods,
            &cases,
            &RunOptions {
                jobs,
                deterministic: true,
                trace: true,
                ..RunOptions::default()
            },
        )
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(sequential, parallel);
    for record in &sequential {
        let phases = record.phases.as_ref().expect("traced jobs carry phases");
        assert!(!phases.is_empty());
        assert_eq!(phases.span("harness.execute").map(|s| s.count), Some(1));
        // The instrumented Mr.TPL flow runs the core detailed router, which
        // traces every net it routes; dac12 reports its search effort.
        if record.method == "mrtpl" {
            assert!(
                phases.span("core.route_net").map(|s| s.count).unwrap_or(0) > 0,
                "no core.route_net spans in {phases:?}"
            );
        }
        if record.method == "dac12" {
            assert!(
                phases.counter("dac12.search_nodes").unwrap_or(0) > 0,
                "no dac12.search_nodes counter in {phases:?}"
            );
        }
    }
    tpl_trace::disable();
}

/// A stub that panics inside its own distinctly-named innermost span, so
/// attribution mix-ups between concurrent jobs are detectable.
struct PanicsInOwnSpan {
    name: &'static str,
    span: &'static str,
}

impl Method for PanicsInOwnSpan {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        "crashes inside a method-specific span"
    }

    fn run(&self, _case: &PreparedCase) -> CaseRecord {
        let _outer = tpl_trace::span!("stub.outer");
        let _inner = tpl_trace::span(self.span);
        panic!("synthetic crash in {}", self.span);
    }
}

#[test]
fn concurrent_failures_each_carry_their_own_innermost_phase() {
    let _guard = trace_lock();
    tpl_trace::enable();
    // Three always-crashing methods with distinct innermost spans over two
    // cases, four workers: six failing jobs racing on panic-span capture.
    // Each failed record must name its own method's span — never a sibling's
    // and never the outer span.
    let crashers = [
        PanicsInOwnSpan {
            name: "crash-a",
            span: "stub.crash_a",
        },
        PanicsInOwnSpan {
            name: "crash-b",
            span: "stub.crash_b",
        },
        PanicsInOwnSpan {
            name: "crash-c",
            span: "stub.crash_c",
        },
    ];
    let methods: Vec<&dyn Method> = crashers.iter().map(|c| c as &dyn Method).collect();
    let cases = run_suite(Suite::Ispd18, &[1, 2], 0.25);
    let records = run_matrix(
        &methods,
        &cases,
        &RunOptions {
            jobs: 4,
            deterministic: true,
            trace: true,
            ..RunOptions::default()
        },
    );
    tpl_trace::disable();
    assert_eq!(records.len(), 6);
    for record in &records {
        let crasher = crashers
            .iter()
            .find(|c| c.name == record.method)
            .expect("record names a known method");
        assert_eq!(
            record.failure_phase(),
            Some(crasher.span),
            "method {}",
            record.method
        );
    }
}

#[test]
fn panic_origin_span_lands_in_record_and_metrics_json() {
    let _guard = trace_lock();
    tpl_trace::enable();
    let bad = PanicsInSpan;
    let good = TracedStub;
    let methods: Vec<&dyn Method> = vec![&good, &bad];
    let cases = run_suite(Suite::Ispd18, &[1], 0.25);
    let records = run_matrix(
        &methods,
        &cases,
        &RunOptions {
            jobs: 2,
            deterministic: true,
            trace: true,
            ..RunOptions::default()
        },
    );
    tpl_trace::disable();
    assert_eq!(records.len(), 2);
    let failed = records
        .iter()
        .find(|r| r.error().is_some())
        .expect("the panicking method failed");
    assert_eq!(failed.failure_phase(), Some("stub.crash"));

    let report = RunReport {
        suite: "ispd18".to_string(),
        input: InputProvenance::Synthetic,
        scale: 0.25,
        jobs: 2,
        deterministic: true,
        methods: vec!["traced-stub".to_string(), "panics-in-span".to_string()],
        records,
    };
    // The primary report never mentions the phase; the metrics export does.
    assert!(!report.to_json().contains("stub.crash"));
    let rich = report.to_json_with_phases();
    assert!(rich.contains("\"phase\": \"stub.crash\""));
    assert!(JsonValue::parse(&rich).is_ok());
}

#[test]
fn disabled_tracing_adds_nothing_to_any_export() {
    let _guard = trace_lock();
    tpl_trace::disable();
    let stub = TracedStub;
    let bad = PanicsInSpan;
    let methods: Vec<&dyn Method> = vec![&stub, &bad];
    let cases = run_suite(Suite::Ispd18, &[1], 0.25);
    // `trace: true` without a globally enabled registry is a no-op.
    let records = run_matrix(
        &methods,
        &cases,
        &RunOptions {
            jobs: 2,
            deterministic: true,
            trace: true,
            ..RunOptions::default()
        },
    );
    assert!(records.iter().all(|r| r.phases.is_none()));
    assert!(records.iter().all(|r| r.failure_phase().is_none()));
    let report = RunReport {
        suite: "ispd18".to_string(),
        input: InputProvenance::Synthetic,
        scale: 0.25,
        jobs: 2,
        deterministic: true,
        methods: vec!["traced-stub".to_string(), "panics-in-span".to_string()],
        records,
    };
    // With nothing traced, the "rich" export is byte-identical to the
    // primary report: Disabled mode adds no fields anywhere.
    assert_eq!(report.to_json(), report.to_json_with_phases());
    assert!(!report.to_json().contains("phases"));
}

/// Phase-name pool for the round-trip property, including names that need
/// JSON escaping.
const NAMES: [&str; 8] = [
    "core.route",
    "a",
    "stub \"quoted\"",
    "back\\slash",
    "x.y_z",
    "par.worker",
    "tab\there",
    "harness.execute",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `TaskPhases::to_json` output parses with the harness JSON parser and
    /// preserves every count, sum and duration.
    #[test]
    fn task_phases_json_round_trips_through_harness_parser(
        raw_spans in prop::collection::vec((0usize..8, 0u64..1000, 0u64..10_000_000_000), 0..5),
        raw_counters in prop::collection::vec((0usize..8, 0u64..1_000_000), 0..5),
        raw_values in prop::collection::vec((0usize..8, 1u64..100, -1000i64..1000, -1000i64..1000), 0..5),
    ) {
        // The shim has no map strategy; dedup by name into sorted maps here.
        let spans: std::collections::BTreeMap<String, (u64, u64)> = raw_spans
            .into_iter()
            .map(|(n, count, nanos)| (NAMES[n].to_string(), (count, nanos)))
            .collect();
        let counters: std::collections::BTreeMap<String, u64> = raw_counters
            .into_iter()
            .map(|(n, sum)| (NAMES[n].to_string(), sum))
            .collect();
        let values: std::collections::BTreeMap<String, (u64, i64, i64)> = raw_values
            .into_iter()
            .map(|(n, count, a, b)| (NAMES[n].to_string(), (count, a, b)))
            .collect();
        let phases = TaskPhases {
            spans: spans
                .iter()
                .map(|(n, &(count, nanos))| (n.clone(), PhaseStat { count, nanos }))
                .collect(),
            counters: counters.iter().map(|(n, &v)| (n.clone(), v)).collect(),
            values: values
                .iter()
                .map(|(n, &(count, a, b))| {
                    (n.clone(), ValueStat { count, sum: a.saturating_add(b), min: a.min(b), max: a.max(b) })
                })
                .collect(),
        };
        let doc = JsonValue::parse(&phases.to_json())
            .expect("TaskPhases::to_json emits parseable JSON");

        let span_section = doc.get("spans");
        prop_assert_eq!(span_section.is_some(), !spans.is_empty());
        for (name, &(count, nanos)) in &spans {
            let stat = span_section.unwrap().get(name).expect("span present");
            prop_assert_eq!(stat.get("count").unwrap().as_f64(), Some(count as f64));
            let seconds = stat.get("seconds").unwrap().as_f64().unwrap();
            prop_assert!((seconds - nanos as f64 / 1e9).abs() < 1e-9);
        }
        for (name, &sum) in &counters {
            let v = doc.get("counters").unwrap().get(name).expect("counter present");
            prop_assert_eq!(v.as_f64(), Some(sum as f64));
        }
        for (name, &(count, a, b)) in &values {
            let stat = doc.get("values").unwrap().get(name).expect("value present");
            prop_assert_eq!(stat.get("count").unwrap().as_f64(), Some(count as f64));
            prop_assert_eq!(stat.get("sum").unwrap().as_f64(), Some(a.saturating_add(b) as f64));
            prop_assert_eq!(stat.get("min").unwrap().as_f64(), Some(a.min(b) as f64));
            prop_assert_eq!(stat.get("max").unwrap().as_f64(), Some(a.max(b) as f64));
        }
    }
}
