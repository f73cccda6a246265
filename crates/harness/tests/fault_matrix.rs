//! The fault-matrix suite: no seeded fault plan may wedge the scheduler,
//! lose a worker, or corrupt a report.
//!
//! `tpl-fault` plans are pure functions of `(seed, site, scope, key)` and the
//! harness pins every scope (`prepare/<case>`, `<method>/<case>`) to the
//! job rather than the thread, so a faulted run is still byte-deterministic
//! across `--jobs`.  Each test here runs real flows under a plan that injects
//! panics, delays and budget trips, and asserts the three invariants:
//!
//! 1. `run_matrix` returns (a wedged scheduler or a lost worker would hang
//!    the test binary instead),
//! 2. every job slot is filled with a record — ok, degraded or failed,
//! 3. the JSON report parses and carries a valid `outcome` on every
//!    record.
//!
//! The fault plan is process-global state, so everything runs inside one
//! mutex-serialised helper and the plan is always cleared afterwards.

use std::sync::Mutex;
use tpl_harness::json::JsonValue;
use tpl_harness::{run_matrix, InputProvenance, JobRecord, MethodRegistry, RunOptions, RunReport};
use tpl_ispd::{run_suite, Case, Suite};

/// Serialises every test that touches the process-global fault plan.
static FAULT_PLAN: Mutex<()> = Mutex::new(());

/// Clears the plan even if the test body panics.
struct ClearPlan;

impl Drop for ClearPlan {
    fn drop(&mut self) {
        tpl_fault::clear();
    }
}

fn tiny_suite() -> Vec<Case> {
    run_suite(Suite::Ispd18, &[1, 2], 0.2)
}

fn run_with_plan(seed: Option<u64>, jobs: usize, budget: Option<u64>) -> Vec<JobRecord> {
    match seed {
        Some(seed) => tpl_fault::install(seed),
        None => tpl_fault::clear(),
    }
    let registry = MethodRegistry::builtin();
    let methods = registry.select("dac12,mrtpl").unwrap();
    let cases = tiny_suite();
    let records = run_matrix(
        &methods,
        &cases,
        &RunOptions {
            jobs,
            deterministic: true,
            max_search_nodes: budget,
            ..RunOptions::default()
        },
    );
    assert_eq!(records.len(), methods.len() * cases.len());
    records
}

fn report(records: Vec<JobRecord>) -> RunReport {
    RunReport {
        suite: "ispd18".to_string(),
        input: InputProvenance::Synthetic,
        scale: 0.2,
        jobs: 1,
        deterministic: true,
        methods: vec!["dac12".to_string(), "mrtpl".to_string()],
        records,
    }
}

/// Parses a report and checks the outcome of every record.
fn assert_report_valid(json: &str) {
    let parsed = JsonValue::parse(json).expect("fault-plan report must stay valid JSON");
    let records = parsed
        .get("records")
        .and_then(JsonValue::as_array)
        .expect("report has a records array");
    assert!(!records.is_empty());
    for record in records {
        let status = record.get("status").and_then(JsonValue::as_str).unwrap();
        assert!(["ok", "failed"].contains(&status), "status {status}");
        let outcome = record.get("outcome").and_then(JsonValue::as_str).unwrap();
        assert!(
            ["complete", "degraded", "aborted", "failed"].contains(&outcome),
            "outcome {outcome}"
        );
        assert_eq!(status == "failed", outcome == "failed");
    }
}

#[test]
fn fault_plans_never_wedge_the_scheduler_and_reports_stay_valid() {
    let _serial = FAULT_PLAN.lock().unwrap_or_else(|p| p.into_inner());
    let _clear = ClearPlan;
    // A spread of seeds: small, large, and bit-heavy, each with and without
    // a node budget so both the fault-driven and the budget-driven degraded
    // paths are exercised.
    for seed in [0, 1, 7, 42, 0xDEAD_BEEF, u64::MAX] {
        for budget in [None, Some(500)] {
            let records = run_with_plan(Some(seed), 2, budget);
            assert_report_valid(&report(records).to_json());
        }
    }
}

#[test]
fn faulted_runs_are_byte_identical_across_worker_counts() {
    let _serial = FAULT_PLAN.lock().unwrap_or_else(|p| p.into_inner());
    let _clear = ClearPlan;
    // Fault decisions hash the job-pinned scope, never the thread, so the
    // same plan over the same matrix must produce the same bytes whatever
    // the worker counts are.
    for seed in [3, 0xC0FFEE] {
        let sequential = run_with_plan(Some(seed), 1, Some(400));
        let parallel = run_with_plan(Some(seed), 4, Some(400));
        assert_eq!(sequential, parallel, "seed {seed}");
        assert_eq!(
            report(sequential).to_json(),
            report(parallel).to_json(),
            "seed {seed}"
        );
    }
}

#[test]
fn budgeted_runs_without_faults_are_byte_identical_across_worker_counts() {
    let _serial = FAULT_PLAN.lock().unwrap_or_else(|p| p.into_inner());
    let _clear = ClearPlan;
    // The budget path alone (no fault plan): nodes are charged net by net,
    // so a budget-limited run is deterministic in the matrix worker count.
    for budget in [0, 200, 5_000] {
        let sequential = run_with_plan(None, 1, Some(budget));
        let parallel = run_with_plan(None, 4, Some(budget));
        assert_eq!(sequential, parallel, "budget {budget}");
        assert_eq!(
            report(sequential).to_json(),
            report(parallel).to_json(),
            "budget {budget}"
        );
    }
}

#[test]
fn a_zero_budget_degrades_but_still_reports_every_case() {
    let _serial = FAULT_PLAN.lock().unwrap_or_else(|p| p.into_inner());
    let _clear = ClearPlan;
    let records = run_with_plan(None, 2, Some(0));
    for record in &records {
        let case = record.record().expect("zero budget degrades, never fails");
        if record.method == "mrtpl" {
            assert!(
                !case.outcome.is_complete(),
                "a zero-budget mrtpl run cannot complete"
            );
        }
    }
    assert_report_valid(&report(records).to_json());
}
