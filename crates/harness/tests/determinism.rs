//! Scheduler determinism and panic-isolation guarantees.
//!
//! These are the tests behind the `mrtpl-bench` contract: per-case records
//! are byte-identical whatever `--jobs` is, and a crashing method/case pair
//! produces a failed record instead of aborting the run.

use proptest::prelude::*;
use tpl_harness::{
    run_matrix, InputProvenance, JobRecord, Method, MethodRegistry, PreparedCase, RunOptions,
    RunReport,
};
use tpl_ispd::{run_suite, Suite};
use tpl_metrics::CaseRecord;

/// A cheap deterministic stub whose record is a pure function of the case,
/// so property tests can sweep many matrix shapes without routing anything.
struct Stub {
    name: &'static str,
    salt: u64,
}

impl Method for Stub {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        "deterministic test stub"
    }

    fn run(&self, case: &PreparedCase) -> CaseRecord {
        let name = case.case().name();
        let h = name
            .bytes()
            .fold(self.salt, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        CaseRecord {
            case: name.to_string(),
            conflicts: (h % 17) as usize,
            stitches: (h % 101) as usize,
            cost: (h % 1009) as f64 / 3.0,
            runtime_seconds: 0.125,
            ..CaseRecord::default()
        }
    }
}

/// A stub that panics on every case of one suite index.
struct PanicsOnTest3;

impl Method for PanicsOnTest3 {
    fn name(&self) -> &'static str {
        "panics-on-test3"
    }

    fn description(&self) -> &'static str {
        "crashes on test3 to exercise panic isolation"
    }

    fn run(&self, case: &PreparedCase) -> CaseRecord {
        let name = case.case().name();
        assert!(!name.contains("test3"), "synthetic crash on test3");
        CaseRecord {
            case: name.to_string(),
            ..CaseRecord::default()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stub_matrix_records_are_identical_for_any_worker_count(
        jobs in 2usize..=8,
        num_cases in 1usize..=10,
        num_methods in 1usize..=3,
    ) {
        let stubs: Vec<Stub> = (0..num_methods)
            .map(|i| Stub { name: ["a", "b", "c"][i], salt: 0x9e37 + i as u64 })
            .collect();
        let methods: Vec<&dyn Method> = stubs.iter().map(|s| s as &dyn Method).collect();
        let cases = run_suite(Suite::Ispd18, &(1..=num_cases).collect::<Vec<_>>(), 1.0);
        let sequential = run_matrix(
            &methods,
            &cases,
            &RunOptions { jobs: 1, ..RunOptions::default() },
        );
        let parallel = run_matrix(
            &methods,
            &cases,
            &RunOptions { jobs, ..RunOptions::default() },
        );
        prop_assert_eq!(&sequential, &parallel);
        prop_assert_eq!(sequential.len(), num_cases * num_methods);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A budget-limited real run (which trips mid-route for small budgets)
    /// is byte-identical across worker counts: each router charges nodes net
    /// by net, so `--jobs` cannot move where the budget lands.
    #[test]
    fn budget_limited_real_runs_are_identical_across_worker_counts(
        jobs in 2usize..=4,
        budget in 0u64..3000,
    ) {
        let registry = MethodRegistry::builtin();
        let methods = registry.select("mrtpl").unwrap();
        let cases = run_suite(Suite::Ispd18, &[1], 0.2);
        let run = |jobs| {
            run_matrix(&methods, &cases, &RunOptions {
                jobs,
                deterministic: true,
                max_search_nodes: Some(budget),
                ..RunOptions::default()
            })
        };
        let baseline = run(1);
        let wide = run(jobs);
        prop_assert_eq!(&baseline, &wide);
        let report = |records| RunReport {
            suite: "ispd18".to_string(),
            input: InputProvenance::Synthetic,
            scale: 0.2,
            jobs: 1,
            deterministic: true,
            methods: vec!["mrtpl".to_string()],
            records,
        };
        prop_assert_eq!(report(baseline).to_json(), report(wide).to_json());
    }
}

#[test]
fn real_flows_match_between_jobs_1_and_8() {
    // The acceptance matrix of the issue, scaled down: both suites' first
    // case, the Table II method pairing, once sequential and once wide.
    // Deterministic mode zeroes the one wall-clock field; everything else the
    // routers produce is deterministic, so full records must match exactly.
    let registry = MethodRegistry::builtin();
    let methods = registry.select("dac12,mrtpl").unwrap();
    let mut cases = run_suite(Suite::Ispd18, &[1], 0.25);
    cases.extend(run_suite(Suite::Ispd19, &[1], 0.25));

    let sequential = run_matrix(
        &methods,
        &cases,
        &RunOptions {
            jobs: 1,
            deterministic: true,
            ..RunOptions::default()
        },
    );
    let parallel = run_matrix(
        &methods,
        &cases,
        &RunOptions {
            jobs: 8,
            deterministic: true,
            ..RunOptions::default()
        },
    );
    assert_eq!(sequential, parallel);

    // Whole deterministic-mode JSON reports are byte-identical (the jobs
    // field is omitted there, being the one legitimate difference).
    let report = |records: Vec<JobRecord>, jobs: usize| RunReport {
        suite: "mixed".to_string(),
        input: InputProvenance::Synthetic,
        scale: 0.25,
        jobs,
        deterministic: true,
        methods: vec!["dac12".to_string(), "mrtpl".to_string()],
        records,
    };
    assert_eq!(
        report(sequential, 1).to_json(),
        report(parallel, 8).to_json()
    );
}

#[test]
fn a_panicking_method_yields_a_failed_record_without_aborting_the_run() {
    let good = Stub {
        name: "good",
        salt: 7,
    };
    let bad = PanicsOnTest3;
    let methods: Vec<&dyn Method> = vec![&good, &bad];
    let cases = run_suite(Suite::Ispd18, &[2, 3, 4], 1.0);
    let records = run_matrix(
        &methods,
        &cases,
        &RunOptions {
            jobs: 4,
            ..RunOptions::default()
        },
    );
    assert_eq!(records.len(), 6);

    let failed: Vec<&JobRecord> = records.iter().filter(|r| r.error().is_some()).collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].method, "panics-on-test3");
    assert_eq!(failed[0].case, "ispd18_like_test3");
    assert!(failed[0].error().unwrap().contains("synthetic crash"));

    // All five other jobs completed, in input order.
    assert_eq!(records.iter().filter(|r| r.record().is_some()).count(), 5);
    let expected_order = [
        ("good", "ispd18_like_test2"),
        ("panics-on-test3", "ispd18_like_test2"),
        ("good", "ispd18_like_test3"),
        ("panics-on-test3", "ispd18_like_test3"),
        ("good", "ispd18_like_test4"),
        ("panics-on-test3", "ispd18_like_test4"),
    ];
    for (record, (method, case)) in records.iter().zip(expected_order) {
        assert_eq!(record.method, method);
        assert_eq!(record.case, case);
    }

    // The failure still shows up in the JSON report as a failed record.
    let report = RunReport {
        suite: "ispd18".to_string(),
        input: InputProvenance::Synthetic,
        scale: 1.0,
        jobs: 4,
        deterministic: false,
        methods: vec!["good".to_string(), "panics-on-test3".to_string()],
        records,
    };
    let json = report.to_json();
    assert!(json.contains("\"status\": \"failed\""));
    assert!(json.contains("synthetic crash"));
    assert_eq!(report.failures_of("panics-on-test3"), 1);
}
