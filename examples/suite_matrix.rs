//! Fan a method × case matrix over worker threads with the `tpl-harness`
//! scheduler and print both the per-job records and the JSON report.
//!
//! ```bash
//! cargo run --release --example suite_matrix [case-index] [scale]
//! ```
//!
//! Runs the Table II method pairing (DAC'12 baseline vs Mr.TPL) on the given
//! case of both ISPD-like suites with two workers — the smallest end-to-end
//! tour of the execution engine behind `mrtpl-bench`.

use mr_tpl::harness::{run_matrix, InputProvenance, MethodRegistry, RunOptions, RunReport};
use mr_tpl::ispd::{run_suite, Suite};

fn main() {
    let mut args = std::env::args().skip(1);
    let case_idx: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .filter(|i| (1..=10).contains(i))
        .unwrap_or(1);
    let scale: f64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .unwrap_or(0.5);

    let registry = MethodRegistry::builtin();
    let methods = registry.select("dac12,mrtpl").expect("built-in methods");
    let mut cases = run_suite(Suite::Ispd18, &[case_idx], scale);
    cases.extend(run_suite(Suite::Ispd19, &[case_idx], scale));

    let options = RunOptions {
        jobs: 2,
        ..RunOptions::default()
    };
    let records = run_matrix(&methods, &cases, &options);

    println!("{} jobs over {} workers:", records.len(), options.jobs);
    for job in &records {
        match job.record() {
            Some(r) => println!(
                "  {:<28} {:<8} conflicts {:4}  stitches {:4}  cost {:.4e}  {:.2}s",
                job.case, job.method, r.conflicts, r.stitches, r.cost, r.runtime_seconds
            ),
            None => println!(
                "  {:<28} {:<8} FAILED: {}",
                job.case,
                job.method,
                job.error().unwrap_or("?")
            ),
        }
    }

    let report = RunReport {
        suite: "ispd18+ispd19".to_string(),
        input: InputProvenance::Synthetic,
        scale,
        jobs: options.jobs,
        deterministic: options.deterministic,
        methods: methods.iter().map(|m| m.name().to_string()).collect(),
        records,
    };
    println!("\nJSON report:\n{}", report.to_json());
}
