//! Quick self-test of the benchmark at a tiny scale: one ×0.25 case per
//! workload, two replicas.  It exercises set-up, the output checks, the
//! traced run and the JSON result line, and checks the printed metrics
//! against `BENCHMARK.json`.
//!
//! ```bash
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use mr_tpl::harness::json::JsonValue;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["mrtpl-ispd18", "dac12-ispd18", "decompose-ispd19"];

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// Runs one tiny workload and returns its parsed result line.
fn tiny_run(workload: &str, trace: &str) -> JsonValue {
    let args = format!(
        "--workload {workload} --seed 7 --seconds 1 --trace {trace} \
         --scale 0.25 --cases 1 --replicas 2"
    );
    let out = bench(&args.split_whitespace().collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("host {\"nproc\": "),
        "host fingerprint first: {stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = declared(list);
        for workload in WORKLOADS {
            let result = tiny_run(workload, trace);
            let keys: Vec<&str> = match &result {
                JsonValue::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("result is not an object: {other:?}"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            // Two replicas of one case: both routed plus replica 0 again
            // untraced, or replica 0 routed untraced and then traced.
            let attempted = result.get("attempted").and_then(JsonValue::as_f64);
            let expected = if trace == "0" { 3.0 } else { 2.0 };
            assert_eq!(attempted, Some(expected), "{workload} --trace {trace}");

            let JsonValue::Object(metrics) = result.get("metrics").unwrap() else {
                panic!("metrics is not an object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(JsonValue::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload} {name}: {m:?}"
                    );
                    let unit = m.get("unit").and_then(JsonValue::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, declared, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn timed_metrics_are_measured_and_quality_counts_are_real() {
    let result = tiny_run("mrtpl-ispd18", "0");
    let metric = |name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .unwrap()
    };
    for name in [
        "route_s",
        "setup_s",
        "peak_rss_mb",
        "cost",
        "wirelength",
        "vias",
    ] {
        assert!(metric(name) > 0.0, "{name} must be measured");
    }
    assert_eq!(
        metric("routed_nets"),
        4.0,
        "ispd18 test1 ×0.25 has four nets"
    );
}

#[test]
fn the_traced_run_reports_its_layers() {
    let layer = |workload: &str, name: &str| {
        tiny_run(workload, "1")
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .unwrap()
    };
    assert!(layer("mrtpl-ispd18", "core.search_nodes") > 0.0);
    assert!(layer("mrtpl-ispd18", "core.color_search_s") > 0.0);
    assert!(layer("dac12-ispd18", "dac12.two_pin_connections") > 0.0);
    assert!(layer("decompose-ispd19", "lefdef.parse_mb_per_s") > 0.0);
    assert!(layer("decompose-ispd19", "decompose.features") > 0.0);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        "--workload nope --seed 0 --seconds 1 --trace 0",
        "--workload mrtpl-ispd18 --seed 0 --seconds 1",
        "--workload mrtpl-ispd18 --seed 0 --seconds 0 --trace 0",
        "--workload mrtpl-ispd18 --seed x --seconds 1 --trace 0",
        "--workload mrtpl-ispd18 --seed 0 --seconds 1 --trace 2",
    ] {
        let out = bench(&args.split_whitespace().collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
