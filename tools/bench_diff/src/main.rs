//! `bench-diff` — compares two `mrtpl-bench` JSON reports and fails on
//! counter regressions.
//!
//! ```bash
//! bench-diff BENCH_6.json fresh-report.json [--threshold 0.25]
//! ```
//!
//! The tool pairs records by `(method, case)` and compares every
//! **non-wall-clock** counter: `conflicts`, `stitches`, `cost`, `wirelength`,
//! `vias`, `search_nodes`, `rrr_iterations`.  A counter regresses when the
//! new value exceeds the old by more than the threshold (default 25%) and the
//! old value is positive; `old == 0 -> new > 0` transitions are reported as
//! warnings but do not fail the diff, since no percentage is defined.
//! Wall-clock fields (`runtime_seconds`) are ignored: CI machines are noisy,
//! and the committed baselines are deterministic-mode reports with zeroed
//! runtimes anyway.
//!
//! `--methods mrtpl,dac12` restricts both reports to those methods first, so
//! a baseline can gate the methods whose results did not move.
//!
//! Exit status: 0 when no counter regressed and every baseline record is
//! present and `ok` in the new report; 1 otherwise; 2 on usage/parse errors.

use std::process::ExitCode;
use tpl_harness::json::JsonValue;

/// The counters compared, in report order.  Everything here is independent
/// of wall clock and worker count by the determinism contract of the
/// routers, so any drift is a real behaviour change.
const COUNTERS: [&str; 7] = [
    "conflicts",
    "stitches",
    "cost",
    "wirelength",
    "vias",
    "search_nodes",
    "rrr_iterations",
];

const USAGE: &str = "\
bench-diff — compare two mrtpl-bench JSON reports

USAGE:
  bench-diff <baseline.json> <new.json> [--threshold <FRACTION>]
             [--format <lines|table>] [--ignore <COUNTER>]...
             [--require-improvement <COUNTER>]...
             [--require-no-regression <COUNTER>]... [--totals] [--exact]
             [--methods <LIST>]

Fails (exit 1) when any non-wall-clock counter of any (method, case) pair
regresses by more than the threshold (default 0.25 = 25%), or when a
baseline record is missing or failed in the new report.

  --ignore <COUNTER>               skip this counter entirely (repeatable)
  --require-improvement <COUNTER>  additionally fail unless the counter's
                                   total over all paired records STRICTLY
                                   improves (new sum < old sum); repeatable
  --require-no-regression <COUNTER>
                                   additionally fail if the counter's total
                                   over all paired records grows at all
                                   (new sum > old sum); repeatable
  --totals                         compare per-method totals instead of
                                   per-(method, case) records: right for
                                   baselines where individual cases may
                                   trade against each other but aggregate
                                   quality must hold
  --exact                          any drift of any compared counter is
                                   fatal, improvements included (used to
                                   prove two runs are result-identical)
  --methods <LIST>                 compare only these methods (comma
                                   separated): drops the other methods'
                                   records, `methods` entries and `totals`
                                   from both reports; every listed method
                                   must have a record in the baseline

When both reports carry `phases` blocks (the metrics.json export of
`mrtpl-bench --trace`), per-phase counters are compared too; phase drift is
reported as a warning, never a failure (even under --exact, where only the
acceptance counters must match).  `--format table` prints an aligned
old/new/delta table of every compared counter instead of one line per
problem.
";

/// One record key: the `(method, case)` pair the reports are joined on.
type Key = (String, String);

/// `--totals` accumulator entry: `(method, counter) -> (old sum, new sum)`.
type MethodTotal = ((String, &'static str), (f64, f64));

/// The `ok` records of a report keyed for joining, plus its failed keys.
type KeyedRecords<'a> = (Vec<(Key, &'a JsonValue)>, Vec<Key>);

/// A comparison problem found between the two reports.
#[derive(Debug, PartialEq)]
enum Problem {
    /// A counter rose past the threshold: `(key, counter, old, new)`.
    Regression(Key, &'static str, f64, f64),
    /// A counter changed at all under `--exact`: `(key, counter, old, new)`.
    Drift(Key, &'static str, f64, f64),
    /// A `--require-improvement` counter's total did not strictly improve:
    /// `(counter, old sum, new sum)`.
    NotImproved(String, f64, f64),
    /// A `--require-no-regression` counter's total grew:
    /// `(counter, old sum, new sum)`.
    TotalRegressed(String, f64, f64),
    /// A counter went `0 -> positive`; reported, not fatal.
    FromZero(Key, &'static str, f64),
    /// A per-phase counter drifted past the threshold; reported, not fatal
    /// (phase aggregates are observability data, not acceptance counters).
    PhaseDrift(Key, String, f64, f64),
    /// The baseline record is absent from the new report.
    Missing(Key),
    /// The record exists but its `status` is not `ok`.
    Failed(Key),
}

impl Problem {
    fn is_fatal(&self) -> bool {
        !matches!(self, Problem::FromZero(..) | Problem::PhaseDrift(..))
    }

    fn render(&self) -> String {
        match self {
            Problem::Regression((m, c), counter, old, new) => format!(
                "REGRESSION {m}/{c}: {counter} {old} -> {new} (+{:.1}%)",
                100.0 * (new - old) / old
            ),
            Problem::Drift((m, c), counter, old, new) => {
                format!("DRIFT {m}/{c}: {counter} {old} -> {new} (exact mode)")
            }
            Problem::NotImproved(counter, old, new) => format!(
                "NOT IMPROVED: total {counter} {old} -> {new} (strict improvement required)"
            ),
            Problem::TotalRegressed(counter, old, new) => {
                format!("REGRESSED: total {counter} {old} -> {new} (no regression allowed)")
            }
            Problem::FromZero((m, c), counter, new) => {
                format!("warning {m}/{c}: {counter} 0 -> {new}")
            }
            Problem::PhaseDrift((m, c), name, old, new) => format!(
                "warning {m}/{c}: phase {name} {old} -> {new} ({:+.1}%)",
                100.0 * (new - old) / old
            ),
            Problem::Missing((m, c)) => format!("MISSING {m}/{c}: not in the new report"),
            Problem::Failed((m, c)) => format!("FAILED {m}/{c}: status is not ok"),
        }
    }
}

/// Extracts the `ok` records of a report as `(key, record-object)` pairs,
/// plus the keys of failed records.
fn records_by_key(report: &JsonValue) -> Result<KeyedRecords<'_>, String> {
    let records = report
        .get("records")
        .and_then(JsonValue::as_array)
        .ok_or("report has no `records` array")?;
    let mut ok = Vec::new();
    let mut failed = Vec::new();
    for record in records {
        let method = record
            .get("method")
            .and_then(JsonValue::as_str)
            .ok_or("record has no `method`")?;
        let case = record
            .get("case")
            .and_then(JsonValue::as_str)
            .ok_or("record has no `case`")?;
        let key = (method.to_string(), case.to_string());
        match record.get("status").and_then(JsonValue::as_str) {
            Some("ok") => ok.push((key, record)),
            _ => failed.push(key),
        }
    }
    Ok((ok, failed))
}

/// A record's counter value, where both a missing field and an explicit
/// `null` count as absent.  Records of externally-ingested LEF/DEF cases
/// can carry `null` for counters their flow does not track (e.g.
/// `rrr_iterations` when the DEF arrived pre-routed), and `null` is also
/// what non-finite floats serialize as; neither should be comparable.
fn counter_value(record: &JsonValue, counter: &str) -> Option<f64> {
    match record.get(counter) {
        None | Some(JsonValue::Null) => None,
        Some(value) => value.as_f64(),
    }
}

/// The per-phase counters of a record's `phases` block (empty when the
/// report was produced without `--trace`).
fn phase_counters(record: &JsonValue) -> Vec<(&str, f64)> {
    let Some(JsonValue::Object(entries)) = record.get("phases").and_then(|p| p.get("counters"))
    else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|(name, value)| value.as_f64().map(|v| (name.as_str(), v)))
        .collect()
}

/// How [`diff_reports`] compares the two reports.
#[derive(Debug, Clone, Default)]
struct DiffOptions {
    /// Regression threshold as a fraction (0.25 = 25%).
    threshold: f64,
    /// Counters excluded from every comparison (`--ignore`).
    ignore: Vec<String>,
    /// Counters whose totals must strictly improve
    /// (`--require-improvement`).
    require_improvement: Vec<String>,
    /// Counters whose totals must not grow (`--require-no-regression`).
    require_no_regression: Vec<String>,
    /// Compare per-method totals instead of per-(method, case) records
    /// (`--totals`).
    totals: bool,
    /// Any drift of any compared counter is fatal (`--exact`).
    exact: bool,
}

/// Compares two parsed reports; the returned problems are in baseline record
/// order, counters within a record in [`COUNTERS`] order, then per-phase
/// counters in report order, then one entry per `--require-improvement`
/// counter that failed to improve.
fn diff_reports(
    baseline: &JsonValue,
    new: &JsonValue,
    options: &DiffOptions,
) -> Result<Vec<Problem>, String> {
    let (old_records, _) = records_by_key(baseline)?;
    let (new_records, new_failed) = records_by_key(new)?;
    let mut problems = Vec::new();
    // (counter, old sum, new sum, seen on any paired record).
    let mut improvements: Vec<(&str, f64, f64, bool)> = options
        .require_improvement
        .iter()
        .map(|c| (c.as_str(), 0.0, 0.0, false))
        .collect();
    let mut no_regressions: Vec<(&str, f64, f64, bool)> = options
        .require_no_regression
        .iter()
        .map(|c| (c.as_str(), 0.0, 0.0, false))
        .collect();
    let mut method_totals: Vec<MethodTotal> = Vec::new();
    for (key, old_record) in &old_records {
        let Some((_, new_record)) = new_records.iter().find(|(k, _)| k == key) else {
            if new_failed.contains(key) {
                problems.push(Problem::Failed(key.clone()));
            } else {
                problems.push(Problem::Missing(key.clone()));
            }
            continue;
        };
        for (counter, old_sum, new_sum, seen) in
            improvements.iter_mut().chain(no_regressions.iter_mut())
        {
            if let (Some(old), Some(new)) = (
                counter_value(old_record, counter),
                counter_value(new_record, counter),
            ) {
                *old_sum += old;
                *new_sum += new;
                *seen = true;
            }
        }
        for counter in COUNTERS {
            if options.ignore.iter().any(|i| i == counter) {
                continue;
            }
            // A counter absent on either side is skipped: reports from
            // before the column existed stay comparable.
            let (Some(old), Some(new)) = (
                counter_value(old_record, counter),
                counter_value(new_record, counter),
            ) else {
                continue;
            };
            if options.totals {
                // Defer to the per-method aggregate comparison below.
                let slot = (key.0.clone(), counter);
                match method_totals.iter_mut().find(|(k, _)| *k == slot) {
                    Some((_, sums)) => {
                        sums.0 += old;
                        sums.1 += new;
                    }
                    None => method_totals.push((slot, (old, new))),
                }
                continue;
            }
            if options.exact {
                if new != old {
                    problems.push(Problem::Drift(key.clone(), counter, old, new));
                }
            } else if old > 0.0 && new > old * (1.0 + options.threshold) {
                problems.push(Problem::Regression(key.clone(), counter, old, new));
            } else if old == 0.0 && new > 0.0 {
                problems.push(Problem::FromZero(key.clone(), counter, new));
            }
        }
        // Per-phase counters (present when both reports came from a traced
        // run): drift in either direction is worth a warning, since they are
        // deterministic by the tracing contract.
        let new_phases = phase_counters(new_record);
        for (name, old) in phase_counters(old_record) {
            let Some(&(_, new)) = new_phases.iter().find(|(n, _)| *n == name) else {
                continue;
            };
            if old > 0.0 && (new - old).abs() > old * options.threshold {
                problems.push(Problem::PhaseDrift(key.clone(), name.to_string(), old, new));
            }
        }
    }
    // Per-method aggregate comparison (`--totals`): same thresholds and
    // exactness rules as the per-record path, applied to the sums, keyed as
    // `method/total`.
    for ((method, counter), (old, new)) in method_totals {
        let key = (method, "total".to_string());
        if options.exact {
            if new != old {
                problems.push(Problem::Drift(key, counter, old, new));
            }
        } else if old > 0.0 && new > old * (1.0 + options.threshold) {
            problems.push(Problem::Regression(key, counter, old, new));
        } else if old == 0.0 && new > 0.0 {
            problems.push(Problem::FromZero(key, counter, new));
        }
    }
    // A counter never seen on any paired record also fails: a typo'd
    // `--require-improvement` name must not pass silently.
    for (counter, old_sum, new_sum, seen) in improvements {
        if !seen || new_sum >= old_sum {
            problems.push(Problem::NotImproved(counter.to_string(), old_sum, new_sum));
        }
    }
    for (counter, old_sum, new_sum, seen) in no_regressions {
        if !seen || new_sum > old_sum {
            problems.push(Problem::TotalRegressed(
                counter.to_string(),
                old_sum,
                new_sum,
            ));
        }
    }
    Ok(problems)
}

/// One `--format table` row: every counter (report-level and per-phase)
/// present on both sides of a record pair, with its old/new values.
fn comparison_rows(baseline: &JsonValue, new: &JsonValue) -> Result<Vec<[String; 5]>, String> {
    let (old_records, _) = records_by_key(baseline)?;
    let (new_records, _) = records_by_key(new)?;
    let mut rows = Vec::new();
    for (key, old_record) in &old_records {
        let Some((_, new_record)) = new_records.iter().find(|(k, _)| k == key) else {
            continue;
        };
        let mut push = |counter: &str, old: f64, new: f64| {
            let delta = if old == 0.0 && new == 0.0 {
                "0.0%".to_string()
            } else if old == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:+.1}%", 100.0 * (new - old) / old)
            };
            rows.push([
                key.0.clone(),
                key.1.clone(),
                counter.to_string(),
                format!("{old} -> {new}"),
                delta,
            ]);
        };
        for counter in COUNTERS {
            if let (Some(old), Some(new)) = (
                counter_value(old_record, counter),
                counter_value(new_record, counter),
            ) {
                push(counter, old, new);
            }
        }
        let new_phases = phase_counters(new_record);
        for (name, old) in phase_counters(old_record) {
            if let Some(&(_, new)) = new_phases.iter().find(|(n, _)| *n == name) {
                push(&format!("phase {name}"), old, new);
            }
        }
    }
    Ok(rows)
}

/// Renders rows as an aligned table with a header.
fn render_table(rows: &[[String; 5]]) -> String {
    const HEADER: [&str; 5] = ["method", "case", "counter", "old -> new", "delta"];
    let mut widths = HEADER.map(str::len);
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let mut out = String::new();
    let mut emit = |cells: [&str; 5]| {
        for (i, (cell, width)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            if i + 1 < cells.len() {
                out.push_str(&" ".repeat(width - cell.len()));
            }
        }
        out.push('\n');
    };
    emit(HEADER);
    for row in rows {
        emit([&row[0], &row[1], &row[2], &row[3], &row[4]]);
    }
    out
}

/// Keeps only the records, `methods` entries and `totals` of `methods` in a
/// report (`--methods`).
fn keep_methods(report: &mut JsonValue, methods: &[String]) {
    let keep = |method: &str| methods.iter().any(|m| m == method);
    let JsonValue::Object(entries) = report else {
        return;
    };
    for (key, value) in entries {
        match (key.as_str(), value) {
            ("records", JsonValue::Array(records)) => records.retain(|record| {
                record
                    .get("method")
                    .and_then(JsonValue::as_str)
                    .is_some_and(keep)
            }),
            ("methods", JsonValue::Array(names)) => {
                names.retain(|name| name.as_str().is_some_and(keep))
            }
            ("totals", JsonValue::Object(totals)) => totals.retain(|(method, _)| keep(method)),
            _ => {}
        }
    }
}

/// Reads and parses one report, failing with the path (and, for corrupt
/// JSON, the 1-based line:column) in the message — a missing or truncated
/// committed baseline must be a clear exit-2 diagnostic, never a panic or a
/// bare byte offset.
fn load_report(path: &str) -> Result<JsonValue, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read report `{path}`: {e}"))?;
    let report = JsonValue::parse(&text)
        .map_err(|e| format!("{path}:{}:{}: invalid JSON: {}", e.line, e.col, e.message))?;
    // Reject structurally wrong documents up front so every later error can
    // assume a well-formed report.
    records_by_key(&report).map_err(|e| format!("{path}: not a bench report: {e}"))?;
    Ok(report)
}

fn run(args: &[String]) -> Result<(Vec<Problem>, Option<String>), String> {
    let mut paths = Vec::new();
    let mut options = DiffOptions {
        threshold: 0.25,
        ..DiffOptions::default()
    };
    let mut table = false;
    let mut methods: Option<Vec<String>> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = iter.next().ok_or("missing value after --threshold")?;
                options.threshold = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| format!("invalid --threshold value `{v}`"))?;
            }
            "--ignore" => {
                let v = iter.next().ok_or("missing value after --ignore")?;
                options.ignore.push(v.clone());
            }
            "--require-improvement" => {
                let v = iter
                    .next()
                    .ok_or("missing value after --require-improvement")?;
                if !COUNTERS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown --require-improvement counter `{v}`; one of: {}",
                        COUNTERS.join(", ")
                    ));
                }
                options.require_improvement.push(v.clone());
            }
            "--require-no-regression" => {
                let v = iter
                    .next()
                    .ok_or("missing value after --require-no-regression")?;
                if !COUNTERS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown --require-no-regression counter `{v}`; one of: {}",
                        COUNTERS.join(", ")
                    ));
                }
                options.require_no_regression.push(v.clone());
            }
            "--methods" => {
                let v = iter.next().ok_or("missing value after --methods")?;
                let list: Vec<String> = v.split(',').map(str::to_string).collect();
                if list.iter().any(String::is_empty) {
                    return Err(format!("invalid --methods list `{v}`"));
                }
                methods = Some(list);
            }
            "--totals" => options.totals = true,
            "--exact" => options.exact = true,
            "--format" => {
                let v = iter.next().ok_or("missing value after --format")?;
                table = match v.as_str() {
                    "table" => true,
                    "lines" => false,
                    _ => return Err(format!("unknown format `{v}` (lines or table)")),
                };
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, new_path] = paths.as_slice() else {
        return Err(USAGE.to_string());
    };
    let mut baseline = load_report(baseline_path)?;
    let mut new = load_report(new_path)?;
    if let Some(methods) = &methods {
        let (records, _) = records_by_key(&baseline)?;
        if let Some(absent) = methods
            .iter()
            .find(|m| !records.iter().any(|((method, _), _)| method == *m))
        {
            return Err(format!(
                "--methods: `{baseline_path}` has no `{absent}` record"
            ));
        }
        keep_methods(&mut baseline, methods);
        keep_methods(&mut new, methods);
    }
    let problems = diff_reports(&baseline, &new, &options)?;
    let rendered_table = if table {
        Some(render_table(&comparison_rows(&baseline, &new)?))
    } else {
        None
    };
    Ok((problems, rendered_table))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
        Ok((problems, table)) => {
            if let Some(table) = table {
                print!("{table}");
            }
            let fatal = problems.iter().filter(|p| p.is_fatal()).count();
            for problem in &problems {
                println!("{}", problem.render());
            }
            if fatal > 0 {
                println!("bench-diff: {fatal} regression(s)");
                ExitCode::from(1)
            } else {
                println!("bench-diff: ok");
                ExitCode::SUCCESS
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type RecordSpec<'a> = (&'a str, &'a str, &'a str, &'a [(&'a str, f64)]);

    /// Plain threshold-only options, the shape of most tests.
    fn opts(threshold: f64) -> DiffOptions {
        DiffOptions {
            threshold,
            ..DiffOptions::default()
        }
    }

    fn report(records: &[RecordSpec]) -> JsonValue {
        JsonValue::Object(vec![(
            "records".to_string(),
            JsonValue::Array(
                records
                    .iter()
                    .map(|(method, case, status, counters)| {
                        let mut entries = vec![
                            ("method".to_string(), JsonValue::str(*method)),
                            ("case".to_string(), JsonValue::str(*case)),
                            ("status".to_string(), JsonValue::str(*status)),
                        ];
                        for (name, value) in *counters {
                            entries.push((name.to_string(), JsonValue::Float(*value)));
                        }
                        JsonValue::Object(entries)
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn identical_reports_are_clean() {
        let r = report(&[("mrtpl", "t1", "ok", &[("conflicts", 3.0), ("cost", 100.0)])]);
        assert_eq!(diff_reports(&r, &r, &opts(0.25)).unwrap(), vec![]);
    }

    #[test]
    fn small_drift_passes_large_drift_fails() {
        let old = report(&[("mrtpl", "t1", "ok", &[("search_nodes", 1000.0)])]);
        let ok = report(&[("mrtpl", "t1", "ok", &[("search_nodes", 1200.0)])]);
        assert_eq!(diff_reports(&old, &ok, &opts(0.25)).unwrap(), vec![]);
        let bad = report(&[("mrtpl", "t1", "ok", &[("search_nodes", 1300.0)])]);
        let problems = diff_reports(&old, &bad, &opts(0.25)).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].is_fatal());
        assert!(problems[0].render().contains("search_nodes 1000 -> 1300"));
    }

    #[test]
    fn improvements_never_fail() {
        let old = report(&[("mrtpl", "t1", "ok", &[("cost", 100.0), ("vias", 50.0)])]);
        let new = report(&[("mrtpl", "t1", "ok", &[("cost", 10.0), ("vias", 5.0)])]);
        assert_eq!(diff_reports(&old, &new, &opts(0.25)).unwrap(), vec![]);
    }

    #[test]
    fn zero_to_positive_warns_without_failing() {
        let old = report(&[("mrtpl", "t1", "ok", &[("conflicts", 0.0)])]);
        let new = report(&[("mrtpl", "t1", "ok", &[("conflicts", 2.0)])]);
        let problems = diff_reports(&old, &new, &opts(0.25)).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(!problems[0].is_fatal());
        assert!(problems[0].render().starts_with("warning"));
    }

    #[test]
    fn missing_and_failed_records_are_fatal() {
        let old = report(&[
            ("mrtpl", "t1", "ok", &[]),
            ("mrtpl", "t2", "ok", &[]),
            ("dac12", "t1", "ok", &[]),
        ]);
        let new = report(&[("mrtpl", "t1", "ok", &[]), ("mrtpl", "t2", "failed", &[])]);
        let problems = diff_reports(&old, &new, &opts(0.25)).unwrap();
        assert_eq!(problems.len(), 2);
        assert!(problems.iter().all(Problem::is_fatal));
        assert!(problems[0].render().contains("FAILED mrtpl/t2"));
        assert!(problems[1].render().contains("MISSING dac12/t1"));
    }

    #[test]
    fn counters_absent_on_either_side_are_skipped() {
        let old = report(&[("mrtpl", "t1", "ok", &[("conflicts", 1.0)])]);
        let new = report(&[("mrtpl", "t1", "ok", &[("wirelength", 9999.0)])]);
        assert_eq!(diff_reports(&old, &new, &opts(0.25)).unwrap(), vec![]);
    }

    /// Externally-ingested cases report `rrr_iterations: null` (their flow
    /// has no rip-up-and-reroute loop); a `null` counter must behave exactly
    /// like an absent one on either side of the diff.
    #[test]
    fn null_counters_of_ingested_cases_are_treated_as_absent() {
        let with_null = |counters: &[(&str, f64)]| {
            let JsonValue::Object(mut entries) = report(&[("mrtpl", "ingested", "ok", counters)])
            else {
                unreachable!("report() builds an object");
            };
            let JsonValue::Array(records) = &mut entries[0].1 else {
                unreachable!("records is an array");
            };
            let JsonValue::Object(record) = &mut records[0] else {
                unreachable!("record is an object");
            };
            record.push(("rrr_iterations".to_string(), JsonValue::Null));
            JsonValue::Object(entries)
        };
        // null on both sides, null vs absent, and absent vs null: all clean,
        // while a real counter alongside still fails.
        let old_null = with_null(&[("conflicts", 1.0)]);
        let new_null = with_null(&[("conflicts", 1.0)]);
        assert_eq!(
            diff_reports(&old_null, &new_null, &opts(0.25)).unwrap(),
            vec![]
        );
        let plain = report(&[("mrtpl", "ingested", "ok", &[("conflicts", 1.0)])]);
        assert_eq!(
            diff_reports(&old_null, &plain, &opts(0.25)).unwrap(),
            vec![]
        );
        assert_eq!(
            diff_reports(&plain, &new_null, &opts(0.25)).unwrap(),
            vec![]
        );
        let worse = with_null(&[("conflicts", 9.0)]);
        let problems = diff_reports(&old_null, &worse, &opts(0.25)).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].render().contains("conflicts 1 -> 9"));
    }

    /// A report whose single record also carries a `phases` block with the
    /// given per-phase counters.
    fn traced_report(counters: &[(&str, f64)], phases: &[(&str, f64)]) -> JsonValue {
        let JsonValue::Object(mut entries) = report(&[("mrtpl", "t1", "ok", counters)]) else {
            unreachable!("report() builds an object");
        };
        let JsonValue::Array(records) = &mut entries[0].1 else {
            unreachable!("records is an array");
        };
        let JsonValue::Object(record) = &mut records[0] else {
            unreachable!("record is an object");
        };
        record.push((
            "phases".to_string(),
            JsonValue::Object(vec![(
                "counters".to_string(),
                JsonValue::Object(
                    phases
                        .iter()
                        .map(|(n, v)| (n.to_string(), JsonValue::Float(*v)))
                        .collect(),
                ),
            )]),
        ));
        JsonValue::Object(entries)
    }

    #[test]
    fn phase_counter_drift_warns_in_both_directions_without_failing() {
        let old = traced_report(&[], &[("core.search_nodes", 1000.0)]);
        for (new_value, drifts) in [(1200.0, false), (1300.0, true), (700.0, true)] {
            let new = traced_report(&[], &[("core.search_nodes", new_value)]);
            let problems = diff_reports(&old, &new, &opts(0.25)).unwrap();
            assert_eq!(problems.len(), usize::from(drifts), "value {new_value}");
            if drifts {
                assert!(!problems[0].is_fatal());
                assert!(problems[0].render().contains("phase core.search_nodes"));
            }
        }
        // Phases on one side only: nothing to compare, nothing reported.
        let untraced = report(&[("mrtpl", "t1", "ok", &[])]);
        assert_eq!(diff_reports(&old, &untraced, &opts(0.25)).unwrap(), vec![]);
    }

    #[test]
    fn table_format_lists_report_and_phase_counters() {
        let old = traced_report(&[("conflicts", 4.0)], &[("core.search_nodes", 100.0)]);
        let new = traced_report(&[("conflicts", 2.0)], &[("core.search_nodes", 110.0)]);
        let rows = comparison_rows(&old, &new).unwrap();
        assert_eq!(rows.len(), 2);
        let table = render_table(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("method"));
        assert!(lines[1].contains("conflicts"));
        assert!(lines[1].contains("4 -> 2"));
        assert!(lines[1].contains("-50.0%"));
        assert!(lines[2].contains("phase core.search_nodes"));
        assert!(lines[2].contains("+10.0%"));
        // Columns align: every "old -> new" cell starts at the same offset.
        let offset = lines[0].find("old -> new").unwrap();
        assert_eq!(lines[1].find("4 -> 2"), Some(offset));
    }

    #[test]
    fn require_improvement_needs_a_strictly_smaller_total() {
        let old = report(&[
            ("mrtpl", "t1", "ok", &[("search_nodes", 1000.0)]),
            ("mrtpl", "t2", "ok", &[("search_nodes", 2000.0)]),
        ]);
        let options = DiffOptions {
            threshold: 0.25,
            require_improvement: vec!["search_nodes".to_string()],
            ..DiffOptions::default()
        };
        // Strictly smaller total (even with one record up): passes.
        let better = report(&[
            ("mrtpl", "t1", "ok", &[("search_nodes", 1100.0)]),
            ("mrtpl", "t2", "ok", &[("search_nodes", 800.0)]),
        ]);
        assert_eq!(diff_reports(&old, &better, &options).unwrap(), vec![]);
        // Identical total: fails (the improvement must be strict).
        let problems = diff_reports(&old, &old, &options).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].is_fatal());
        assert!(problems[0]
            .render()
            .contains("NOT IMPROVED: total search_nodes 3000 -> 3000"));
        // Larger total: fails alongside the per-record regression check.
        let worse = report(&[
            ("mrtpl", "t1", "ok", &[("search_nodes", 1000.0)]),
            ("mrtpl", "t2", "ok", &[("search_nodes", 2001.0)]),
        ]);
        let problems = diff_reports(&old, &worse, &options).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].render().contains("NOT IMPROVED"));
    }

    #[test]
    fn require_no_regression_allows_equal_totals_but_not_growth() {
        let old = report(&[
            ("mrtpl", "t1", "ok", &[("conflicts", 10.0)]),
            ("mrtpl", "t2", "ok", &[("conflicts", 20.0)]),
        ]);
        let options = DiffOptions {
            threshold: 0.25,
            require_no_regression: vec!["conflicts".to_string()],
            ..DiffOptions::default()
        };
        // Identical total: passes (unlike --require-improvement).
        assert_eq!(diff_reports(&old, &old, &options).unwrap(), vec![]);
        // Cases trading against each other with equal total: passes.
        let traded = report(&[
            ("mrtpl", "t1", "ok", &[("conflicts", 12.0)]),
            ("mrtpl", "t2", "ok", &[("conflicts", 18.0)]),
        ]);
        assert_eq!(diff_reports(&old, &traded, &options).unwrap(), vec![]);
        // Any growth of the total: fails.
        let worse = report(&[
            ("mrtpl", "t1", "ok", &[("conflicts", 10.0)]),
            ("mrtpl", "t2", "ok", &[("conflicts", 21.0)]),
        ]);
        let problems = diff_reports(&old, &worse, &options).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].is_fatal());
        assert!(problems[0]
            .render()
            .contains("REGRESSED: total conflicts 30 -> 31"));
        // An unseen counter fails rather than passing silently.
        let unseen = DiffOptions {
            require_no_regression: vec!["vias".to_string()],
            ..options
        };
        let problems = diff_reports(&old, &old, &unseen).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].render().contains("REGRESSED: total vias"));
    }

    #[test]
    fn totals_mode_compares_per_method_sums_not_cases() {
        // t1 doubles (a per-case regression) while t2 shrinks: per-case
        // mode fails, totals mode passes because the sum improved.
        let old = report(&[
            ("mrtpl", "t1", "ok", &[("conflicts", 10.0)]),
            ("mrtpl", "t2", "ok", &[("conflicts", 100.0)]),
        ]);
        let new = report(&[
            ("mrtpl", "t1", "ok", &[("conflicts", 20.0)]),
            ("mrtpl", "t2", "ok", &[("conflicts", 50.0)]),
        ]);
        assert_eq!(diff_reports(&old, &new, &opts(0.25)).unwrap().len(), 1);
        let totals = DiffOptions {
            threshold: 0.25,
            totals: true,
            ..DiffOptions::default()
        };
        assert_eq!(diff_reports(&old, &new, &totals).unwrap(), vec![]);
        // A regression of the method total past the threshold still fails,
        // keyed as `method/total`.
        let worse = report(&[
            ("mrtpl", "t1", "ok", &[("conflicts", 40.0)]),
            ("mrtpl", "t2", "ok", &[("conflicts", 100.0)]),
        ]);
        let problems = diff_reports(&old, &worse, &totals).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0]
            .render()
            .contains("REGRESSION mrtpl/total: conflicts 110 -> 140"));
        // Methods are aggregated separately: a different method's totals do
        // not absorb this one's regression.
        let two_methods_old = report(&[
            ("mrtpl", "t1", "ok", &[("conflicts", 10.0)]),
            ("dac12", "t1", "ok", &[("conflicts", 100.0)]),
        ]);
        let two_methods_new = report(&[
            ("mrtpl", "t1", "ok", &[("conflicts", 20.0)]),
            ("dac12", "t1", "ok", &[("conflicts", 10.0)]),
        ]);
        let problems = diff_reports(&two_methods_old, &two_methods_new, &totals).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].render().contains("REGRESSION mrtpl/total"));
    }

    #[test]
    fn require_improvement_of_an_unseen_counter_fails() {
        let old = report(&[("mrtpl", "t1", "ok", &[("conflicts", 1.0)])]);
        let options = DiffOptions {
            threshold: 0.25,
            require_improvement: vec!["search_nodes".to_string()],
            ..DiffOptions::default()
        };
        let problems = diff_reports(&old, &old, &options).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].render().contains("NOT IMPROVED"));
    }

    #[test]
    fn ignored_counters_never_regress() {
        let old = report(&[("mrtpl", "t1", "ok", &[("search_nodes", 100.0)])]);
        let worse = report(&[("mrtpl", "t1", "ok", &[("search_nodes", 900.0)])]);
        assert_eq!(diff_reports(&old, &worse, &opts(0.25)).unwrap().len(), 1);
        let options = DiffOptions {
            threshold: 0.25,
            ignore: vec!["search_nodes".to_string()],
            ..DiffOptions::default()
        };
        assert_eq!(diff_reports(&old, &worse, &options).unwrap(), vec![]);
    }

    #[test]
    fn exact_mode_flags_any_drift_even_improvements() {
        let old = report(&[("mrtpl", "t1", "ok", &[("cost", 100.0), ("vias", 50.0)])]);
        let options = DiffOptions {
            threshold: 0.25,
            exact: true,
            ..DiffOptions::default()
        };
        assert_eq!(diff_reports(&old, &old, &options).unwrap(), vec![]);
        // An improvement would pass the threshold check but fails --exact.
        let improved = report(&[("mrtpl", "t1", "ok", &[("cost", 90.0), ("vias", 50.0)])]);
        let problems = diff_reports(&old, &improved, &options).unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].is_fatal());
        assert!(problems[0]
            .render()
            .contains("DRIFT mrtpl/t1: cost 100 -> 90"));
        // --ignore still applies under --exact.
        let ignoring = DiffOptions {
            ignore: vec!["cost".to_string()],
            ..options
        };
        assert_eq!(diff_reports(&old, &improved, &ignoring).unwrap(), vec![]);
    }

    #[test]
    fn run_rejects_an_unknown_improvement_counter() {
        let err = run(&[
            "a.json".to_string(),
            "b.json".to_string(),
            "--require-improvement".to_string(),
            "runtime_seconds".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("unknown --require-improvement"));
        assert!(err.contains("search_nodes"));
    }

    /// A scratch file deleted on drop, so baseline-loading tests can feed
    /// `run` real paths without leaving droppings behind.
    struct ScratchFile(std::path::PathBuf);

    impl ScratchFile {
        fn new(name: &str, contents: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("bench_diff_{}_{name}", std::process::id()));
            std::fs::write(&path, contents).expect("write scratch report");
            ScratchFile(path)
        }

        fn path(&self) -> String {
            self.0.display().to_string()
        }
    }

    impl Drop for ScratchFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn methods_filter_both_reports_and_must_name_baseline_methods() {
        let old = report(&[
            ("mrtpl", "t1", "ok", &[("conflicts", 1.0)]),
            ("dac12", "t1", "ok", &[("conflicts", 1.0)]),
        ]);
        let new = report(&[
            ("mrtpl", "t1", "ok", &[("conflicts", 1.0)]),
            ("dac12", "t1", "ok", &[("conflicts", 9.0)]),
            ("drcu", "t1", "ok", &[]),
        ]);
        let old_file = ScratchFile::new("methods_old.json", &old.render());
        let new_file = ScratchFile::new("methods_new.json", &new.render());
        let diff = |extra: &[&str]| {
            let mut args = vec![old_file.path(), new_file.path(), "--exact".to_string()];
            args.extend(extra.iter().map(|a| a.to_string()));
            run(&args)
        };
        assert_eq!(diff(&[]).unwrap().0.len(), 1);
        assert_eq!(diff(&["--methods", "mrtpl"]).unwrap().0, vec![]);
        assert_eq!(diff(&["--methods", "dac12,mrtpl"]).unwrap().0.len(), 1);
        let err = diff(&["--methods", "mrtpl,drcu"]).unwrap_err();
        assert!(err.contains("no `drcu` record"), "{err}");
        let err = diff(&["--methods", "mrtpl,"]).unwrap_err();
        assert!(err.contains("invalid --methods"), "{err}");

        // The `methods` list and the `totals` keep the listed methods only.
        let mut full = JsonValue::parse(
            r#"{"methods": ["mrtpl", "dac12"], "totals": {"mrtpl": {}, "dac12": {}}, "records": []}"#,
        )
        .unwrap();
        keep_methods(&mut full, &["dac12".to_string()]);
        let names = full.get("methods").and_then(JsonValue::as_array).unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), Some("dac12"));
        let Some(JsonValue::Object(totals)) = full.get("totals") else {
            panic!("totals is an object");
        };
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].0, "dac12");
    }

    #[test]
    fn a_missing_baseline_is_a_clear_error_with_the_path() {
        let missing = "/nonexistent/BENCH_none.json";
        let err = run(&[missing.to_string(), missing.to_string()]).unwrap_err();
        assert!(err.contains("cannot read report"), "{err}");
        assert!(err.contains(missing), "{err}");
    }

    #[test]
    fn a_corrupt_baseline_is_a_positioned_error_not_a_panic() {
        // A truncated BENCH_*.json, as a botched merge would leave it.
        let corrupt = ScratchFile::new("corrupt.json", "{\n  \"records\": [\n    {\"method\": }\n");
        let good = ScratchFile::new("good.json", &report(&[]).render());
        let err = run(&[corrupt.path(), good.path()]).unwrap_err();
        assert!(err.contains(&corrupt.path()), "{err}");
        assert!(err.contains(":3:"), "no line:col position: {err}");
        assert!(err.contains("invalid JSON"), "{err}");
        // Same diagnostic when the corrupt file is the new report.
        let err = run(&[good.path(), corrupt.path()]).unwrap_err();
        assert!(err.contains(&corrupt.path()), "{err}");
    }

    #[test]
    fn a_baseline_that_is_not_a_report_names_the_path_and_problem() {
        let not_report = ScratchFile::new("not_report.json", "{\"totals\": {}}\n");
        let err = run(&[not_report.path(), not_report.path()]).unwrap_err();
        assert!(err.contains(&not_report.path()), "{err}");
        assert!(err.contains("no `records` array"), "{err}");
    }

    #[test]
    fn run_rejects_bad_usage() {
        assert!(run(&[]).is_err());
        assert!(run(&["a.json".to_string()]).is_err());
        assert!(run(&[
            "a.json".to_string(),
            "b.json".to_string(),
            "--threshold".to_string(),
            "nope".to_string(),
        ])
        .is_err());
        assert!(run(&[
            "a.json".to_string(),
            "b.json".to_string(),
            "--format".to_string(),
            "xml".to_string(),
        ])
        .is_err());
    }
}
