//! Machine-readable run reports.
//!
//! [`RunReport`] bundles the scheduler's records with the run configuration
//! and renders them as deterministic JSON (schema below) via the hand-rolled
//! [`json`](crate::json) module.  The plain-text paper tables stay in
//! `tpl-metrics`/`tpl-bench`; this is the format CI and downstream tooling
//! consume.
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "tool": "mrtpl-bench",
//!   "suite": "ispd18",
//!   "input": { "kind": "synthetic" },
//!   "scale": 1.0,
//!   "jobs": 8,
//!   "deterministic": false,
//!   "methods": ["dac12", "mrtpl"],
//!   "records": [
//!     {
//!       "method": "dac12",
//!       "case": "ispd18_like_test1",
//!       "status": "ok",
//!       "conflicts": 0,
//!       "stitches": 12,
//!       "cost": 31415.9,
//!       "runtime_seconds": 0.42,
//!       "outcome": "complete"
//!     },
//!     { "method": "mrtpl", "case": "...", "status": "failed", "error": "...",
//!       "outcome": "failed" }
//!   ],
//!   "totals": { "dac12": { "cases": 10, "failed": 0, "conflicts": 3, ... } },
//!   "speedup_vs_dac12": { "mrtpl": 1.7 }
//! }
//! ```

use crate::json::JsonValue;
use crate::scheduler::{JobOutcome, JobRecord};
use tpl_metrics::{total_speedup, CaseRecord, SuiteTotals};

/// Where a run's cases came from, recorded in the report for traceability.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum InputProvenance {
    /// Cases from the seeded synthetic generator (the default suites).
    #[default]
    Synthetic,
    /// Cases ingested from external LEF/DEF files.
    External {
        /// The `--lef` path, when one was given explicitly (otherwise the
        /// LEF was discovered next to the DEF).
        lef: Option<String>,
        /// The `--def` path (a file or a directory of `.def` files).
        def: String,
    },
}

impl InputProvenance {
    fn to_json_value(&self) -> JsonValue {
        match self {
            InputProvenance::Synthetic => {
                JsonValue::Object(vec![("kind".to_string(), JsonValue::str("synthetic"))])
            }
            InputProvenance::External { lef, def } => {
                let mut entries = vec![("kind".to_string(), JsonValue::str("lefdef"))];
                if let Some(lef) = lef {
                    entries.push(("lef".to_string(), JsonValue::str(lef)));
                }
                entries.push(("def".to_string(), JsonValue::str(def)));
                JsonValue::Object(entries)
            }
        }
    }
}

/// One suite run: configuration plus the scheduler's records in input order.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Suite name (`ispd18` / `ispd19`, or `external` for ingested designs),
    /// as reported by the CLI.
    pub suite: String,
    /// Where the cases came from.
    pub input: InputProvenance,
    /// Scale factor the cases were generated at.
    pub scale: f64,
    /// Worker-thread count of the run.
    pub jobs: usize,
    /// Whether wall-clock fields were zeroed for byte-stable output.
    pub deterministic: bool,
    /// Method names in run order (the first is the comparison baseline).
    pub methods: Vec<String>,
    /// Per-job records, case-major in input order.
    pub records: Vec<JobRecord>,
}

impl RunReport {
    /// Successful records of one method, in case order.
    pub fn records_of(&self, method: &str) -> Vec<CaseRecord> {
        self.records
            .iter()
            .filter(|r| r.method == method)
            .filter_map(|r| r.record().cloned())
            .collect()
    }

    /// Number of failed jobs of one method.
    pub fn failures_of(&self, method: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.method == method && r.error().is_some())
            .count()
    }

    /// Per-case record pairs of two methods matched by case name (in the
    /// baseline's case order), skipping cases where either side failed — so
    /// ratios never compare records of different cases.  Each record pairs at
    /// most once: a case run twice pairs its first occurrences, then its
    /// second ones.
    pub fn paired_records(&self, baseline: &str, ours: &str) -> (Vec<CaseRecord>, Vec<CaseRecord>) {
        let mut our_records: Vec<Option<CaseRecord>> =
            self.records_of(ours).into_iter().map(Some).collect();
        let mut base = Vec::new();
        let mut matched = Vec::new();
        for b in self.records_of(baseline) {
            let hit = our_records
                .iter_mut()
                .find(|o| o.as_ref().is_some_and(|o| o.case == b.case));
            if let Some(slot) = hit {
                matched.push(slot.take().expect("slot matched as Some"));
                base.push(b);
            }
        }
        (base, matched)
    }

    /// Renders the report as pretty-printed JSON (see the module docs for the
    /// schema).  Output is deterministic: same report, same bytes.
    ///
    /// A deterministic-mode report omits the `jobs` field (the one value that
    /// legitimately differs between otherwise-identical runs), so two
    /// `--deterministic` reports of the same matrix are byte-identical
    /// whatever `--jobs` was.
    ///
    /// Trace data is never rendered here — whether tracing was on cannot
    /// change these bytes.  Phase aggregates surface through
    /// [`to_json_with_phases`](RunReport::to_json_with_phases) and wall-clock
    /// timings through [`timings_json`](RunReport::timings_json), both
    /// written as sidecar files outside the byte-compared report.
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Renders the report like [`to_json`](RunReport::to_json), plus a
    /// `phases` block on every record that carries trace aggregates and a
    /// `phase` field on failed records whose panic origin span is known.
    /// This is the `metrics.json` exporter of `--trace`; the primary report
    /// stays byte-identical with tracing on or off.
    pub fn to_json_with_phases(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, with_phases: bool) -> String {
        let mut root = vec![
            ("schema_version".to_string(), JsonValue::UInt(1)),
            ("tool".to_string(), JsonValue::str("mrtpl-bench")),
            ("suite".to_string(), JsonValue::str(&self.suite)),
            ("input".to_string(), self.input.to_json_value()),
            ("scale".to_string(), JsonValue::Float(self.scale)),
        ];
        if !self.deterministic {
            root.push(("jobs".to_string(), JsonValue::UInt(self.jobs as u64)));
        }
        root.extend([
            (
                "deterministic".to_string(),
                JsonValue::Bool(self.deterministic),
            ),
            (
                "methods".to_string(),
                JsonValue::Array(self.methods.iter().map(JsonValue::str).collect()),
            ),
            (
                "records".to_string(),
                JsonValue::Array(
                    self.records
                        .iter()
                        .map(|r| record_json(r, with_phases))
                        .collect(),
                ),
            ),
            (
                "totals".to_string(),
                JsonValue::Object(
                    self.methods
                        .iter()
                        .map(|m| (m.clone(), totals_json(self, m)))
                        .collect(),
                ),
            ),
        ]);
        // With wall-clock fields zeroed there is no speedup to report — a
        // literal 0x would read as "never finished", so the section is
        // omitted rather than emitted as zeros.
        if self.methods.len() > 1 && !self.deterministic {
            let baseline = &self.methods[0];
            let entries: Vec<(String, JsonValue)> = self.methods[1..]
                .iter()
                .map(|m| {
                    let (base, ours) = self.paired_records(baseline, m);
                    (m.clone(), JsonValue::Float(total_speedup(&base, &ours)))
                })
                .collect();
            root.push((format!("speedup_vs_{baseline}"), JsonValue::Object(entries)));
        }
        JsonValue::Object(root).render()
    }

    /// Renders the wall-clock sidecar: real elapsed seconds of every job,
    /// measured even in deterministic mode (where the byte-compared report
    /// zeroes `runtime_seconds`).  Written next to a deterministic report as
    /// `*.timings.json` and never byte-compared, so CI keeps its stable
    /// reports without losing the actual runtimes.
    pub fn timings_json(&self) -> String {
        let records: Vec<JsonValue> = self
            .records
            .iter()
            .map(|r| {
                JsonValue::Object(vec![
                    ("method".to_string(), JsonValue::str(&r.method)),
                    ("case".to_string(), JsonValue::str(&r.case)),
                    (
                        "status".to_string(),
                        JsonValue::str(if r.error().is_some() { "failed" } else { "ok" }),
                    ),
                    ("wall_seconds".to_string(), JsonValue::Float(r.wall_seconds)),
                ])
            })
            .collect();
        let total: f64 = self.records.iter().map(|r| r.wall_seconds).sum();
        JsonValue::Object(vec![
            ("schema_version".to_string(), JsonValue::UInt(1)),
            ("tool".to_string(), JsonValue::str("mrtpl-bench")),
            ("kind".to_string(), JsonValue::str("timings")),
            ("suite".to_string(), JsonValue::str(&self.suite)),
            ("jobs".to_string(), JsonValue::UInt(self.jobs as u64)),
            ("records".to_string(), JsonValue::Array(records)),
            ("total_wall_seconds".to_string(), JsonValue::Float(total)),
        ])
        .render()
    }
}

fn record_json(record: &JobRecord, with_phases: bool) -> JsonValue {
    let mut entries = vec![
        ("method".to_string(), JsonValue::str(&record.method)),
        ("case".to_string(), JsonValue::str(&record.case)),
    ];
    match &record.outcome {
        JobOutcome::Ok(r) => {
            entries.push(("status".to_string(), JsonValue::str("ok")));
            entries.push(("conflicts".to_string(), JsonValue::UInt(r.conflicts as u64)));
            entries.push(("stitches".to_string(), JsonValue::UInt(r.stitches as u64)));
            entries.push(("cost".to_string(), JsonValue::Float(r.cost)));
            entries.push((
                "runtime_seconds".to_string(),
                JsonValue::Float(r.runtime_seconds),
            ));
            entries.push((
                "wirelength".to_string(),
                JsonValue::UInt(r.wirelength.max(0) as u64),
            ));
            entries.push(("vias".to_string(), JsonValue::UInt(r.vias as u64)));
            entries.push((
                "search_nodes".to_string(),
                JsonValue::UInt(r.search_nodes as u64),
            ));
            entries.push((
                "rrr_iterations".to_string(),
                JsonValue::UInt(r.rrr_iterations as u64),
            ));
        }
        JobOutcome::Failed { error, phase } => {
            entries.push(("status".to_string(), JsonValue::str("failed")));
            entries.push(("error".to_string(), JsonValue::str(error)));
            if with_phases {
                if let Some(phase) = phase {
                    entries.push(("phase".to_string(), JsonValue::str(phase)));
                }
            }
        }
    }
    // How the run ended: `complete`/`degraded`/`aborted`, or `failed` when
    // it panicked.
    entries.push((
        "outcome".to_string(),
        JsonValue::str(match &record.outcome {
            JobOutcome::Ok(r) => r.outcome.as_str(),
            JobOutcome::Failed { .. } => "failed",
        }),
    ));
    if with_phases {
        if let Some(phases) = record.phases.as_ref().filter(|p| !p.is_empty()) {
            let parsed =
                JsonValue::parse(&phases.to_json()).expect("TaskPhases::to_json emits valid JSON");
            entries.push(("phases".to_string(), parsed));
        }
    }
    JsonValue::Object(entries)
}

fn totals_json(report: &RunReport, method: &str) -> JsonValue {
    let totals = SuiteTotals::from_records(&report.records_of(method));
    JsonValue::Object(vec![
        ("cases".to_string(), JsonValue::UInt(totals.cases as u64)),
        (
            "failed".to_string(),
            JsonValue::UInt(report.failures_of(method) as u64),
        ),
        (
            "conflicts".to_string(),
            JsonValue::UInt(totals.conflicts as u64),
        ),
        (
            "stitches".to_string(),
            JsonValue::UInt(totals.stitches as u64),
        ),
        ("cost".to_string(), JsonValue::Float(totals.cost)),
        (
            "runtime_seconds".to_string(),
            JsonValue::Float(totals.runtime_seconds),
        ),
        (
            "wirelength".to_string(),
            JsonValue::UInt(totals.wirelength.max(0) as u64),
        ),
        ("vias".to_string(), JsonValue::UInt(totals.vias as u64)),
        (
            "search_nodes".to_string(),
            JsonValue::UInt(totals.search_nodes as u64),
        ),
        (
            "rrr_iterations".to_string(),
            JsonValue::UInt(totals.rrr_iterations as u64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(method: &str, case: &str, conflicts: usize, rt: f64) -> JobRecord {
        JobRecord {
            method: method.to_string(),
            case: case.to_string(),
            outcome: JobOutcome::Ok(CaseRecord {
                case: case.to_string(),
                conflicts,
                stitches: 2 * conflicts,
                cost: 10.0 * conflicts as f64,
                runtime_seconds: rt,
                ..CaseRecord::default()
            }),
            wall_seconds: rt,
            phases: None,
        }
    }

    fn failed(method: &str, case: &str) -> JobRecord {
        JobRecord {
            method: method.to_string(),
            case: case.to_string(),
            outcome: JobOutcome::Failed {
                error: "boom \"quoted\"".to_string(),
                phase: None,
            },
            wall_seconds: 0.5,
            phases: None,
        }
    }

    fn sample() -> RunReport {
        RunReport {
            suite: "ispd18".to_string(),
            input: InputProvenance::Synthetic,
            scale: 0.5,
            jobs: 4,
            deterministic: false,
            methods: vec!["dac12".to_string(), "mrtpl".to_string()],
            records: vec![
                ok("dac12", "t1", 4, 4.0),
                ok("mrtpl", "t1", 1, 1.0),
                ok("dac12", "t2", 2, 2.0),
                failed("mrtpl", "t2"),
            ],
        }
    }

    #[test]
    fn accessors_split_records_by_method() {
        let report = sample();
        assert_eq!(report.records_of("dac12").len(), 2);
        assert_eq!(report.records_of("mrtpl").len(), 1);
        assert_eq!(report.failures_of("mrtpl"), 1);
        assert_eq!(report.failures_of("dac12"), 0);
    }

    #[test]
    fn json_has_schema_fields_and_escapes_errors() {
        let json = sample().to_json();
        for needle in [
            "\"schema_version\": 1",
            "\"tool\": \"mrtpl-bench\"",
            "\"suite\": \"ispd18\"",
            "\"jobs\": 4",
            "\"status\": \"ok\"",
            "\"status\": \"failed\"",
            "\"error\": \"boom \\\"quoted\\\"\"",
            "\"outcome\": \"complete\"",
            "\"outcome\": \"failed\"",
            "\"totals\"",
            "\"speedup_vs_dac12\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces/brackets, i.e. structurally sound output.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_is_byte_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn speedup_pairs_by_case_name_and_skips_failed_cases() {
        let report = sample();
        // mrtpl failed on t2, so only t1 pairs: 4.0s / 1.0s = 4x.
        let (base, ours) = report.paired_records("dac12", "mrtpl");
        assert_eq!(base.len(), 1);
        assert_eq!(base[0].case, "t1");
        assert_eq!(ours[0].case, "t1");
        assert!(report.to_json().contains("\"mrtpl\": 4"));
    }

    #[test]
    fn duplicate_cases_pair_positionally_not_by_first_match() {
        // The same case run twice: each ours record must pair exactly once.
        let report = RunReport {
            suite: "s".to_string(),
            input: InputProvenance::Synthetic,
            scale: 1.0,
            jobs: 1,
            deterministic: false,
            methods: vec!["base".to_string(), "ours".to_string()],
            records: vec![
                ok("base", "t1", 1, 8.0),
                ok("ours", "t1", 1, 2.0),
                ok("base", "t1", 1, 6.0),
                ok("ours", "t1", 1, 3.0),
            ],
        };
        let (base, ours) = report.paired_records("base", "ours");
        assert_eq!(base.len(), 2);
        assert_eq!(ours[0].runtime_seconds, 2.0);
        assert_eq!(ours[1].runtime_seconds, 3.0);
        // 14 s over 5 s; pairing the first match twice would give 14 s
        // over 4 s.
        assert!((total_speedup(&base, &ours) - 2.8).abs() < 1e-12);
    }

    #[test]
    fn deterministic_reports_omit_jobs_and_speedup() {
        let mut report = sample();
        assert!(report.to_json().contains("\"jobs\": 4"));
        assert!(report.to_json().contains("speedup_vs_dac12"));
        report.deterministic = true;
        let a = report.to_json();
        // Zeroed wall-clock makes both meaningless; neither is emitted.
        assert!(!a.contains("\"jobs\""));
        assert!(!a.contains("speedup"));
        report.jobs = 8;
        // Same matrix, different worker count: byte-identical.
        assert_eq!(a, report.to_json());
    }

    #[test]
    fn with_phases_renders_phase_blocks_and_failure_phase() {
        use tpl_trace::{PhaseStat, TaskPhases};
        let mut report = sample();
        report.records[0].phases = Some(TaskPhases {
            spans: vec![(
                "core.route".to_string(),
                PhaseStat {
                    count: 1,
                    nanos: 2_000_000_000,
                },
            )],
            counters: vec![("core.search_nodes".to_string(), 42)],
            values: Vec::new(),
        });
        if let JobOutcome::Failed { phase, .. } = &mut report.records[3].outcome {
            *phase = Some("core.color_search".to_string());
        }
        // The primary report never shows trace data: bytes are independent
        // of whether tracing ran.
        let plain = report.to_json();
        assert!(!plain.contains("phases"));
        assert!(!plain.contains("core.color_search"));
        // The metrics exporter shows both.
        let rich = report.to_json_with_phases();
        assert!(rich.contains("\"phases\""));
        assert!(rich.contains("\"core.search_nodes\": 42"));
        assert!(rich.contains("\"seconds\": 2"));
        assert!(rich.contains("\"phase\": \"core.color_search\""));
        assert!(JsonValue::parse(&rich).is_ok());
    }

    #[test]
    fn with_phases_matches_plain_json_when_no_trace_data() {
        let report = sample();
        assert_eq!(report.to_json(), report.to_json_with_phases());
    }

    #[test]
    fn timings_sidecar_reports_wall_seconds() {
        let json = sample().timings_json();
        for needle in [
            "\"kind\": \"timings\"",
            "\"jobs\": 4",
            "\"wall_seconds\": 4",
            "\"status\": \"failed\"",
            "\"total_wall_seconds\": 7.5",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert!(JsonValue::parse(&json).is_ok());
    }

    #[test]
    fn disjoint_failures_never_pair_different_cases() {
        // Baseline fails on t1, ours fails on t2: equal record counts, but
        // the only shared successful case is t3.
        let report = RunReport {
            suite: "s".to_string(),
            input: InputProvenance::Synthetic,
            scale: 1.0,
            jobs: 1,
            deterministic: false,
            methods: vec!["base".to_string(), "ours".to_string()],
            records: vec![
                failed("base", "t1"),
                ok("ours", "t1", 1, 1.0),
                ok("base", "t2", 1, 8.0),
                failed("ours", "t2"),
                ok("base", "t3", 1, 6.0),
                ok("ours", "t3", 1, 2.0),
            ],
        };
        let (base, ours) = report.paired_records("base", "ours");
        assert_eq!(base.len(), 1);
        assert_eq!(base[0].case, "t3");
        assert_eq!(ours[0].case, "t3");
        assert!((total_speedup(&base, &ours) - 3.0).abs() < 1e-12);
    }
}
