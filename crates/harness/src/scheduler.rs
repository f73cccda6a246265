//! The deterministic multi-threaded matrix scheduler.
//!
//! [`run_matrix`] fans a method × case matrix out over `jobs` worker threads
//! built on [`std::thread::scope`] — no thread pool crate, no channels.  The
//! job list is the case-major cross product of the inputs, workers claim jobs
//! through one atomic cursor, and every result lands in the slot of its job
//! index, so the returned `Vec<JobRecord>` is always in input order no matter
//! how many workers ran or in which order they finished.
//!
//! Each job runs under [`std::panic::catch_unwind`]: a crashing method/case
//! pair becomes a [`JobOutcome::Failed`] record instead of killing the run.
//! A job runs once; a budget-stopped run keeps its best-so-far partial
//! record, whose `outcome` says it is degraded or aborted.

use crate::flows;
use crate::Method;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tpl_design::{Design, RouteGuides};
use tpl_grid::{Outcome, RouteBudget};
use tpl_ispd::Case;
use tpl_metrics::CaseRecord;
use tpl_trace::TaskPhases;

/// The lazily-shared preparation of one case, dropped after its last method.
struct CaseSlot {
    /// Methods of this case that have not finished yet; the worker that
    /// drops it to zero also drops the prepared data, so peak memory stays
    /// at the number of cases in flight rather than the whole suite.
    remaining: AtomicUsize,
    data: Mutex<Option<Arc<(Design, RouteGuides, Outcome)>>>,
}

/// Recovers the guard from a poisoned lock: the panic that poisoned it has
/// already been recorded as that job's failure, and the protected data
/// (either still-empty or fully prepared) is valid either way.
fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One case of the matrix, with its generated design and route guides shared
/// lazily across every method that runs on it.
///
/// The first method of a case to call [`get`](PreparedCase::get) pays for
/// generation and global routing; the other methods reuse the result.  The
/// preparation is deterministic, so sharing cannot change any record.
pub struct PreparedCase<'a> {
    case: &'a Case,
    slot: &'a CaseSlot,
    a_star: bool,
    max_search_nodes: Option<u64>,
    deadline_seconds: Option<f64>,
}

impl PreparedCase<'_> {
    /// The case this preparation belongs to.
    pub fn case(&self) -> &Case {
        self.case
    }

    /// Whether goal-directed A* is enabled in the Mr.TPL colour search
    /// (`RunOptions::a_star`).
    pub fn a_star(&self) -> bool {
        self.a_star
    }

    /// A fresh [`RouteBudget`] for this job.  The search-node ceiling is
    /// deterministic; the wall-clock deadline (if any) starts counting at the
    /// moment of this call, i.e. at job start.
    pub fn budget(&self) -> RouteBudget {
        RouteBudget {
            max_search_nodes: self.max_search_nodes,
            deadline: self
                .deadline_seconds
                .map(|s| Instant::now() + Duration::from_secs_f64(s)),
            ..RouteBudget::default()
        }
    }

    /// The generated design, its route guides, and the guide-generation
    /// [`Outcome`], built on first use.
    ///
    /// Preparation always runs under the canonical fault scope
    /// `prepare/<case>` and a node-count budget only (no deadline, no cancel
    /// token): whichever job pays for it, the shared result is identical by
    /// construction.
    pub fn get(&self) -> Arc<(Design, RouteGuides, Outcome)> {
        let mut guard = lock_ignoring_poison(&self.slot.data);
        if let Some(prepared) = guard.as_ref() {
            return prepared.clone();
        }
        // Preparation is shared across methods, and *which* job pays for it
        // depends on scheduling — suspend task attribution so per-task phase
        // aggregates stay independent of the worker count.
        let _untasked = tpl_trace::untasked();
        let _prepare_span = tpl_trace::span!("harness.prepare");
        let _fault_scope = tpl_fault::scope(&format!("prepare/{}", self.case.name()));
        tpl_fault::point!("harness.prepare");
        let budget = RouteBudget {
            max_search_nodes: self.max_search_nodes,
            ..RouteBudget::default()
        };
        let prepared = Arc::new(flows::prepare(self.case, &budget));
        *guard = Some(prepared.clone());
        prepared
    }
}

/// Execution options of one matrix run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOptions {
    /// Number of worker threads (clamped to at least 1 and at most the number
    /// of jobs in the matrix).
    pub jobs: usize,
    /// Zero out wall-clock fields in the records so two runs of the same
    /// matrix produce byte-identical reports (used by `--deterministic` and
    /// the determinism tests; conflict/stitch/cost columns are always
    /// deterministic).
    pub deterministic: bool,
    /// Collect per-job `tpl-trace` phase aggregates: each job runs under its
    /// own trace task and its [`TaskPhases`] are attached to the
    /// [`JobRecord`].  Requires tracing to be enabled globally
    /// ([`tpl_trace::enable`]); a no-op otherwise.  Never changes the
    /// primary report ([`RunReport::to_json`](crate::RunReport::to_json)
    /// ignores phases) — they surface only in trace exports.
    pub trace: bool,
    /// Goal-directed A* on Mr.TPL negotiation passes (default on).  It
    /// preserves path cost but may pick different equal-cost ties, so
    /// turning it off can change mrtpl records.
    pub a_star: bool,
    /// Search-node budget per job (`--budget`).  Deterministic: the routers
    /// charge nodes net by net, so a budgeted run produces identical records
    /// for every `jobs` value.  `None` means unlimited.
    pub max_search_nodes: Option<u64>,
    /// Wall-clock deadline per job in seconds (`--deadline`).  By nature
    /// *not* deterministic — where the deadline lands depends on machine
    /// speed — so deterministic byte-comparisons should not set it.
    pub deadline_seconds: Option<f64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            jobs: 1,
            deterministic: false,
            trace: false,
            a_star: true,
            max_search_nodes: None,
            deadline_seconds: None,
        }
    }
}

/// How one (method, case) job ended.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// The method completed and produced a record.
    Ok(CaseRecord),
    /// The method panicked; the payload is the panic message.
    Failed {
        /// The panic message (or a placeholder for non-string payloads).
        error: String,
        /// The innermost `tpl-trace` span open where the panic originated —
        /// the phase the crash should be attributed to.  `None` with tracing
        /// disabled, so untraced reports carry no extra field.
        phase: Option<String>,
    },
}

/// The scheduler's result for one (method, case) job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Name of the method that ran.
    pub method: String,
    /// Name of the case it ran on.
    pub case: String,
    /// Whether it produced a record or crashed.
    pub outcome: JobOutcome,
    /// Real elapsed time of the job, measured even in deterministic mode
    /// (where `CaseRecord::runtime_seconds` is zeroed for byte-stable
    /// reports).  Surfaces through the `timings.json` sidecar, never through
    /// the byte-compared report.
    pub wall_seconds: f64,
    /// Per-job trace phase aggregates (only with [`RunOptions::trace`] and
    /// tracing enabled).  Deterministic runs zero the wall-clock components,
    /// leaving counts and sums that are worker-count-invariant.
    pub phases: Option<TaskPhases>,
}

/// Equality compares the deterministic content of a job — method, case,
/// outcome and phase aggregates — and ignores
/// `wall_seconds`, which is measurement metadata that legitimately differs
/// between otherwise identical runs.  The determinism tests rely on exactly
/// this contract.
impl PartialEq for JobRecord {
    fn eq(&self, other: &Self) -> bool {
        self.method == other.method
            && self.case == other.case
            && self.outcome == other.outcome
            && self.phases == other.phases
    }
}

impl JobRecord {
    /// The case record, if the job succeeded.
    pub fn record(&self) -> Option<&CaseRecord> {
        match &self.outcome {
            JobOutcome::Ok(record) => Some(record),
            JobOutcome::Failed { .. } => None,
        }
    }

    /// The panic message, if the job failed.
    pub fn error(&self) -> Option<&str> {
        match &self.outcome {
            JobOutcome::Ok(_) => None,
            JobOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// The trace phase a failed job's panic originated in, if known.
    pub fn failure_phase(&self) -> Option<&str> {
        match &self.outcome {
            JobOutcome::Ok(_) => None,
            JobOutcome::Failed { phase, .. } => phase.as_deref(),
        }
    }
}

/// Runs every method on every case and collects records in input order.
///
/// The job list is case-major: all methods of `cases[0]`, then all methods of
/// `cases[1]`, and so on — the order a per-case comparison table wants.
/// Record order and every non-wall-clock field are independent of
/// `options.jobs`; with `options.deterministic` set (runtime fields zeroed)
/// records are byte-for-byte independent of it.
pub fn run_matrix(methods: &[&dyn Method], cases: &[Case], options: &RunOptions) -> Vec<JobRecord> {
    let jobs: Vec<(usize, usize)> = cases
        .iter()
        .enumerate()
        .flat_map(|(c, _)| (0..methods.len()).map(move |m| (m, c)))
        .collect();
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = options.jobs.clamp(1, jobs.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobRecord>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let prepared: Vec<CaseSlot> = cases
        .iter()
        .map(|_| CaseSlot {
            remaining: AtomicUsize::new(methods.len()),
            data: Mutex::new(None),
        })
        .collect();
    // One contiguous block of trace task ids, `base + job index` each, so
    // per-job phase aggregates never collide across concurrent runs.
    let tracing = options.trace && tpl_trace::enabled();
    let task_base = if tracing {
        Some(tpl_trace::alloc_tasks(jobs.len() as u64))
    } else {
        None
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                {
                    let _worker_span = tpl_trace::span!("harness.worker");
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= jobs.len() {
                            break;
                        }
                        tpl_trace::value!("harness.queue_depth", jobs.len() - index);
                        let (m, c) = jobs[index];
                        let task = task_base.map(|base| base + index as u64);
                        let record = run_job(methods[m], &cases[c], &prepared[c], options, task);
                        if prepared[c].remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            lock_ignoring_poison(&prepared[c].data).take();
                        }
                        *slots[index].lock().unwrap() = Some(record);
                    }
                }
                // Scope joins do not wait for TLS destructors; flush here so
                // every event is visible once run_matrix returns.
                tpl_trace::flush();
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every job slot is filled before the scope ends")
        })
        .collect()
}

/// Runs one (method, case) job with panic isolation.  Case preparation runs
/// inside the same isolation, so a crash while generating a case also
/// becomes a failed record.
///
/// With `task` set the job runs under that trace task id and its aggregated
/// [`TaskPhases`] are collected into the record; wall-clock time is measured
/// regardless (even in deterministic mode, where only the byte-compared
/// `CaseRecord::runtime_seconds` is zeroed).
fn run_job(
    method: &dyn Method,
    case: &Case,
    slot: &CaseSlot,
    options: &RunOptions,
    task: Option<u64>,
) -> JobRecord {
    // Any panic span left behind by earlier work on this thread is stale.
    let _ = tpl_trace::take_panic_span();
    let task_guard = task.map(tpl_trace::task);
    let started = Instant::now();
    let prepared = PreparedCase {
        case,
        slot,
        a_star: options.a_star,
        max_search_nodes: options.max_search_nodes,
        deadline_seconds: options.deadline_seconds,
    };
    let scope_label = format!("{}/{}", method.name(), case.name());
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _fault_scope = tpl_fault::scope(&scope_label);
        let _execute_span = tpl_trace::span!("harness.execute");
        tpl_fault::point!("harness.execute");
        method.run(&prepared)
    }));
    let wall_seconds = started.elapsed().as_secs_f64();
    drop(task_guard);
    let outcome = match result {
        Ok(mut record) => {
            if options.deterministic {
                record.runtime_seconds = 0.0;
            }
            JobOutcome::Ok(record)
        }
        Err(payload) => JobOutcome::Failed {
            error: panic_message(payload.as_ref()),
            phase: tpl_trace::take_panic_span().map(str::to_string),
        },
    };
    let phases = task.and_then(|id| {
        let mut phases = tpl_trace::take_task_phases(id)?;
        if options.deterministic {
            // Counts and sums are worker-count-invariant; durations are not.
            phases.zero_times();
        }
        Some(phases)
    });
    JobRecord {
        method: method.name().to_string(),
        case: case.name().to_string(),
        outcome,
        wall_seconds,
        phases,
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_grid::StopReason;

    /// A cheap deterministic stub: the record is a pure function of the case
    /// parameters, no routing involved.
    struct Stub {
        name: &'static str,
        weight: usize,
    }

    impl Method for Stub {
        fn name(&self) -> &'static str {
            self.name
        }

        fn description(&self) -> &'static str {
            "test stub"
        }

        fn run(&self, case: &PreparedCase) -> CaseRecord {
            let params = case.case().params().expect("stub runs on synthetic cases");
            CaseRecord {
                case: params.name.clone(),
                conflicts: params.num_nets * self.weight,
                stitches: params.name.len(),
                cost: params.num_nets as f64 * 1.5,
                runtime_seconds: 0.25,
                ..CaseRecord::default()
            }
        }
    }

    struct PanicsOn {
        substring: &'static str,
    }

    impl Method for PanicsOn {
        fn name(&self) -> &'static str {
            "panics"
        }

        fn description(&self) -> &'static str {
            "test stub that panics on matching cases"
        }

        fn run(&self, case: &PreparedCase) -> CaseRecord {
            let name = case.case().name();
            assert!(!name.contains(self.substring), "injected failure on {name}");
            CaseRecord {
                case: name.to_string(),
                ..CaseRecord::default()
            }
        }
    }

    /// Always returns a budget-degraded record.
    struct AlwaysDegraded;

    impl Method for AlwaysDegraded {
        fn name(&self) -> &'static str {
            "degraded"
        }

        fn description(&self) -> &'static str {
            "test stub whose records always report a budget trip"
        }

        fn run(&self, case: &PreparedCase) -> CaseRecord {
            CaseRecord {
                case: case.case().name().to_string(),
                outcome: Outcome::Degraded(StopReason::SearchNodes),
                ..CaseRecord::default()
            }
        }
    }

    fn tiny_cases(n: usize) -> Vec<Case> {
        (1..=n)
            .map(|i| Case::synthetic(tpl_ispd::CaseParams::ispd18_like(i)))
            .collect()
    }

    #[test]
    fn empty_matrix_yields_no_records() {
        let options = RunOptions::default();
        assert!(run_matrix(&[], &tiny_cases(3), &options).is_empty());
        let stub = Stub {
            name: "a",
            weight: 1,
        };
        assert!(run_matrix(&[&stub], &[], &options).is_empty());
    }

    #[test]
    fn records_are_case_major_in_input_order() {
        let a = Stub {
            name: "a",
            weight: 1,
        };
        let b = Stub {
            name: "b",
            weight: 2,
        };
        let cases = tiny_cases(3);
        let records = run_matrix(
            &[&a, &b],
            &cases,
            &RunOptions {
                jobs: 4,
                deterministic: false,
                ..RunOptions::default()
            },
        );
        assert_eq!(records.len(), 6);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.method, if i % 2 == 0 { "a" } else { "b" });
            assert_eq!(record.case, cases[i / 2].name());
        }
    }

    #[test]
    fn worker_count_does_not_change_records() {
        let a = Stub {
            name: "a",
            weight: 3,
        };
        let b = Stub {
            name: "b",
            weight: 7,
        };
        let cases = tiny_cases(10);
        let baseline = run_matrix(
            &[&a, &b],
            &cases,
            &RunOptions {
                jobs: 1,
                deterministic: false,
                ..RunOptions::default()
            },
        );
        for jobs in [2, 5, 16, 64] {
            let parallel = run_matrix(
                &[&a, &b],
                &cases,
                &RunOptions {
                    jobs,
                    deterministic: false,
                    ..RunOptions::default()
                },
            );
            assert_eq!(baseline, parallel, "jobs = {jobs}");
        }
    }

    #[test]
    fn deterministic_mode_zeroes_runtime() {
        let a = Stub {
            name: "a",
            weight: 1,
        };
        let records = run_matrix(
            &[&a],
            &tiny_cases(2),
            &RunOptions {
                jobs: 2,
                deterministic: true,
                ..RunOptions::default()
            },
        );
        for record in records {
            assert_eq!(record.record().unwrap().runtime_seconds, 0.0);
        }
    }

    #[test]
    fn a_degraded_record_is_kept_as_is() {
        let records = run_matrix(&[&AlwaysDegraded], &tiny_cases(1), &RunOptions::default());
        assert_eq!(records.len(), 1);
        let record = records[0].record().expect("degraded records are kept");
        assert_eq!(record.outcome, Outcome::Degraded(StopReason::SearchNodes));
    }

    #[test]
    fn a_panicking_job_becomes_a_failed_record() {
        let good = Stub {
            name: "a",
            weight: 1,
        };
        let bad = PanicsOn { substring: "test2" };
        let cases = tiny_cases(3);
        let records = run_matrix(&[&good, &bad], &cases, &RunOptions::default());
        assert_eq!(records.len(), 6);
        let failed: Vec<&JobRecord> = records.iter().filter(|r| r.error().is_some()).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].method, "panics");
        assert!(failed[0].case.contains("test2"));
        assert!(failed[0].error().unwrap().contains("injected failure"));
        // Every other job still produced a record.
        assert_eq!(records.iter().filter(|r| r.record().is_some()).count(), 5);
    }
}
