//! Per-case records and suite-level summaries.

use tpl_grid::Outcome;

/// The evaluation record of one benchmark case for one method.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaseRecord {
    /// Case name.
    pub case: String,
    /// Colour conflicts.
    pub conflicts: usize,
    /// Stitches.
    pub stitches: usize,
    /// ISPD-style routing cost.
    pub cost: f64,
    /// Wall-clock runtime in seconds.
    pub runtime_seconds: f64,
    /// Total routed wirelength in database units.
    pub wirelength: i64,
    /// Total via count.
    pub vias: usize,
    /// Total search-graph nodes popped (search effort; `0` for methods that
    /// do not run a graph search).  Unlike `runtime_seconds` this counter is
    /// machine- and worker-count-independent, which is what the committed
    /// perf baselines regress against.
    pub search_nodes: usize,
    /// Rip-up-and-reroute iterations executed (`0` for single-pass methods).
    pub rrr_iterations: usize,
    /// How the routing run ended: `Complete` (the default), `Degraded` after
    /// a search-node budget trip (the record then describes a best-so-far
    /// partial solution), or `Aborted` on deadline/cancellation.
    pub outcome: Outcome,
}

/// Relative improvement of `ours` over `baseline`, in percent.
///
/// Matches the paper's convention: positive means `ours` is smaller (better).
/// When the baseline is zero the improvement is reported as zero (the paper
/// marks those entries "zero / no comparison").
pub fn improvement_percent(baseline: f64, ours: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (baseline - ours) / baseline * 100.0
    }
}

/// Baseline/ours runtime ratio, guarding against a zero denominator.
pub fn safe_speedup(baseline_seconds: f64, ours_seconds: f64) -> f64 {
    if ours_seconds <= 0.0 {
        0.0
    } else {
        baseline_seconds / ours_seconds
    }
}

/// Column-wise totals of a whole suite for one method, the "sum" half of the
/// paper's "Average" row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuiteTotals {
    /// Number of cases summed.
    pub cases: usize,
    /// Total colour conflicts.
    pub conflicts: usize,
    /// Total stitches.
    pub stitches: usize,
    /// Total ISPD-style cost.
    pub cost: f64,
    /// Total wall-clock runtime in seconds.
    pub runtime_seconds: f64,
    /// Total routed wirelength in database units.
    pub wirelength: i64,
    /// Total via count.
    pub vias: usize,
    /// Total search-graph nodes popped.
    pub search_nodes: usize,
    /// Total rip-up-and-reroute iterations.
    pub rrr_iterations: usize,
}

impl SuiteTotals {
    /// Sums the records of one method over a suite.
    pub fn from_records(records: &[CaseRecord]) -> SuiteTotals {
        let mut totals = SuiteTotals {
            cases: records.len(),
            ..SuiteTotals::default()
        };
        for r in records {
            totals.conflicts += r.conflicts;
            totals.stitches += r.stitches;
            totals.cost += r.cost;
            totals.runtime_seconds += r.runtime_seconds;
            totals.wirelength += r.wirelength;
            totals.vias += r.vias;
            totals.search_nodes += r.search_nodes;
            totals.rrr_iterations += r.rrr_iterations;
        }
        totals
    }
}

/// Table II's speed-up over paired records: the summed baseline runtime over
/// the summed runtime of ours, zero-guarded like [`safe_speedup`].
///
/// Summing before dividing weighs each case by its runtime, so a case that
/// takes milliseconds, whose ratio is mostly timer noise, moves the result
/// no more than its share of the time.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn total_speedup(baseline: &[CaseRecord], ours: &[CaseRecord]) -> f64 {
    assert_eq!(baseline.len(), ours.len(), "paired records required");
    let seconds = |records: &[CaseRecord]| records.iter().map(|r| r.runtime_seconds).sum();
    safe_speedup(seconds(baseline), seconds(ours))
}

/// Aggregate of a whole suite, the `avg.` row of the paper's tables: the
/// mean per case of each method and the improvement of the totals.
///
/// Like [`total_speedup`], each improvement is one ratio of sums, so a case
/// weighs by its count: a case going 3 → 8 conflicts moves the conflict
/// improvement as much as its 5 conflicts, not as much as a case going
/// 51 → 15.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuiteSummary {
    /// Mean baseline conflicts.
    pub baseline_conflicts: f64,
    /// Mean conflicts of our method.
    pub ours_conflicts: f64,
    /// Conflict improvement of the totals in percent
    /// ([`improvement_percent`]).
    pub conflict_improvement: f64,
    /// Mean baseline stitches.
    pub baseline_stitches: f64,
    /// Mean stitches of our method.
    pub ours_stitches: f64,
    /// Stitch improvement of the totals in percent.
    pub stitch_improvement: f64,
    /// Cost improvement of the totals in percent.
    pub cost_improvement: f64,
    /// Speedup: summed baseline runtime over ours ([`total_speedup`]).
    pub speedup: f64,
}

impl SuiteSummary {
    /// Builds the summary from paired per-case records (same order).
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    pub fn from_records(baseline: &[CaseRecord], ours: &[CaseRecord]) -> SuiteSummary {
        assert_eq!(baseline.len(), ours.len(), "paired records required");
        SuiteSummary::from_totals(
            &SuiteTotals::from_records(baseline),
            &SuiteTotals::from_records(ours),
        )
    }

    /// Builds the summary from the two methods' totals over the same cases.
    pub fn from_totals(baseline: &SuiteTotals, ours: &SuiteTotals) -> SuiteSummary {
        let n = baseline.cases.max(1) as f64;
        let (b, o) = (baseline, ours);
        SuiteSummary {
            baseline_conflicts: b.conflicts as f64 / n,
            ours_conflicts: o.conflicts as f64 / n,
            conflict_improvement: improvement_percent(b.conflicts as f64, o.conflicts as f64),
            baseline_stitches: b.stitches as f64 / n,
            ours_stitches: o.stitches as f64 / n,
            stitch_improvement: improvement_percent(b.stitches as f64, o.stitches as f64),
            cost_improvement: improvement_percent(b.cost, o.cost),
            speedup: safe_speedup(b.runtime_seconds, o.runtime_seconds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(case: &str, conflicts: usize, stitches: usize, cost: f64, rt: f64) -> CaseRecord {
        CaseRecord {
            case: case.into(),
            conflicts,
            stitches,
            cost,
            runtime_seconds: rt,
            ..CaseRecord::default()
        }
    }

    #[test]
    fn improvement_follows_paper_convention() {
        assert_eq!(improvement_percent(100.0, 20.0), 80.0);
        assert_eq!(improvement_percent(0.0, 5.0), 0.0);
        assert_eq!(improvement_percent(50.0, 50.0), 0.0);
        assert!(improvement_percent(10.0, 20.0) < 0.0);
    }

    #[test]
    fn speedup_guards_zero_division() {
        assert_eq!(safe_speedup(10.0, 2.0), 5.0);
        assert_eq!(safe_speedup(10.0, 0.0), 0.0);
    }

    #[test]
    fn suite_summary_averages_match_hand_computation() {
        let baseline = vec![
            rec("t1", 10, 100, 1000.0, 10.0),
            rec("t2", 0, 50, 2000.0, 20.0),
        ];
        let ours = vec![rec("t1", 5, 25, 900.0, 2.0), rec("t2", 0, 10, 1900.0, 4.0)];
        let s = SuiteSummary::from_records(&baseline, &ours);
        assert_eq!(s.baseline_conflicts, 5.0);
        assert_eq!(s.ours_conflicts, 2.5);
        // Conflict totals 10 -> 5: 50% improvement.
        assert_eq!(s.conflict_improvement, 50.0);
        // Stitch totals 150 -> 35, not the mean (75% + 80%) / 2 of the cases.
        assert!((s.stitch_improvement - 115.0 / 150.0 * 100.0).abs() < 1e-9);
        assert_eq!(s.speedup, 5.0);
        assert!(s.cost_improvement > 0.0);
    }

    #[test]
    #[should_panic(expected = "paired records")]
    fn summary_requires_paired_records() {
        SuiteSummary::from_records(&[], &[rec("x", 0, 0, 0.0, 0.0)]);
    }

    #[test]
    fn zero_baseline_reports_zero_improvement_regardless_of_ours() {
        // The paper marks zero-baseline entries "no comparison": the
        // improvement is 0 whether ours is also zero, better-than-nothing
        // impossible, or strictly worse.
        assert_eq!(improvement_percent(0.0, 0.0), 0.0);
        assert_eq!(improvement_percent(0.0, 1.0), 0.0);
        assert_eq!(improvement_percent(0.0, 1.0e9), 0.0);
        // A non-zero baseline with a zero ours is a full 100% improvement.
        assert_eq!(improvement_percent(7.0, 0.0), 100.0);
    }

    #[test]
    fn all_zero_baselines_yield_zero_suite_improvement() {
        let baseline = vec![rec("t1", 0, 0, 0.0, 0.0), rec("t2", 0, 0, 0.0, 0.0)];
        let ours = vec![rec("t1", 3, 1, 5.0, 1.0), rec("t2", 4, 2, 6.0, 1.0)];
        let s = SuiteSummary::from_records(&baseline, &ours);
        assert_eq!(s.conflict_improvement, 0.0);
        assert_eq!(s.stitch_improvement, 0.0);
        assert_eq!(s.cost_improvement, 0.0);
        assert_eq!(s.speedup, 0.0);
    }

    #[test]
    fn totals_sum_every_column() {
        let mut a = rec("t1", 2, 10, 100.0, 1.5);
        a.wirelength = 1000;
        a.vias = 7;
        a.search_nodes = 500;
        a.rrr_iterations = 1;
        let mut b = rec("t2", 3, 20, 200.0, 2.5);
        b.wirelength = 2000;
        b.vias = 13;
        b.search_nodes = 700;
        b.rrr_iterations = 2;
        let t = SuiteTotals::from_records(&[a, b]);
        assert_eq!(
            t,
            SuiteTotals {
                cases: 2,
                conflicts: 5,
                stitches: 30,
                cost: 300.0,
                runtime_seconds: 4.0,
                wirelength: 3000,
                vias: 20,
                search_nodes: 1200,
                rrr_iterations: 3,
            }
        );
        assert_eq!(SuiteTotals::from_records(&[]), SuiteTotals::default());
    }

    #[test]
    fn speedup_is_the_ratio_of_summed_runtimes() {
        // A 1 ms case at 1x and a 2 s case at 2x: the mean of the ratios
        // would read 1.5x, the summed runtimes give what the suite took.
        let baseline = vec![rec("t1", 0, 0, 0.0, 0.001), rec("t2", 0, 0, 0.0, 4.0)];
        let ours = vec![rec("t1", 0, 0, 0.0, 0.001), rec("t2", 0, 0, 0.0, 2.0)];
        let want = 4.001 / 2.001;
        assert!((total_speedup(&baseline, &ours) - want).abs() < 1e-12);
        assert_eq!(
            SuiteSummary::from_records(&baseline, &ours).speedup,
            total_speedup(&baseline, &ours)
        );
    }

    #[test]
    fn speedup_is_zero_without_a_positive_runtime_of_ours() {
        let ones = vec![rec("t1", 0, 0, 0.0, 1.0)];
        let zeros = vec![rec("t1", 0, 0, 0.0, 0.0)];
        assert_eq!(total_speedup(&ones, &zeros), 0.0);
        assert_eq!(total_speedup(&[], &[]), 0.0);
        assert_eq!(total_speedup(&zeros, &ones), 0.0);
    }
}
