//! Configuration and statistics of the Mr.TPL router.

use tpl_grid::Outcome;

/// Configuration of the Mr.TPL router: the [`TplConfig`](tpl_color::TplConfig)
/// it shares with the DAC'12 baseline.
///
/// Its weights are those of Eq. (1) of the paper with α fixed at 1:
/// `cost` prices `Cost_trad`, `stitch_cost` is `β·Cost_stitch` and
/// `color_conflict_cost` is `γ·Cost_color`.
pub type MrTplConfig = tpl_color::TplConfig;

/// Statistics of a full Mr.TPL run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MrTplStats {
    /// Colour conflicts remaining in the final layout.
    pub conflicts: usize,
    /// Stitches in the final layout.
    pub stitches: usize,
    /// Rip-up-and-reroute iterations executed.
    pub rrr_iterations: usize,
    /// Nets that could not be fully connected.
    pub failed_nets: usize,
    /// Total number of segSets created (one mask decision each).
    pub seg_sets: usize,
    /// Total frontier pops across all colour-state searches (search effort,
    /// independent of wall clock and worker count).
    pub search_nodes: usize,
    /// Wall-clock routing time in seconds.
    pub runtime_seconds: f64,
    /// Conflict count measured after each routing pass (index 0 = initial
    /// pass, then one entry per rip-up-and-reroute iteration).  The
    /// `conflict_breakdown` example prints it and perfbench reports its first
    /// entry.
    pub conflict_history: Vec<usize>,
    /// How the run ended: `Complete` without a budget, `Degraded` after a
    /// search-node budget trip (best-so-far partial solution), `Aborted` on
    /// deadline or cancellation.
    pub outcome: Outcome,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_to_zero() {
        let s = MrTplStats::default();
        assert_eq!(s.conflicts, 0);
        assert_eq!(s.stitches, 0);
        assert_eq!(s.rrr_iterations, 0);
    }
}
