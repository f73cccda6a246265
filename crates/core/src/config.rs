//! Configuration and statistics of the Mr.TPL router.

use tpl_grid::{CostParams, Outcome};

/// How the searcher treats colour candidates during expansion.
///
/// The default ([`SearchPolicy::ColorStateSet`]) is the paper's contribution;
/// [`SearchPolicy::GreedySingleColor`] is the ablation baseline that commits
/// a single mask per vertex during search (the behaviour 2-pin methods are
/// stuck with); only unit tests run it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchPolicy {
    /// Keep the full set of minimum-cost masks alive (set-based colour state
    /// merging, the paper's method).
    #[default]
    ColorStateSet,
    /// Keep only the single cheapest mask at every step.
    GreedySingleColor,
}

/// Configuration of the Mr.TPL router.
///
/// The three weights `alpha`/`beta`/`gamma` correspond directly to Eq. (1) of
/// the paper: `alpha` scales the traditional routing cost, `beta` the stitch
/// cost and `gamma` the colour-conflict cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MrTplConfig {
    /// Traditional (colour-free) cost parameters, scaled by `alpha`.
    pub cost: CostParams,
    /// Weight of the traditional cost term.
    pub alpha: f64,
    /// Cost of introducing a stitch (`beta * Cost_stitch`).
    pub stitch_cost: f64,
    /// Cost per conflicting same-mask neighbour within `Dcolor`
    /// (`gamma * Cost_color`).
    pub color_conflict_cost: f64,
    /// Maximum number of rip-up-and-reroute iterations on colour conflicts.
    pub max_rrr_iterations: usize,
    /// History cost added to vertices in a conflict region when ripping up.
    pub history_increment: f64,
    /// Search policy (set-based states vs greedy single colour).
    pub policy: SearchPolicy,
    /// Goal-directed A* on negotiation (rip-up-and-reroute) passes.  It
    /// preserves path cost but may pick a different equal-cost tie where
    /// expansion order matters (see `NetBuffers::set_goal_directed`).
    pub a_star: bool,
}

impl Default for MrTplConfig {
    fn default() -> Self {
        Self {
            cost: CostParams::default(),
            alpha: 1.0,
            stitch_cost: 20.0,
            color_conflict_cost: 350.0,
            max_rrr_iterations: 5,
            history_increment: 60.0,
            policy: SearchPolicy::ColorStateSet,
            a_star: true,
        }
    }
}

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
    /// Total heap pops across all colour-state searches (search effort,
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
    fn default_config_uses_set_based_policy() {
        let c = MrTplConfig::default();
        assert_eq!(c.policy, SearchPolicy::ColorStateSet);
        assert!(c.stitch_cost > 0.0);
        assert!(c.color_conflict_cost > c.stitch_cost);
        assert!(c.max_rrr_iterations >= 1);
    }

    #[test]
    fn stats_default_to_zero() {
        let s = MrTplStats::default();
        assert_eq!(s.conflicts, 0);
        assert_eq!(s.stitches, 0);
        assert_eq!(s.rrr_iterations, 0);
    }
}
