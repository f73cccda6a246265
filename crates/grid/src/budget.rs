//! Route budgets, cancellation, and graded outcomes.
//!
//! A [`RouteBudget`] bounds a routing run three ways:
//!
//! * **Search nodes** — a cap on frontier pops, the unit `search_nodes`
//!   statistics already count.  Node accounting is *deterministic*: the
//!   routers charge committed work between nets (the global router) or
//!   between conflict-free batches (Mr.TPL), so where the budget trips is a
//!   pure function of the input.
//! * **Deadline** — an optional wall-clock [`Instant`]; cooperative checks
//!   run at expansion granularity (every few thousand pops).  Wall clock is
//!   inherently nondeterministic, so deadlines are meant for services, not
//!   for byte-compared reports.
//! * **Cancellation** — an optional shared [`CancelToken`] another thread
//!   may flip at any time, checked alongside the deadline.
//!
//! Routers report how a run ended as an [`Outcome`]: budget exhaustion
//! degrades the run (best-so-far partial results, [`Outcome::Degraded`]),
//! while a deadline or cancellation aborts it ([`Outcome::Aborted`]) — in
//! both cases the router returns normally instead of running away or
//! panicking.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a routing run stopped before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StopReason {
    /// The search-node budget ran out (deterministic).
    SearchNodes,
    /// The wall-clock deadline passed (nondeterministic by nature).
    Deadline,
    /// The [`CancelToken`] was flipped.
    Cancelled,
}

impl StopReason {
    /// Stable lower-case label (`search_nodes` / `deadline` / `cancelled`).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::SearchNodes => "search_nodes",
            StopReason::Deadline => "deadline",
            StopReason::Cancelled => "cancelled",
        }
    }
}

/// How a routing run ended, carried in the routers' statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// The run finished everything it set out to do.
    #[default]
    Complete,
    /// The run stopped early on a budget limit but returns its best-so-far
    /// partial result (unrouted nets are simply absent, never corrupt).
    Degraded(StopReason),
    /// The run was cut short by a deadline or cancellation; partial results
    /// are still structurally valid.
    Aborted(StopReason),
}

impl Outcome {
    /// `true` for [`Outcome::Complete`].
    pub fn is_complete(&self) -> bool {
        *self == Outcome::Complete
    }

    /// Combines two phases of one run: the worst outcome wins (`Aborted`
    /// over `Degraded` over `Complete`; the derived order encodes this).
    pub fn merge(self, other: Outcome) -> Outcome {
        self.max(other)
    }

    /// Stable lower-case label (`complete` / `degraded` / `aborted`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::Complete => "complete",
            Outcome::Degraded(_) => "degraded",
            Outcome::Aborted(_) => "aborted",
        }
    }

    /// The stop reason, for non-complete outcomes.
    pub fn reason(&self) -> Option<StopReason> {
        match self {
            Outcome::Complete => None,
            Outcome::Degraded(r) | Outcome::Aborted(r) => Some(*r),
        }
    }

    /// The outcome a router reports for `reason`: budget exhaustion
    /// degrades the run, deadline/cancellation abort it.
    pub fn from_stop(reason: StopReason) -> Outcome {
        match reason {
            StopReason::SearchNodes => Outcome::Degraded(reason),
            StopReason::Deadline | StopReason::Cancelled => Outcome::Aborted(reason),
        }
    }
}

/// Shared flag that cancels in-flight routing cooperatively.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every router holding a clone stops at its
    /// next cooperative check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](CancelToken::cancel) was called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Limits of one routing run.  The default is unlimited — routers behave
/// exactly as if no budget existed.
#[derive(Clone, Debug, Default)]
pub struct RouteBudget {
    /// Cap on search-node pops (deterministic; charged between nets or
    /// batches).
    pub max_search_nodes: Option<u64>,
    /// Wall-clock cut-off (nondeterministic; cooperative checks).
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag shared with the caller.
    pub cancel: Option<CancelToken>,
}

impl RouteBudget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget capping search-node pops at `max`.
    pub fn with_max_search_nodes(max: u64) -> Self {
        Self {
            max_search_nodes: Some(max),
            ..Self::default()
        }
    }

    /// Search nodes still available after `used` committed pops
    /// (`u64::MAX` when uncapped).
    pub fn remaining_nodes(&self, used: u64) -> u64 {
        match self.max_search_nodes {
            Some(max) => max.saturating_sub(used),
            None => u64::MAX,
        }
    }

    /// What the next unit of work (a net or a batch) may spend after `used`
    /// committed pops, or why the run must stop before it: the node budget
    /// is exhausted, the deadline passed, or the token was cancelled.
    pub fn allowance(&self, used: u64) -> Result<u64, StopReason> {
        let remaining = self.remaining_nodes(used);
        if remaining == 0 {
            return Err(StopReason::SearchNodes);
        }
        self.interrupted().map_or(Ok(remaining), Err)
    }

    /// The wall-clock/cancellation check routers run cooperatively:
    /// `Some(reason)` once the deadline passed or the token was cancelled.
    pub fn interrupted(&self) -> Option<StopReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::Deadline);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_budget_is_unlimited_and_never_interrupts() {
        let budget = RouteBudget::default();
        assert_eq!(budget.remaining_nodes(0), u64::MAX);
        assert_eq!(budget.remaining_nodes(u64::MAX), u64::MAX);
        assert_eq!(budget.interrupted(), None);
    }

    #[test]
    fn node_budget_saturates_at_zero() {
        let budget = RouteBudget::with_max_search_nodes(100);
        assert_eq!(budget.remaining_nodes(0), 100);
        assert_eq!(budget.remaining_nodes(40), 60);
        assert_eq!(budget.remaining_nodes(100), 0);
        assert_eq!(budget.remaining_nodes(1000), 0);
    }

    #[test]
    fn allowance_stops_on_exhaustion_or_interruption() {
        let budget = RouteBudget::with_max_search_nodes(100);
        assert_eq!(budget.allowance(40), Ok(60));
        assert_eq!(budget.allowance(100), Err(StopReason::SearchNodes));
        let token = CancelToken::new();
        token.cancel();
        let cancelled = RouteBudget {
            cancel: Some(token),
            ..RouteBudget::default()
        };
        assert_eq!(cancelled.allowance(0), Err(StopReason::Cancelled));
        assert_eq!(RouteBudget::default().allowance(u64::MAX), Ok(u64::MAX));
    }

    #[test]
    fn cancellation_and_deadline_interrupt() {
        let token = CancelToken::new();
        let budget = RouteBudget {
            cancel: Some(token.clone()),
            ..RouteBudget::default()
        };
        assert_eq!(budget.interrupted(), None);
        token.cancel();
        assert_eq!(budget.interrupted(), Some(StopReason::Cancelled));

        let passed = RouteBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..RouteBudget::default()
        };
        assert_eq!(passed.interrupted(), Some(StopReason::Deadline));
    }

    #[test]
    fn outcomes_merge_worst_wins() {
        use Outcome::*;
        use StopReason::*;
        assert_eq!(Complete.merge(Complete), Complete);
        assert_eq!(Complete.merge(Degraded(SearchNodes)), Degraded(SearchNodes));
        assert_eq!(
            Degraded(SearchNodes).merge(Aborted(Cancelled)),
            Aborted(Cancelled)
        );
        assert_eq!(
            Aborted(Deadline).merge(Degraded(SearchNodes)),
            Aborted(Deadline)
        );
        assert!(Complete.is_complete());
        assert!(!Degraded(SearchNodes).is_complete());
        assert_eq!(Degraded(SearchNodes).as_str(), "degraded");
        assert_eq!(Aborted(Cancelled).reason(), Some(Cancelled));
        assert_eq!(Outcome::from_stop(SearchNodes), Degraded(SearchNodes));
        assert_eq!(Outcome::from_stop(Deadline), Aborted(Deadline));
        assert_eq!(Outcome::from_stop(Cancelled), Aborted(Cancelled));
    }
}
