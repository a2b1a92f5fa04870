//! Runtime instrumentation backing the paper's Tables 3 and 4: per
//! decision, how deep lookahead went and how often backtracking fired.
//!
//! [`ParseStats`] is an owned view over the parser's always-on
//! [`ParseMetrics`] plus its error-recovery tally, built on demand by
//! [`Parser::stats`]. The interpreter keeps one set of counters; this
//! module only adds the Table 3/4 queries over them.
//!
//! [`Parser::stats`]: crate::Parser::stats

use crate::metrics::{DecisionCounters, ParseMetrics};
use llstar_core::DecisionId;

/// Whole-parse statistics, indexed by decision.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseStats {
    per_decision: Vec<DecisionCounters>,
    /// Memoization cache hits during speculation.
    pub memo_hits: u64,
    /// Memoization cache entries written.
    pub memo_entries: u64,
    /// Error-recovery engagements (one per recorded syntax error that the
    /// parser repaired rather than aborted on).
    pub recoveries: u64,
    /// Tokens removed by single-token deletion.
    pub tokens_deleted: u64,
    /// Tokens synthesized by single-token insertion.
    pub tokens_inserted: u64,
    /// Tokens consumed while resynchronizing on follow sets.
    pub tokens_skipped: u64,
}

impl ParseStats {
    /// The view over `metrics`, with all recovery counters zero.
    pub(crate) fn from_metrics(metrics: &ParseMetrics) -> Self {
        ParseStats {
            per_decision: metrics.decisions().to_vec(),
            memo_hits: metrics.memo_hits(),
            memo_entries: metrics.memo_entries(),
            ..ParseStats::default()
        }
    }

    /// Counters for one decision.
    pub fn decision(&self, decision: DecisionId) -> &DecisionCounters {
        &self.per_decision[decision.index()]
    }

    /// Iterates `(decision index, counters)` for decisions with ≥1 event.
    pub fn covered(&self) -> impl Iterator<Item = (usize, &DecisionCounters)> + '_ {
        self.per_decision.iter().enumerate().filter(|(_, d)| d.events > 0)
    }

    /// Number of distinct decisions exercised (Table 3's *n*).
    pub fn decisions_covered(&self) -> usize {
        self.covered().count()
    }

    /// Total prediction events across all decisions.
    pub fn total_events(&self) -> u64 {
        self.per_decision.iter().map(|d| d.events).sum()
    }

    /// Average lookahead depth per event (Table 3's *avg k*).
    pub fn avg_lookahead(&self) -> f64 {
        let events = self.total_events();
        if events == 0 {
            return 0.0;
        }
        self.per_decision.iter().map(|d| d.la_sum).sum::<u64>() as f64 / events as f64
    }

    /// Average speculation depth over backtracking events only (Table 3's
    /// *back. k*).
    pub fn avg_backtrack_depth(&self) -> f64 {
        let n = self.total_backtrack_events();
        if n == 0 {
            return 0.0;
        }
        self.per_decision.iter().map(|d| d.spec_sum).sum::<u64>() as f64 / n as f64
    }

    /// Deepest lookahead of the whole parse (Table 3's *max k*). Each
    /// event's lookahead already covers its deepest speculation.
    pub fn max_lookahead(&self) -> u64 {
        self.per_decision.iter().map(|d| d.la_max).max().unwrap_or(0)
    }

    /// Total events that backtracked.
    pub fn total_backtrack_events(&self) -> u64 {
        self.per_decision.iter().map(|d| d.backtracks).sum()
    }

    /// Number of distinct decisions that backtracked at least once
    /// (Table 4's *Did back.*).
    pub fn decisions_that_backtracked(&self) -> usize {
        self.per_decision.iter().filter(|d| d.backtracks > 0).count()
    }

    /// Percentage of all decision events that backtracked (Table 4's
    /// *Backtrack* column).
    pub fn backtrack_event_rate(&self) -> f64 {
        let events = self.total_events();
        if events == 0 {
            return 0.0;
        }
        100.0 * self.total_backtrack_events() as f64 / events as f64
    }

    /// Given the set of decisions that *can* backtrack (from static
    /// analysis), the likelihood that an event at such a decision actually
    /// backtracks (Table 4's *Back. rate*).
    pub fn backtrack_trigger_rate(&self, can_backtrack: &[bool]) -> f64 {
        let mut events_at_pbd = 0u64;
        let mut backtracked = 0u64;
        for (i, d) in self.per_decision.iter().enumerate() {
            if can_backtrack.get(i).copied().unwrap_or(false) {
                events_at_pbd += d.events;
                backtracked += d.backtracks;
            }
        }
        if events_at_pbd == 0 {
            return 0.0;
        }
        100.0 * backtracked as f64 / events_at_pbd as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records `(decision, lookahead, spec)` predictions the way the
    /// parser does (`spec > 0` means the event backtracked).
    fn metrics(decisions: usize, events: &[(usize, u64, u64)]) -> ParseMetrics {
        let mut m = ParseMetrics::new(decisions);
        for &(d, lookahead, spec) in events {
            m.record_predict(d, lookahead.max(spec), spec > 0, spec);
        }
        m
    }

    #[test]
    fn aggregates() {
        // Decision 2's event speculated 10 tokens deep, so its effective
        // lookahead is 10 as well.
        let s = ParseStats::from_metrics(&metrics(3, &[(0, 1, 0), (0, 3, 0), (2, 2, 10)]));
        assert_eq!(s.decisions_covered(), 2);
        assert_eq!(s.total_events(), 3);
        assert!((s.avg_lookahead() - 14.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.max_lookahead(), 10);
        assert!((s.avg_backtrack_depth() - 10.0).abs() < 1e-9);
        assert_eq!(s.decisions_that_backtracked(), 1);
        assert!((s.backtrack_event_rate() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn trigger_rate_uses_only_pbd_events() {
        // Decision 0 cannot backtrack; decision 1 can.
        let s = ParseStats::from_metrics(&metrics(2, &[(0, 1, 0), (1, 1, 0), (1, 1, 4)]));
        let rate = s.backtrack_trigger_rate(&[false, true]);
        assert!((rate - 50.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ParseStats::from_metrics(&ParseMetrics::new(4));
        assert_eq!(s.avg_lookahead(), 0.0);
        assert_eq!(s.avg_backtrack_depth(), 0.0);
        assert_eq!(s.max_lookahead(), 0);
        assert_eq!(s.backtrack_event_rate(), 0.0);
        assert_eq!(s.backtrack_trigger_rate(&[true, true, true, true]), 0.0);
    }

    #[test]
    fn reset_clears() {
        let mut m = metrics(1, &[(0, 5, 0)]);
        m.record_memo_hit();
        m.record_memo_hit();
        m.record_memo_hit();
        m.reset();
        let s = ParseStats::from_metrics(&m);
        assert_eq!(s.total_events(), 0);
        assert_eq!(s.memo_hits, 0);
    }
}
