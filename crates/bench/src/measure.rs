//! The crate's one timing core. [`timed`] is the only clock read, and
//! every figure the benches and `report_tables` print is the fastest
//! of a few passes ([`best_of`]), a median of paired off/on passes
//! ([`paired_reps`]), or — the gauntlet and serve rows, which keep one
//! rep — a single pass.
//!
//! A *pass* returns the wall clock of the work it measures, so per-rep
//! setup stays outside the clock: `Parser::new`, lexing, and recycling
//! a parser for the next input with [`Parser::reset`] ([`parse_pass`]).

use llstar_lexer::Token;
use llstar_runtime::{Hooks, ParseError, Parser, TokenStream};
use std::time::{Duration, Instant};

/// Runs `f` once and returns its result with the wall clock it took.
/// The result passes through [`std::hint::black_box`], so the compiler
/// cannot drop the work, and the caller drops it after the clock stops.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let result = std::hint::black_box(f());
    (result, t0.elapsed())
}

/// The fastest of `reps` passes (at least one).
pub fn best_of(reps: usize, mut pass: impl FnMut() -> Duration) -> Duration {
    (0..reps.max(1)).map(|_| pass()).min().expect("at least one rep")
}

/// One parse of `tokens` from `start` through a recycled `parser`. The
/// token copy and [`Parser::reset`] happen before the clock starts; the
/// parse and dropping its tree are timed.
///
/// # Errors
/// The parse error, if `tokens` is not in the language.
pub fn parse_pass<H: Hooks>(
    parser: &mut Parser<'_, H>,
    tokens: &[Token],
    start: &str,
) -> Result<Duration, ParseError> {
    parser.reset(TokenStream::new(tokens.to_vec()));
    let (parsed, elapsed) = timed(|| parser.parse_to_eof(start).map(drop));
    parsed.map(|()| elapsed)
}

/// One item's off/on pair, from [`paired_reps`].
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Fastest off pass.
    pub best_off: Duration,
    /// Fastest on pass.
    pub best_on: Duration,
    /// Median of the per-rep `on / off` time ratios.
    pub median_ratio: f64,
}

/// Measures off/on pairs. Each rep times `pass(i, false)` then
/// `pass(i, true)` back-to-back for item `i`, so both sides share one
/// noise window (CPU steal, frequency scaling) and the per-rep ratio
/// cancels that common mode. Reps round-robin *across items*, so one
/// item's reps spread over the whole measurement window instead of a
/// single contiguous block a sustained noise spell could dominate. The
/// statistic is the MEDIAN of each item's rep ratios — robust to spells
/// that straddle a few pairs, where a best-of ratio would compare two
/// unrelated noise floors — while the best times feed throughput
/// columns.
pub fn paired_reps(
    n: usize,
    reps: u32,
    mut pass: impl FnMut(usize, bool) -> Duration,
) -> Vec<Paired> {
    let mut best = vec![(Duration::MAX, Duration::MAX); n];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::with_capacity(reps as usize); n];
    for _ in 0..reps.max(1) {
        for i in 0..n {
            let off = pass(i, false);
            let on = pass(i, true);
            best[i] = (best[i].0.min(off), best[i].1.min(on));
            ratios[i].push(on.as_secs_f64() / off.as_secs_f64().max(f64::MIN_POSITIVE));
        }
    }
    best.into_iter()
        .zip(ratios)
        .map(|((best_off, best_on), mut r)| {
            r.sort_by(|x, y| x.partial_cmp(y).expect("finite ratios"));
            Paired { best_off, best_on, median_ratio: r[r.len() / 2] }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_keeps_the_fastest_pass_and_runs_at_least_once() {
        let mut times = [5u64, 2, 9].into_iter().map(Duration::from_millis);
        assert_eq!(best_of(3, || times.next().unwrap()), Duration::from_millis(2));
        let mut calls = 0;
        best_of(0, || {
            calls += 1;
            Duration::ZERO
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn paired_reps_take_each_items_median_ratio() {
        // Item 0's on side is 2x, 3x, then 10x (a noise spike); item 1's
        // is always 1x. Reps alternate items, off before on.
        let mut order = Vec::new();
        let on_ms = [[20u64, 30, 100], [10, 10, 10]];
        let mut rep = [0usize; 2];
        let paired = paired_reps(2, 3, |i, on| {
            order.push((i, on));
            if on {
                rep[i] += 1;
                Duration::from_millis(on_ms[i][rep[i] - 1])
            } else {
                Duration::from_millis(10)
            }
        });
        assert_eq!(&order[..4], &[(0, false), (0, true), (1, false), (1, true)]);
        assert_eq!(paired[0].median_ratio, 3.0);
        assert_eq!(paired[0].best_on, Duration::from_millis(20));
        assert_eq!(paired[1].median_ratio, 1.0);
    }
}
