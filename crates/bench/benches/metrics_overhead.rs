//! Metrics-overhead bench mode: the cost of the always-on counters and
//! the optional trace tiers, measured per gauntlet grammar over the
//! tier corpus (see `llstar_bench::overhead` for the mode matrix).
//!
//! Writes `metrics_overhead` rows (see `llstar_bench::rows::bench_main`
//! for the flags). `--quick` measures the 10 KB smoke corpus with more
//! reps instead of the tier selected by `LLSTAR_GAUNTLET_TIER` (default
//! 1 MB). The gate fails if `metrics-on` is more than 5% slower than
//! `metrics-off` on any grammar, by that grammar's median paired ratio
//! — the acceptance budget for the always-on substrate.

use llstar_bench::overhead::{
    format_overhead, gate_violations, overhead_all, overhead_jsonl, GAUNTLET_BENCH_SEED,
};
use llstar_bench::rows::{bench_main, BenchRun};
use llstar_suite::gauntlet::Tier;

/// The acceptance budget: metrics-on within 5% of metrics-off.
const GATE_TOLERANCE_PCT: f64 = 5.0;

fn main() {
    bench_main("metrics_overhead", |quick| {
        // Each grammar's median paired ratio tightens with more pairs.
        // Smoke passes are a few milliseconds, so quick mode can afford
        // many, as in the spans bench. A 1 MB pass takes 0.1–1.5 s, long
        // enough for host noise to land in several of 5 pairs; 11 keep
        // the median stable.
        let (tier, reps) = if quick { (Tier::Smoke, 21) } else { (Tier::from_env(), 11) };
        eprintln!(
            "metrics_overhead: measuring {} corpora, median of {reps} paired reps (seed {GAUNTLET_BENCH_SEED:#x})",
            tier.label()
        );
        let rows = overhead_all(tier, GAUNTLET_BENCH_SEED, reps);
        let violations = gate_violations(&rows, GATE_TOLERANCE_PCT);
        let gate = if violations.is_empty() {
            Ok(format!("metrics-on within {GATE_TOLERANCE_PCT}% of metrics-off"))
        } else {
            Err(violations
                .iter()
                .map(|(grammar, pct)| {
                    format!(
                        "{grammar}: metrics-on is {pct:.2}% slower than metrics-off \
                         (budget {GATE_TOLERANCE_PCT}%)"
                    )
                })
                .collect())
        };
        BenchRun { table: format_overhead(&rows), rows: overhead_jsonl(&rows), gate: Some(gate) }
    });
}
