//! Span-recording overhead bench mode: the cost of
//! [`Parser::enable_span_recording`], the per-request fold every serve
//! worker pays once `--capture-dir` arms exemplar captures (see
//! `llstar_bench::overhead` for the mode matrix: `spans-off`,
//! `spans-on`, and the informational `spans-harvest` scale row).
//!
//! Writes `spans_overhead` rows (see `llstar_bench::rows::bench_main`
//! for the flags). `--quick` measures the 10 KB smoke corpus with more
//! reps instead of the tier selected by `LLSTAR_GAUNTLET_TIER` (default
//! 1 MB). The gate fails if the corpus-aggregate `spans-on` overhead
//! (each grammar's median paired ratio weighted by its `spans-off`
//! time — see `spans_gate_overhead`) exceeds 5%, the ≤1.05× acceptance
//! budget for span recording.
//!
//! [`Parser::enable_span_recording`]: llstar_runtime::Parser::enable_span_recording

use llstar_bench::overhead::{
    format_overhead, spans_gate_overhead, spans_overhead_all, spans_overhead_jsonl,
    GAUNTLET_BENCH_SEED,
};
use llstar_bench::rows::{bench_main, BenchRun};
use llstar_suite::gauntlet::Tier;

/// The acceptance budget: spans-on within 5% of spans-off.
const GATE_TOLERANCE_PCT: f64 = 5.0;

fn main() {
    bench_main("spans_overhead", |quick| {
        // Smoke passes are a few milliseconds, so quick mode can afford
        // many paired reps — each grammar's median ratio tightens with
        // more pairs, and the round-robin schedule spreads them across the
        // whole run on noisy CI machines.
        let (tier, reps) = if quick { (Tier::Smoke, 21) } else { (Tier::from_env(), 5) };
        eprintln!(
            "spans_overhead: measuring {} corpora, median of {reps} paired reps (seed {GAUNTLET_BENCH_SEED:#x})",
            tier.label()
        );
        let rows = spans_overhead_all(tier, GAUNTLET_BENCH_SEED, reps);
        let gate = match spans_gate_overhead(&rows) {
            None => Err(vec!["no spans-off/spans-on pair measured".to_string()]),
            Some(aggregate) if aggregate > GATE_TOLERANCE_PCT => Err(vec![format!(
                "corpus-aggregate spans-on overhead {aggregate:.2}% exceeds the \
                 {GATE_TOLERANCE_PCT}% budget"
            )]),
            Some(aggregate) => Ok(format!(
                "corpus-aggregate spans-on overhead {aggregate:.2}% (budget {GATE_TOLERANCE_PCT}%)"
            )),
        };
        BenchRun {
            table: format_overhead(&rows),
            rows: spans_overhead_jsonl(&rows),
            gate: Some(gate),
        }
    });
}
