//! Prediction dispatch: tokens/sec through representative suite
//! decisions (fixed-k, cyclic, backtracking) under the linear `edges`
//! scan versus the compiled dense tables, with each compiled table's
//! bytes.
//!
//! Writes `prediction` rows (see `llstar_bench::rows::bench_main` for
//! the flags). `--quick` takes shorter walks and fewer reps. The gate
//! fails if the compiled (dense) table is slower than the linear scan
//! beyond 10% noise tolerance on any measured decision.

use llstar_bench::prediction::{
    format_prediction, measure_prediction, prediction_cases, prediction_jsonl,
};
use llstar_bench::rows::{bench_main, BenchRun};

const SEED: u64 = 0x11a7_ab1e;

fn main() {
    bench_main("prediction", |quick| {
        let (tokens, reps) = if quick { (20_000, 5) } else { (200_000, 10) };
        let rows = measure_prediction(&prediction_cases(tokens, SEED), reps);
        let failures: Vec<String> = rows
            .iter()
            // 10% tolerance: micro-timings jitter, but the compiled path
            // must never be meaningfully slower than the linear scan.
            .filter(|r| r.dense_micros as f64 > r.linear_micros as f64 * 1.10)
            .map(|r| {
                format!(
                    "{}/d{} ({}) compiled {}us > linear {}us",
                    r.name, r.decision, r.class, r.dense_micros, r.linear_micros
                )
            })
            .collect();
        let gate = if failures.is_empty() {
            Ok("compiled dispatch at least matches linear on all decisions".into())
        } else {
            Err(failures)
        };
        BenchRun {
            table: format_prediction(&rows),
            rows: prediction_jsonl(&rows),
            gate: Some(gate),
        }
    });
}
