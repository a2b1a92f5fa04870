//! Prediction dispatch: tokens/sec through representative suite
//! decisions (fixed-k, cyclic, backtracking) under the linear `edges`
//! scan versus the compiled dense tables.
//!
//! Beyond the per-strategy timings this bench renders the dispatch
//! table and appends the `prediction` rows — table bytes per decision
//! included — to `BENCH_analysis.json` (creating the file, schema
//! header included, when `report_tables` has not run yet).
//!
//! Flags:
//! - `--quick`: shorter walks, fewer reps, harness display skipped
//!   (CI smoke mode).
//! - `--gate`: exit non-zero if the compiled (dense) table is slower than
//!   the linear scan (beyond 10% noise tolerance) on any measured
//!   decision.
//! - `--json PATH`: also write a standalone schema-versioned JSONL
//!   stream (header + prediction rows) to `PATH`.

use llstar_bench::{report, BenchGroup};
use std::hint::black_box;
use std::time::Duration;

const SEED: u64 = 0x11a7_ab1e;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());

    let (tokens, reps) = if quick { (20_000, 5) } else { (200_000, 10) };
    let cases = report::prediction_cases(tokens, SEED);

    // Per-strategy throughput via the shared harness display (skipped in
    // quick mode: the best-of-reps rows below already cover the gate).
    if !quick {
        let mut group = BenchGroup::new("prediction");
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2))
            .throughput_elements(tokens as u64);
        for c in &cases {
            let id = format!("{}/d{}", c.name, c.decision);
            group.bench_function(format!("{id}/linear"), || {
                black_box(report::linear_dispatch(&c.dfa, &c.seq))
            });
            group.bench_function(format!("{id}/dense"), || {
                black_box(report::table_dispatch(&c.dense, &c.classes, &c.seq))
            });
        }
        group.finish();
    }

    let rows = report::measure_prediction(&cases, reps);
    println!("{}", report::format_prediction(&rows));

    let jsonl = report::prediction_jsonl(&rows);
    if let Err(e) = report::append_bench_rows(report::bench_analysis_path(), &jsonl) {
        eprintln!("warning: could not update BENCH_analysis.json: {e}");
    } else {
        eprintln!("appended {} prediction rows to BENCH_analysis.json", rows.len());
    }
    if let Some(path) = json_path {
        let stream = report::bench_stream_header() + &jsonl;
        std::fs::write(&path, stream).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {} prediction rows to {path}", rows.len());
    }

    if gate {
        let mut failed = false;
        for r in &rows {
            // 10% tolerance: micro-timings jitter, but the compiled path
            // must never be meaningfully slower than the linear scan.
            if r.dense_micros as f64 > r.linear_micros as f64 * 1.10 {
                eprintln!(
                    "GATE FAIL: {}/d{} ({}) compiled {}us > linear {}us",
                    r.name, r.decision, r.class, r.dense_micros, r.linear_micros
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("gate passed: compiled dispatch at least matches linear on all decisions");
    }
}
