//! Metrics-overhead bench mode: the cost of the always-on counters and
//! the optional trace tiers, measured per gauntlet grammar over the
//! tier corpus (see `llstar_bench::overhead` for the mode matrix).
//!
//! Appends schema-versioned `metrics_overhead` rows to
//! `BENCH_analysis.json` (creating the file with the stream header when
//! absent).
//!
//! Flags:
//! - `--quick`: measure the 10 KB smoke corpus with more reps instead
//!   of the tier selected by `LLSTAR_GAUNTLET_TIER` (default 1 MB) —
//!   CI smoke mode.
//! - `--gate`: exit non-zero if `metrics-on` is more than 5% slower
//!   than `metrics-off` on any grammar, by that grammar's median paired
//!   ratio (see `llstar_bench::overhead`) — the acceptance budget for
//!   the always-on substrate.
//! - `--json PATH`: also write a standalone schema-versioned JSONL
//!   stream (header + metrics_overhead rows) to `PATH`.

use llstar_bench::overhead::{
    format_overhead, gate_violations, overhead_all, overhead_jsonl, GAUNTLET_BENCH_SEED,
};
use llstar_bench::report;
use llstar_suite::gauntlet::Tier;

/// The acceptance budget: metrics-on within 5% of metrics-off.
const GATE_TOLERANCE_PCT: f64 = 5.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());

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
    println!("{}", format_overhead(&rows));

    let jsonl = overhead_jsonl(&rows);
    if let Err(e) = report::append_bench_rows(report::bench_analysis_path(), &jsonl) {
        eprintln!("warning: could not update BENCH_analysis.json: {e}");
    } else {
        eprintln!("appended {} metrics_overhead rows to BENCH_analysis.json", rows.len());
    }
    if let Some(path) = json_path {
        let stream = report::bench_stream_header() + &jsonl;
        std::fs::write(&path, stream).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {} metrics_overhead rows to {path}", rows.len());
    }

    if gate {
        let violations = gate_violations(&rows, GATE_TOLERANCE_PCT);
        for (grammar, pct) in &violations {
            eprintln!(
                "GATE: {grammar}: metrics-on is {pct:.2}% slower than metrics-off \
                 (budget {GATE_TOLERANCE_PCT}%)"
            );
        }
        if !violations.is_empty() {
            std::process::exit(1);
        }
        eprintln!("gate passed: metrics-on within {GATE_TOLERANCE_PCT}% of metrics-off");
    }
}
