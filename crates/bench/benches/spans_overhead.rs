//! Span-recording overhead bench mode: the cost of
//! [`Parser::enable_span_recording`], the per-request fold every serve
//! worker pays once `--capture-dir` arms exemplar captures (see
//! `llstar_bench::overhead` for the mode matrix: `spans-off`,
//! `spans-on`, and the informational `spans-harvest` scale row).
//!
//! Appends schema-versioned `spans_overhead` rows to
//! `BENCH_analysis.json` (creating the file with the stream header when
//! absent).
//!
//! Flags:
//! - `--quick`: measure the 10 KB smoke corpus with more reps instead
//!   of the tier selected by `LLSTAR_GAUNTLET_TIER` (default 1 MB) —
//!   CI smoke mode.
//! - `--gate`: exit non-zero if the corpus-aggregate `spans-on`
//!   overhead (each grammar's median paired ratio weighted by its
//!   `spans-off` time — see `spans_gate_overhead`) exceeds 5%, the
//!   ≤1.05× acceptance budget for span recording.
//! - `--json PATH`: also write a standalone schema-versioned JSONL
//!   stream (header + spans_overhead rows) to `PATH`.
//!
//! [`Parser::enable_span_recording`]: llstar_runtime::Parser::enable_span_recording

use llstar_bench::overhead::{
    format_overhead, spans_gate_overhead, spans_overhead_all, spans_overhead_jsonl,
    GAUNTLET_BENCH_SEED,
};
use llstar_bench::report;
use llstar_suite::gauntlet::Tier;

/// The acceptance budget: spans-on within 5% of spans-off.
const GATE_TOLERANCE_PCT: f64 = 5.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());

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
    println!("{}", format_overhead(&rows));

    let jsonl = spans_overhead_jsonl(&rows);
    if let Err(e) = report::append_bench_rows(report::bench_analysis_path(), &jsonl) {
        eprintln!("warning: could not update BENCH_analysis.json: {e}");
    } else {
        eprintln!("appended {} spans_overhead rows to BENCH_analysis.json", rows.len());
    }
    if let Some(path) = json_path {
        let stream = report::bench_stream_header() + &jsonl;
        std::fs::write(&path, stream).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {} spans_overhead rows to {path}", rows.len());
    }

    if gate {
        let Some(aggregate) = spans_gate_overhead(&rows) else {
            eprintln!("GATE: no spans-off/spans-on pair measured");
            std::process::exit(1);
        };
        if aggregate > GATE_TOLERANCE_PCT {
            eprintln!(
                "GATE: corpus-aggregate spans-on overhead {aggregate:.2}% exceeds \
                 the {GATE_TOLERANCE_PCT}% budget"
            );
            std::process::exit(1);
        }
        eprintln!(
            "gate passed: corpus-aggregate spans-on overhead {aggregate:.2}% \
             (budget {GATE_TOLERANCE_PCT}%)"
        );
    }
}
