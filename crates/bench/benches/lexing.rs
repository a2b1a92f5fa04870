//! Lexing throughput: MB/s through the scanner's scalar, lowered-table
//! and fused-classification paths over the gauntlet corpora (see
//! [`llstar_bench::lexing`] for the path definitions).
//!
//! Appends schema-versioned `lex` rows to `BENCH_analysis.json`
//! (creating the file with the stream header when absent).
//!
//! Flags:
//! - `--quick`: measure the 10 KB smoke corpus with fewer reps instead
//!   of the tier selected by `LLSTAR_GAUNTLET_TIER` (default 1 MB) —
//!   CI smoke mode.
//! - `--gate`: exit non-zero if, on any grammar, the table path is
//!   slower than the scalar path (beyond 10% noise tolerance).
//!   Token-stream parity is unconditional: the harness panics on any
//!   divergence before a row is ever emitted.
//! - `--json PATH`: also write a standalone schema-versioned JSONL
//!   stream (header + lex rows) to `PATH`.

use llstar_bench::lexing::{lexing_all, LEXING_BENCH_SEED};
use llstar_bench::{format_lexing, lexing_jsonl, report, LexingRow};
use llstar_suite::gauntlet::Tier;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());

    let (tier, reps) = if quick { (Tier::Smoke, 3) } else { (Tier::from_env(), 5) };
    eprintln!("lexing: measuring {} corpora (seed {LEXING_BENCH_SEED:#x})", tier.label());
    let rows = lexing_all(tier, LEXING_BENCH_SEED, reps);
    println!("{}", format_lexing(&rows));

    let jsonl = lexing_jsonl(&rows);
    if let Err(e) = report::append_bench_rows(report::bench_analysis_path(), &jsonl) {
        eprintln!("warning: could not update BENCH_analysis.json: {e}");
    } else {
        eprintln!("appended {} lex rows to BENCH_analysis.json", rows.len());
    }
    if let Some(path) = json_path {
        let stream = report::bench_stream_header() + &jsonl;
        std::fs::write(&path, stream).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {} lex rows to {path}", rows.len());
    }

    if gate {
        let by = |grammar: &str, path: &str| -> &LexingRow {
            rows.iter()
                .find(|r| r.grammar == grammar && r.path == path)
                .unwrap_or_else(|| panic!("missing {grammar}/{path} row"))
        };
        let mut failed = false;
        let grammars: Vec<&str> = {
            let mut names: Vec<&str> = rows.iter().map(|r| r.grammar).collect();
            names.dedup();
            names
        };
        for g in grammars {
            let (scalar, table) = (by(g, "scalar"), by(g, "table"));
            // 10% tolerance: micro-timings jitter, but the lowering must
            // never be meaningfully slower than the walk it replaces.
            if table.mb_per_sec < scalar.mb_per_sec * 0.90 {
                eprintln!(
                    "GATE FAIL: {g} table path {:.1} MB/s < scalar {:.1} MB/s",
                    table.mb_per_sec, scalar.mb_per_sec
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("gate passed: table >= scalar on every grammar");
    }
}
