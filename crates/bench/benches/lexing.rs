//! Lexing throughput: MB/s through the scanner's scalar, lowered-table
//! and fused-classification paths over the gauntlet corpora (see
//! [`llstar_bench::lexing`] for the path definitions).
//!
//! Writes `lex` rows (see `llstar_bench::rows::bench_main` for the
//! flags). `--quick` measures the 10 KB smoke corpus with fewer reps
//! instead of the tier selected by `LLSTAR_GAUNTLET_TIER` (default
//! 1 MB). The gate fails if, on any grammar, the table path is slower
//! than the scalar path beyond 10% noise tolerance. Token-stream parity
//! is unconditional: the harness panics on any divergence before a row
//! is ever emitted.

use llstar_bench::lexing::{lexing_all, LEXING_BENCH_SEED};
use llstar_bench::rows::{bench_main, BenchRun};
use llstar_bench::{format_lexing, lexing_jsonl, LexingRow};
use llstar_suite::gauntlet::Tier;

fn main() {
    bench_main("lex", |quick| {
        let (tier, reps) = if quick { (Tier::Smoke, 3) } else { (Tier::from_env(), 5) };
        eprintln!("lexing: measuring {} corpora (seed {LEXING_BENCH_SEED:#x})", tier.label());
        let rows = lexing_all(tier, LEXING_BENCH_SEED, reps);
        BenchRun { table: format_lexing(&rows), rows: lexing_jsonl(&rows), gate: Some(gate(&rows)) }
    });
}

fn gate(rows: &[LexingRow]) -> Result<String, Vec<String>> {
    let by = |grammar: &str, path: &str| -> &LexingRow {
        rows.iter()
            .find(|r| r.grammar == grammar && r.path == path)
            .unwrap_or_else(|| panic!("missing {grammar}/{path} row"))
    };
    let mut grammars: Vec<&str> = rows.iter().map(|r| r.grammar).collect();
    grammars.dedup();
    let failures: Vec<String> = grammars
        .into_iter()
        .filter_map(|g| {
            let (scalar, table) = (by(g, "scalar"), by(g, "table"));
            // 10% tolerance: micro-timings jitter, but the lowering must
            // never be meaningfully slower than the walk it replaces.
            (table.mb_per_sec < scalar.mb_per_sec * 0.90).then(|| {
                format!(
                    "{g} table path {:.1} MB/s < scalar {:.1} MB/s",
                    table.mb_per_sec, scalar.mb_per_sec
                )
            })
        })
        .collect();
    if failures.is_empty() {
        Ok("table >= scalar on every grammar".into())
    } else {
        Err(failures)
    }
}
