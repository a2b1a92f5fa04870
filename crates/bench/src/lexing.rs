//! Lexing throughput bench: MB/s and tokens/s through the scanner's
//! execution paths over the gauntlet corpora, one row per
//! `grammar × path` cell. Paths:
//!
//! - `scalar` — the reference char-at-a-time DFA walk over the
//!   [`ScannerDfa`] (per-char class lookup, binary-searched edges);
//! - `table` — the lowered byte-class table walk
//!   ([`ScannerTables`]: dense `next` array, ASCII byte map, dead-class
//!   encoding);
//! - `fused` — the `table` path plus parser token-class stamping
//!   ([`Scanner::tokenize_classified`]), i.e. what the runtime front
//!   end actually executes before prediction.
//!
//! Every path is cross-checked against the scalar stream before timing
//! — a row is only ever emitted for byte-identical token output.
//!
//! [`ScannerDfa`]: llstar_lexer::ScannerDfa
//! [`ScannerTables`]: llstar_lexer::ScannerTables
//! [`Scanner::tokenize_classified`]: llstar_lexer::Scanner::tokenize_classified

use crate::measure::{best_of, timed};
use crate::rows::jsonl;
use llstar_core::{analyze, Json};
use llstar_lexer::{LexPath, Scanner};
use llstar_suite::gauntlet::{self, GauntletEntry, Tier};
use std::time::Duration;

/// Corpus seed shared by every lexing bench row (distinct from the
/// gauntlet parse bench: lexing measures a different axis).
pub const LEXING_BENCH_SEED: u64 = 0x1e11_57a6;

/// The bench's path labels, measurement order. The first entry is the
/// baseline every speedup is relative to.
pub const LEX_PATHS: [&str; 3] = ["scalar", "table", "fused"];

/// One `grammar × path` throughput measurement.
#[derive(Debug, Clone)]
pub struct LexingRow {
    /// Gauntlet grammar name.
    pub grammar: &'static str,
    /// Path label (see module docs).
    pub path: &'static str,
    /// Corpus tier label (`10KB`/`1MB`/`10MB`).
    pub tier: &'static str,
    /// Total corpus bytes.
    pub input_bytes: usize,
    /// Total corpus tokens (EOF excluded).
    pub tokens: usize,
    /// Best-of-reps wall clock for one full pass over the corpus.
    pub lex_time: Duration,
    /// Megabytes per second (10^6 bytes, matching the paper's tables).
    pub mb_per_sec: f64,
    /// Tokens per second.
    pub tokens_per_sec: u64,
    /// Speedup over the scalar row, ×1000 (scalar row carries 1000).
    pub speedup_milli: u64,
}

/// Tokenizes every corpus file through `path`, returning the wall
/// clock for the whole pass. Results are consumed via `drop` — the
/// allocation cost of the token vectors is part of what we measure.
fn pass(scanner: &Scanner, corpus: &[(String, String)], path: LexPath) -> Duration {
    timed(|| {
        for (name, text) in corpus {
            let toks = scanner
                .tokenize_path(text, path)
                .unwrap_or_else(|e| panic!("lexing bench corpus {name} failed to lex: {e}"));
            std::hint::black_box(&toks);
        }
    })
    .1
}

/// The fused pass: `table` plus parser-class stamping.
fn pass_fused(scanner: &Scanner, corpus: &[(String, String)], class_map: &[u8]) -> Duration {
    timed(|| {
        for (name, text) in corpus {
            let toks = scanner
                .tokenize_classified(text, class_map)
                .unwrap_or_else(|e| panic!("lexing bench corpus {name} failed to lex: {e}"));
            std::hint::black_box(&toks);
        }
    })
    .1
}

fn throughput(bytes: usize, tokens: usize, best: Duration) -> (f64, u64) {
    let secs = best.as_secs_f64();
    if secs <= 0.0 {
        return (0.0, 0);
    }
    (bytes as f64 / secs / 1e6, (tokens as f64 / secs) as u64)
}

/// Measures every path for one gauntlet grammar: generates the
/// tier's corpus, cross-checks that every path produces the scalar
/// token stream, then times `reps` passes per path and keeps the best.
///
/// # Panics
/// Panics if the grammar fails to build, a corpus file fails to lex,
/// or any path diverges from the scalar stream — all bugs, not
/// measurement outcomes.
pub fn lexing_run(entry: &GauntletEntry, tier: Tier, seed: u64, reps: usize) -> Vec<LexingRow> {
    let grammar = entry.load();
    let analysis = analyze(&grammar);
    let scanner = grammar
        .lexer
        .build()
        .unwrap_or_else(|e| panic!("gauntlet grammar {} has an invalid lexer: {e}", entry.name));
    let class_map: Vec<u8> =
        analysis.tables.classes().map(|c| c.map().to_vec()).unwrap_or_default();
    let corpus = gauntlet::corpus(entry, tier, seed);
    let bytes: usize = corpus.iter().map(|(_, t)| t.len()).sum();
    let mut tokens = 0usize;

    // Parity first: the throughput table is only meaningful if every
    // path agrees byte-for-byte (Token equality ignores the derived
    // `class` field, so the fused stream participates too).
    for (name, text) in &corpus {
        let scalar = scanner
            .tokenize_path(text, LexPath::Scalar)
            .unwrap_or_else(|e| panic!("lexing bench corpus {name} failed to lex: {e}"));
        tokens += scalar.len().saturating_sub(1);
        let table = scanner.tokenize_path(text, LexPath::Table).unwrap();
        assert_eq!(table, scalar, "{name}: table path diverged from scalar");
        assert_eq!(
            scanner.tokenize_classified(text, &class_map).unwrap(),
            scalar,
            "{name}: fused path diverged from scalar"
        );
    }

    let mut rows = Vec::new();
    let mut scalar_secs = 0.0f64;
    for &label in LEX_PATHS.iter() {
        let run = |corpus: &[(String, String)]| match label {
            "scalar" => pass(&scanner, corpus, LexPath::Scalar),
            "table" => pass(&scanner, corpus, LexPath::Table),
            _ => pass_fused(&scanner, corpus, &class_map),
        };
        let best = best_of(reps, || run(&corpus)); // rep 1 doubles as the warmup
        let (mb_per_sec, tokens_per_sec) = throughput(bytes, tokens, best);
        let secs = best.as_secs_f64();
        let speedup_milli = if label == "scalar" {
            scalar_secs = secs;
            1000
        } else if secs > 0.0 {
            (scalar_secs / secs * 1000.0) as u64
        } else {
            0
        };
        rows.push(LexingRow {
            grammar: entry.name,
            path: label,
            tier: tier.label(),
            input_bytes: bytes,
            tokens,
            lex_time: best,
            mb_per_sec,
            tokens_per_sec,
            speedup_milli,
        });
    }
    rows
}

/// [`lexing_run`] over every gauntlet grammar.
pub fn lexing_all(tier: Tier, seed: u64, reps: usize) -> Vec<LexingRow> {
    gauntlet::all().iter().flat_map(|e| lexing_run(e, tier, seed, reps)).collect()
}

/// Formats the throughput table, grouped by grammar.
pub fn format_lexing(rows: &[LexingRow]) -> String {
    let mut out = String::from(
        "Lexing throughput (same corpus; scalar DFA walk vs lowered tables)\n\
         Grammar    Path     Tier     Bytes    Tokens      Time      MB/s     Tokens/s  Speedup\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<8} {:<5} {:>9} {:>9} {:>9.1?} {:>9.1} {:>12} {:>7.2}x\n",
            r.grammar,
            r.path,
            r.tier,
            r.input_bytes,
            r.tokens,
            r.lex_time,
            r.mb_per_sec,
            r.tokens_per_sec,
            r.speedup_milli as f64 / 1000.0,
        ));
    }
    out
}

/// JSONL export: one `lex` line per row (the `lex` record type in
/// `BENCH_analysis.json`). Fractional MB/s is carried as `mbps-milli`
/// (×1000) because the bench stream is integer-valued.
pub fn lexing_jsonl(rows: &[LexingRow]) -> String {
    jsonl(rows.iter().map(|r| {
        Json::Object(vec![
            ("type".into(), Json::Str("lex".into())),
            ("grammar".into(), Json::Str(r.grammar.to_string())),
            ("path".into(), Json::Str(r.path.to_string())),
            ("tier".into(), Json::Str(r.tier.to_string())),
            ("bytes".into(), Json::Num(r.input_bytes as u64)),
            ("tokens".into(), Json::Num(r.tokens as u64)),
            ("micros".into(), Json::Num(r.lex_time.as_micros() as u64)),
            ("mbps-milli".into(), Json::Num((r.mb_per_sec * 1000.0) as u64)),
            ("tokens-per-sec".into(), Json::Num(r.tokens_per_sec)),
            ("speedup-milli".into(), Json::Num(r.speedup_milli)),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{bench_stream_header, load_bench_rows};

    #[test]
    fn smoke_rows_cover_every_grammar_and_path() {
        let rows = lexing_all(Tier::Smoke, LEXING_BENCH_SEED, 1);
        assert_eq!(rows.len(), gauntlet::all().len() * LEX_PATHS.len());
        for entry in gauntlet::all() {
            for path in LEX_PATHS {
                let row = rows
                    .iter()
                    .find(|r| r.grammar == entry.name && r.path == path)
                    .unwrap_or_else(|| panic!("missing row {}/{path}", entry.name));
                assert!(row.input_bytes >= Tier::Smoke.bytes() / 2, "corpus too small");
                assert!(row.tokens > 0, "{}/{path}: no tokens", entry.name);
                assert!(row.mb_per_sec > 0.0, "{}/{path}: zero throughput", entry.name);
            }
            // The scalar row anchors the speedup column.
            let scalar = rows.iter().find(|r| r.grammar == entry.name && r.path == "scalar");
            assert_eq!(scalar.unwrap().speedup_milli, 1000);
        }
        let table = format_lexing(&rows);
        for path in LEX_PATHS {
            assert!(table.contains(path), "format_lexing lost the {path} rows");
        }
    }

    #[test]
    fn lex_jsonl_round_trips_through_the_bench_stream() {
        let entry = gauntlet::by_name("json").unwrap();
        let rows = lexing_run(&entry, Tier::Smoke, LEXING_BENCH_SEED, 1);
        let jsonl = lexing_jsonl(&rows);
        let stream = bench_stream_header() + &jsonl;
        let parsed = load_bench_rows(&stream).expect("lex stream parses");
        assert_eq!(parsed.len(), rows.len());
        for (value, row) in parsed.iter().zip(&rows) {
            assert_eq!(value.get("type").and_then(Json::as_str), Some("lex"));
            assert_eq!(value.get("grammar").and_then(Json::as_str), Some(row.grammar));
            assert_eq!(value.get("path").and_then(Json::as_str), Some(row.path));
            assert_eq!(value.get("tokens").and_then(Json::as_u64), Some(row.tokens as u64));
            assert_eq!(value.get("speedup-milli").and_then(Json::as_u64), Some(row.speedup_milli));
        }
    }
}
