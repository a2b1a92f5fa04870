//! Metrics-overhead bench: what the always-on counters cost. Every
//! gauntlet grammar's tier corpus is parsed by the compiled-dispatch
//! interpreter in four observability modes:
//!
//! - `metrics-off` — counters disabled ([`Parser::set_metrics_enabled`]),
//!   the hypothetical zero-instrumentation baseline;
//! - `metrics-on` — the production default (counters enabled, no sink);
//! - `trace-sampled-64` — counters plus a [`SamplingSink`] keeping 1 in
//!   64 top-level prediction windows, serialized to a null writer;
//! - `trace-full` — counters plus the full JSONL trace stream to a null
//!   writer (the price of `llstar trace`, for scale).
//!
//! The off/on pair is the gated one; the trace modes run once — they
//! exist to bound the tiers, not to gate. Timing excludes lexing: token
//! streams are materialized before the clock starts, exactly like the
//! gauntlet bench.
//!
//! The same file hosts the span-overhead matrix ([`spans_overhead_all`])
//! measuring [`Parser::enable_span_recording`]: `spans-off` vs
//! `spans-on` (the gated pair — recording fold only, trees never
//! harvested, the cost every request pays when `--capture-dir` is set)
//! plus `spans-harvest` (recording and a [`Parser::span_tree`] harvest
//! per input, the worst case where every request is captured; run once,
//! informational). Its timed region is the full per-request work a
//! serve worker does — lex *and* parse — because the ≤ 5% budget
//! governs request latency, and its gate enforces the corpus-aggregate
//! overhead ([`spans_gate_overhead`]), not each grammar's row in
//! isolation.
//!
//! Both gated pairs are measured with [`paired_reps`]: each rep times
//! off then on back-to-back, sharing one noise window, and the gate
//! statistic is the *median of per-rep paired ratios* rather than a
//! best-of ratio, which on busy machines compares two unrelated noise
//! floors.

use crate::measure::{paired_reps, parse_pass, timed};
use crate::rows::jsonl;
use llstar_core::{analyze, GrammarAnalysis, Json};
use llstar_runtime::{JsonlSink, NopHooks, Parser, SamplingSink, TokenStream, TraceSink};
use llstar_suite::gauntlet::{self, GauntletEntry, Tier};
use std::time::Duration;

/// Corpus seed for the overhead rows (shared with the gauntlet bench so
/// the two measure the same inputs).
pub use crate::gauntlet::GAUNTLET_BENCH_SEED;

/// Sampling divisor for the `trace-sampled-64` mode.
pub const SAMPLE_N: u64 = 64;

/// The observability configurations, measured in this order.
pub const MODES: [&str; 4] = ["metrics-off", "metrics-on", "trace-sampled-64", "trace-full"];

/// The span-recording configurations, measured in this order.
pub const SPAN_MODES: [&str; 3] = ["spans-off", "spans-on", "spans-harvest"];

/// One `grammar × mode` measurement.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Gauntlet grammar name.
    pub grammar: &'static str,
    /// Corpus tier label.
    pub tier: &'static str,
    /// Observability mode (see [`MODES`]).
    pub mode: &'static str,
    /// Repetitions measured (row keeps the best time).
    pub reps: u32,
    /// Corpus tokens (EOF excluded).
    pub input_tokens: usize,
    /// Best whole-corpus parse time, lexing excluded.
    pub parse_time: Duration,
    /// Tokens per second at the best rep.
    pub tokens_per_sec: u64,
    /// Slowdown versus this grammar's baseline (`metrics-off` /
    /// `spans-off`) row, in percent, clamped at 0 (faster than baseline
    /// is measurement noise). The gated `metrics-on` and `spans-on` rows
    /// report the median of per-rep paired ratios (see [`paired_reps`]);
    /// the once-run scale rows compare against the best baseline time.
    pub overhead_pct: f64,
}

impl OverheadRow {
    fn new(
        grammar: &'static str,
        tier: Tier,
        mode: &'static str,
        reps: u32,
        input_tokens: usize,
        parse_time: Duration,
        ratio: f64,
    ) -> OverheadRow {
        let secs = parse_time.as_secs_f64();
        OverheadRow {
            grammar,
            tier: tier.label(),
            mode,
            reps,
            input_tokens,
            parse_time,
            tokens_per_sec: if secs > 0.0 { (input_tokens as f64 / secs) as u64 } else { 0 },
            overhead_pct: (100.0 * (ratio - 1.0)).max(0.0),
        }
    }
}

fn pass(
    g: &llstar_grammar::Grammar,
    a: &GrammarAnalysis,
    start: &str,
    streams: &[Vec<llstar_lexer::Token>],
    metrics: bool,
    sink: Option<&mut dyn TraceSink>,
) -> Duration {
    let mut parser = Parser::new(g, a, TokenStream::new(streams[0].clone()), NopHooks);
    parser.set_metrics_enabled(metrics);
    if let Some(sink) = sink {
        parser.set_trace_sink(sink);
    }
    streams
        .iter()
        .map(|stream| {
            parse_pass(&mut parser, stream, start)
                .unwrap_or_else(|e| panic!("overhead bench: corpus input rejected: {e}"))
        })
        .sum()
}

/// The metrics matrix: the gated off/on pair for every entry via
/// [`paired_reps`], then each entry's trace modes once.
fn overhead_matrix(
    entries: &[GauntletEntry],
    tier: Tier,
    seed: u64,
    reps: u32,
) -> Vec<OverheadRow> {
    let grammars: Vec<llstar_grammar::Grammar> = entries.iter().map(|e| e.load()).collect();
    let analyses: Vec<GrammarAnalysis> = grammars.iter().map(analyze).collect();
    let streams: Vec<Vec<Vec<llstar_lexer::Token>>> = entries
        .iter()
        .zip(&grammars)
        .map(|(entry, g)| {
            let scanner = g.lexer.build().expect("gauntlet lexer builds");
            gauntlet::corpus(entry, tier, seed)
                .iter()
                .map(|(label, text)| {
                    scanner.tokenize(text).unwrap_or_else(|e| panic!("{label}: fails to lex: {e}"))
                })
                .collect()
        })
        .collect();
    let run = |i: usize, metrics: bool, sink: Option<&mut dyn TraceSink>| {
        pass(&grammars[i], &analyses[i], entries[i].start_rule, &streams[i], metrics, sink)
    };

    let paired = paired_reps(entries.len(), reps, |i, on| run(i, on, None));
    let mut rows = Vec::with_capacity(entries.len() * MODES.len());
    for (i, p) in paired.iter().enumerate() {
        let sampled = {
            let mut out = JsonlSink::new(std::io::sink());
            let mut sampler = SamplingSink::new(&mut out, SAMPLE_N);
            run(i, true, Some(&mut sampler))
        };
        let full = run(i, true, Some(&mut JsonlSink::new(std::io::sink())));
        let input_tokens: usize = streams[i].iter().map(|s| s.len() - 1).sum();
        let off = p.best_off.as_secs_f64();
        let timings = [
            ("metrics-off", reps, p.best_off, 1.0),
            ("metrics-on", reps, p.best_on, p.median_ratio),
            ("trace-sampled-64", 1, sampled, sampled.as_secs_f64() / off),
            ("trace-full", 1, full, full.as_secs_f64() / off),
        ];
        rows.extend(timings.into_iter().map(|(mode, r, t, ratio)| {
            OverheadRow::new(entries[i].name, tier, mode, r, input_tokens, t, ratio)
        }));
    }
    rows
}

/// Measures all four modes for one gauntlet grammar.
pub fn overhead_run(entry: &GauntletEntry, tier: Tier, seed: u64, reps: u32) -> Vec<OverheadRow> {
    overhead_matrix(std::slice::from_ref(entry), tier, seed, reps)
}

/// Measures every gauntlet grammar at `tier`, round-robining the gated
/// reps across grammars (see [`paired_reps`]).
pub fn overhead_all(tier: Tier, seed: u64, reps: u32) -> Vec<OverheadRow> {
    overhead_matrix(&gauntlet::all(), tier, seed, reps)
}

fn span_pass(
    g: &llstar_grammar::Grammar,
    a: &GrammarAnalysis,
    start: &str,
    scanner: &llstar_lexer::Scanner,
    inputs: &[(String, String)],
    record: bool,
    harvest: bool,
) -> Duration {
    let first = scanner.tokenize(&inputs[0].1).expect("corpus lexes");
    let mut parser = Parser::new(g, a, TokenStream::new(first), NopHooks);
    if record {
        parser.enable_span_recording();
    }
    // Untimed warmup over the whole corpus: a serve worker's recorder
    // is reused across requests, so its buffers (and the memo tables)
    // are warm in steady state — growing them inside the timed region
    // would charge one-time allocation to the per-parse overhead.
    for (i, (_, text)) in inputs.iter().enumerate() {
        let tokens = TokenStream::new(scanner.tokenize(text).expect("corpus lexes"));
        if i > 0 {
            parser.reset(tokens);
        }
        parser
            .parse_to_eof(start)
            .unwrap_or_else(|e| panic!("spans overhead bench: corpus input rejected: {e}"));
    }
    // Unlike the metrics matrix, the timed region is the full
    // per-request work a serve worker does — lex *and* parse — because
    // the ≤ 5% budget governs request latency, not the parse loop in
    // isolation.
    inputs
        .iter()
        .map(|(_, text)| {
            let ((), elapsed) = timed(|| {
                let tokens = scanner.tokenize(text).unwrap_or_else(|e| {
                    panic!("spans overhead bench: corpus input fails to lex: {e}")
                });
                parser.reset(TokenStream::new(tokens));
                parser
                    .parse_to_eof(start)
                    .unwrap_or_else(|e| panic!("spans overhead bench: corpus input rejected: {e}"));
                if harvest {
                    std::hint::black_box(parser.span_tree().expect("recording enabled"));
                }
            });
            elapsed
        })
        .sum()
}

/// The spans matrix: the gated off/on pair for every entry via
/// [`paired_reps`], then each entry's harvest mode once.
fn spans_overhead_matrix(
    entries: &[GauntletEntry],
    tier: Tier,
    seed: u64,
    reps: u32,
) -> Vec<OverheadRow> {
    let grammars: Vec<llstar_grammar::Grammar> = entries.iter().map(|e| e.load()).collect();
    let corpora: Vec<Vec<(String, String)>> =
        entries.iter().map(|e| gauntlet::corpus(e, tier, seed)).collect();
    let analyses: Vec<GrammarAnalysis> = grammars.iter().map(analyze).collect();
    let scanners: Vec<llstar_lexer::Scanner> =
        grammars.iter().map(|g| g.lexer.build().expect("gauntlet lexer builds")).collect();
    let run = |i: usize, record: bool, harvest: bool| {
        let start = entries[i].start_rule;
        span_pass(&grammars[i], &analyses[i], start, &scanners[i], &corpora[i], record, harvest)
    };

    let paired = paired_reps(entries.len(), reps, |i, on| run(i, on, false));
    let mut rows = Vec::with_capacity(entries.len() * SPAN_MODES.len());
    for (i, p) in paired.iter().enumerate() {
        let harvest = run(i, true, true);
        let input_tokens: usize = corpora[i]
            .iter()
            .map(|(label, text)| {
                scanners[i]
                    .tokenize(text)
                    .unwrap_or_else(|e| panic!("{label}: fails to lex: {e}"))
                    .len()
                    - 1
            })
            .sum();
        let timings = [
            ("spans-off", reps, p.best_off, 1.0),
            ("spans-on", reps, p.best_on, p.median_ratio),
            ("spans-harvest", 1, harvest, harvest.as_secs_f64() / p.best_off.as_secs_f64()),
        ];
        rows.extend(timings.into_iter().map(|(mode, r, t, ratio)| {
            OverheadRow::new(entries[i].name, tier, mode, r, input_tokens, t, ratio)
        }));
    }
    rows
}

/// Measures all three span modes for one gauntlet grammar.
pub fn spans_overhead_run(
    entry: &GauntletEntry,
    tier: Tier,
    seed: u64,
    reps: u32,
) -> Vec<OverheadRow> {
    spans_overhead_matrix(std::slice::from_ref(entry), tier, seed, reps)
}

/// Measures every gauntlet grammar's span-recording cost at `tier`,
/// round-robining the gated reps across grammars (see [`paired_reps`]).
pub fn spans_overhead_all(tier: Tier, seed: u64, reps: u32) -> Vec<OverheadRow> {
    spans_overhead_matrix(&gauntlet::all(), tier, seed, reps)
}

fn rows_jsonl(rows: &[OverheadRow], record_type: &str) -> String {
    jsonl(rows.iter().map(|r| {
        Json::Object(vec![
            ("type".into(), Json::Str(record_type.into())),
            ("grammar".into(), Json::Str(r.grammar.to_string())),
            ("tier".into(), Json::Str(r.tier.to_string())),
            ("mode".into(), Json::Str(r.mode.to_string())),
            ("reps".into(), Json::Num(u64::from(r.reps))),
            ("input-tokens".into(), Json::Num(r.input_tokens as u64)),
            ("parse-micros".into(), Json::Num(r.parse_time.as_micros() as u64)),
            ("tokens-per-sec".into(), Json::Num(r.tokens_per_sec)),
            ("overhead-pct-milli".into(), Json::Num((r.overhead_pct * 1000.0) as u64)),
        ])
    }))
}

/// JSONL export — the `metrics_overhead` record type in
/// `BENCH_analysis.json`. Fractional overhead is a scaled integer
/// (`overhead-pct-milli`), matching the stream's u64-only number model.
pub fn overhead_jsonl(rows: &[OverheadRow]) -> String {
    rows_jsonl(rows, "metrics_overhead")
}

/// JSONL export — the `spans_overhead` record type in
/// `BENCH_analysis.json`, same field shape as `metrics_overhead`.
pub fn spans_overhead_jsonl(rows: &[OverheadRow]) -> String {
    rows_jsonl(rows, "spans_overhead")
}

/// Renders the rows as an aligned text table.
pub fn format_overhead(rows: &[OverheadRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:<6} {:<18} {:>4} {:>12} {:>12} {:>12} {:>9}\n",
        "grammar", "tier", "mode", "reps", "tokens", "micros", "tok/s", "overhead"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<6} {:<18} {:>4} {:>12} {:>12} {:>12} {:>8.2}%\n",
            r.grammar,
            r.tier,
            r.mode,
            r.reps,
            r.input_tokens,
            r.parse_time.as_micros(),
            r.tokens_per_sec,
            r.overhead_pct,
        ));
    }
    out
}

/// The gate the CI bench step enforces: `metrics-on` within
/// `tolerance_pct` of `metrics-off` for every grammar. Returns the
/// violations (grammar, measured overhead).
pub fn gate_violations(rows: &[OverheadRow], tolerance_pct: f64) -> Vec<(&'static str, f64)> {
    rows.iter()
        .filter(|r| r.mode == "metrics-on" && r.overhead_pct > tolerance_pct)
        .map(|r| (r.grammar, r.overhead_pct))
        .collect()
}

/// The span-recording gate statistic: corpus-aggregate `spans-on`
/// overhead — each grammar's median paired ratio weighted by that
/// grammar's `spans-off` time. Per-grammar rows stay informational: a
/// single quick-tier pass is 1–8 ms and its median still wobbles a
/// couple of points with machine noise, while the time-weighted
/// aggregate answers the question the budget actually asks (what
/// fraction of total request time recording costs) and is stable. The
/// `spans-harvest` scale row never contributes. `None` when `rows`
/// holds no complete gated pair.
pub fn spans_gate_overhead(rows: &[OverheadRow]) -> Option<f64> {
    let mut weighted = 0.0;
    let mut total = 0.0;
    for on in rows.iter().filter(|r| r.mode == "spans-on") {
        let off = rows.iter().find(|r| r.grammar == on.grammar && r.mode == "spans-off")?;
        let w = off.parse_time.as_secs_f64();
        weighted += w * on.overhead_pct;
        total += w;
    }
    (total > 0.0).then(|| weighted / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_rows_cover_every_mode_and_jsonl_round_trips() {
        let entry = gauntlet::by_name("json").expect("json gauntlet entry");
        let rows = overhead_run(&entry, Tier::Smoke, GAUNTLET_BENCH_SEED, 2);
        assert_eq!(rows.len(), MODES.len());
        for (row, mode) in rows.iter().zip(MODES) {
            assert_eq!(row.mode, mode);
            assert!(row.input_tokens > 0);
            assert!(row.parse_time > Duration::ZERO, "{mode}: zero parse time");
        }
        assert_eq!(rows[0].overhead_pct, 0.0, "baseline row must have zero overhead");

        let jsonl = overhead_jsonl(&rows);
        let parsed = crate::rows::load_bench_rows(&jsonl).expect("rows parse");
        assert_eq!(parsed.len(), rows.len());
        for row in &parsed {
            assert_eq!(row.get("type").and_then(Json::as_str), Some("metrics_overhead"));
            assert!(row.get("overhead-pct-milli").and_then(Json::as_u64).is_some());
        }

        // An obviously-breached gate trips; the real rows at smoke tier
        // are too noisy to assert on here (the 1 MB tier gates in CI).
        assert!(gate_violations(&rows, f64::INFINITY).is_empty());
        let mut slow = rows.clone();
        for r in &mut slow {
            if r.mode == "metrics-on" {
                r.overhead_pct = 50.0;
            }
        }
        assert_eq!(gate_violations(&slow, 5.0), vec![("json", 50.0)]);
    }

    #[test]
    fn spans_rows_cover_every_mode_and_gate_sees_only_spans_on() {
        let entry = gauntlet::by_name("json").expect("json gauntlet entry");
        let rows = spans_overhead_run(&entry, Tier::Smoke, GAUNTLET_BENCH_SEED, 2);
        assert_eq!(rows.len(), SPAN_MODES.len());
        for (row, mode) in rows.iter().zip(SPAN_MODES) {
            assert_eq!(row.mode, mode);
            assert!(row.parse_time > Duration::ZERO, "{mode}: zero parse time");
        }
        assert_eq!(rows[0].overhead_pct, 0.0, "baseline row must have zero overhead");

        let jsonl = spans_overhead_jsonl(&rows);
        let parsed = crate::rows::load_bench_rows(&jsonl).expect("rows parse");
        assert_eq!(parsed.len(), rows.len());
        for row in &parsed {
            assert_eq!(row.get("type").and_then(Json::as_str), Some("spans_overhead"));
        }

        // Only spans-on rows feed the aggregate; a breached harvest
        // row must not move it.
        let mut slow = rows.clone();
        for r in &mut slow {
            r.overhead_pct = if r.mode == "spans-harvest" { 90.0 } else { 0.0 };
        }
        assert_eq!(spans_gate_overhead(&slow), Some(0.0));
        for r in &mut slow {
            if r.mode == "spans-on" {
                r.overhead_pct = 50.0;
            }
        }
        // Weights are measured times, so the weighted mean of equal
        // values is that value only up to rounding.
        let gated = spans_gate_overhead(&slow).expect("a complete gated pair");
        assert!((gated - 50.0).abs() < 1e-9, "{gated}");
        assert_eq!(spans_gate_overhead(&[]), None);
    }
}
