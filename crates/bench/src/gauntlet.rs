//! Gauntlet bench mode: the paper's Tables 3–4 (runtime lookahead and
//! backtracking behaviour) reproduced over the realistic gauntlet
//! grammars, with one row per `grammar × engine` cell. Engines:
//!
//! - `interp-linear` — ATN interpreter, linear `DfaState::edges` scan
//!   (an analysis whose compiled tables are disabled);
//! - `interp-compiled` — ATN interpreter through the compiled dense
//!   dispatch tables;
//! - `packrat-memo` — the memoized packrat recognizer baseline;
//! - `packrat-nomemo` — the same recognizer with memoization off and a
//!   fuel cap (without memoization the PEG-mode grammars degrade
//!   super-linearly, which is the paper's argument *for* memoization —
//!   rows where the cap fired carry `completed = false`).
//!
//! Interpreter rows sum per-decision
//! [`ParseStats`](llstar_runtime::ParseStats) into the Table 3 columns
//! (avg k / back. k / max k), a per-event lookahead-depth
//! histogram, and the Table 4 columns (backtrack percentage and the
//! rate at potentially-backtracking decisions). Packrat rows report the
//! engine's own speculation counters (attempts, backtracked
//! alternatives, wasted tokens) and memo footprint. Timing excludes
//! lexing everywhere; interpreter engines recycle one parser via
//! [`Parser::reset`] exactly like the gauntlet oracle does. Each row is
//! one rep: every corpus file is parsed once.

use crate::measure::{parse_pass, timed};
use crate::report::can_backtrack_by_id;
use crate::rows::jsonl;
use llstar_core::{analyze, CompiledTables, GrammarAnalysis, Json};
use llstar_packrat::PackratParser;
use llstar_runtime::{NopHooks, Parser, TokenStream};
use llstar_suite::gauntlet::{self, GauntletEntry, Tier};
use std::time::Duration;

/// Corpus seed shared by every gauntlet bench row (distinct from the
/// oracle's seed: the bench is a measurement, not a replay).
pub const GAUNTLET_BENCH_SEED: u64 = 0x6a41_71e7;

/// Histogram bins: depth 1..=8 exactly, then a 9+ overflow bin.
pub const HIST_BINS: usize = 9;

/// One `grammar × engine` measurement row.
#[derive(Debug, Clone)]
pub struct GauntletRow {
    /// Gauntlet grammar name.
    pub grammar: &'static str,
    /// Engine label (see module docs).
    pub engine: &'static str,
    /// Corpus tier label (`10KB`/`1MB`/`10MB`).
    pub tier: &'static str,
    /// Total corpus bytes.
    pub input_bytes: usize,
    /// Total corpus tokens (EOF excluded).
    pub input_tokens: usize,
    /// Wall-clock parse time, lexing excluded.
    pub parse_time: Duration,
    /// Tokens per second (0 when the run did not complete).
    pub tokens_per_sec: u64,
    /// Whether every corpus file was fully parsed/recognized (only the
    /// fuel-capped `packrat-nomemo` engine ever reports `false`).
    pub completed: bool,
    /// Distinct decisions exercised (interpreter engines; 0 for packrat).
    pub decisions_covered: usize,
    /// Average lookahead depth per decision event.
    pub avg_k: f64,
    /// Average speculation depth over backtracking events.
    pub back_k: f64,
    /// Deepest lookahead observed.
    pub max_k: u64,
    /// Per-event lookahead-depth histogram, `hist[i]` = events with
    /// depth `i+1` (last bin is 9-or-deeper). Empty for packrat rows.
    pub lookahead_hist: Vec<u64>,
    /// Decision events (interpreter) or rule attempts (packrat).
    pub events: u64,
    /// Backtracking events (interpreter) or backtracked alternatives
    /// (packrat).
    pub backtracks: u64,
    /// Percentage of events that backtracked.
    pub backtrack_pct: f64,
    /// Backtrack likelihood at potentially-backtracking decisions
    /// (interpreter engines; 0 for packrat).
    pub back_rate_pct: f64,
    /// Memo entries written (memo footprint).
    pub memo_entries: u64,
    /// Memo hits.
    pub memo_hits: u64,
    /// Tokens speculatively consumed then rolled back (packrat engines;
    /// 0 for the interpreter, which predicts before consuming).
    pub wasted_tokens: u64,
}

/// Rule-attempt fuel cap for the `packrat-nomemo` engine: high enough
/// that the LL(1)-ish grammars finish, low enough that the PEG-mode
/// grammar's super-linear blowup is cut off within seconds.
const NOMEMO_FUEL: u64 = 200_000_000;

fn tokens_per_sec(tokens: usize, elapsed: Duration) -> u64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0;
    }
    (tokens as f64 / secs) as u64
}

/// Measures all four engines for one gauntlet grammar.
pub fn gauntlet_run(entry: &GauntletEntry, tier: Tier, seed: u64) -> Vec<GauntletRow> {
    let inputs = gauntlet::corpus(entry, tier, seed);
    let g = entry.load();
    let a = analyze(&g);
    let scanner = g.lexer.build().expect("gauntlet lexer builds");
    let streams: Vec<Vec<llstar_lexer::Token>> = inputs
        .iter()
        .map(|(label, text)| {
            scanner.tokenize(text).unwrap_or_else(|e| panic!("{label}: fails to lex: {e}"))
        })
        .collect();
    let input_bytes: usize = inputs.iter().map(|(_, t)| t.len()).sum();
    let input_tokens: usize = streams.iter().map(|s| s.len() - 1).sum();

    let linear = GrammarAnalysis { tables: CompiledTables::disabled(), ..a.clone() };
    let mut rows = Vec::with_capacity(4);
    for (engine, a) in [("interp-linear", &linear), ("interp-compiled", &a)] {
        rows.push(interp_row(entry, tier, &g, a, &streams, input_bytes, input_tokens, engine));
    }
    for (engine, memoize) in [("packrat-memo", true), ("packrat-nomemo", false)] {
        rows.push(packrat_row(
            entry,
            tier,
            &g,
            &streams,
            input_bytes,
            input_tokens,
            engine,
            memoize,
        ));
    }
    rows
}

#[allow(clippy::too_many_arguments)]
fn interp_row(
    entry: &GauntletEntry,
    tier: Tier,
    g: &llstar_grammar::Grammar,
    a: &GrammarAnalysis,
    streams: &[Vec<llstar_lexer::Token>],
    input_bytes: usize,
    input_tokens: usize,
    engine: &'static str,
) -> GauntletRow {
    let can_backtrack = can_backtrack_by_id(a);
    let n_decisions = can_backtrack.len();
    let mut events_by_d = vec![0u64; n_decisions];
    let mut bt_by_d = vec![0u64; n_decisions];
    let mut lookahead_sum = 0u64;
    let mut bt_depth_sum = 0u64;
    let mut max_k = 0u64;
    let mut memo_entries = 0u64;
    let mut memo_hits = 0u64;

    let mut hist = [0u64; HIST_BINS];
    let mut elapsed = Duration::ZERO;
    let mut parser = Parser::new(g, a, TokenStream::new(streams[0].clone()), NopHooks);
    for stream in streams {
        elapsed += parse_pass(&mut parser, stream, entry.start_rule)
            .unwrap_or_else(|e| panic!("{}: interpreter rejected corpus input: {e}", entry.name));
        let stats = parser.stats();
        for (d, ds) in stats.covered() {
            events_by_d[d] += ds.events;
            bt_by_d[d] += ds.backtracks;
            lookahead_sum += ds.la_sum;
            bt_depth_sum += ds.spec_sum;
            max_k = max_k.max(ds.la_max);
            // `bucket_of` is exact below 16 and lookahead is at least 1:
            // bucket k holds depth k.
            for (k, &n) in ds.hist.iter().enumerate().skip(1) {
                hist[k.min(HIST_BINS) - 1] += n;
            }
        }
        memo_entries += stats.memo_entries;
        memo_hits += stats.memo_hits;
    }
    drop(parser);

    let events: u64 = events_by_d.iter().sum();
    let backtracks: u64 = bt_by_d.iter().sum();
    let bt_events: u64 =
        can_backtrack.iter().zip(&events_by_d).filter_map(|(can, e)| can.then_some(*e)).sum();
    GauntletRow {
        grammar: entry.name,
        engine,
        tier: tier.label(),
        input_bytes,
        input_tokens,
        parse_time: elapsed,
        tokens_per_sec: tokens_per_sec(input_tokens, elapsed),
        completed: true,
        decisions_covered: events_by_d.iter().filter(|&&e| e > 0).count(),
        avg_k: lookahead_sum as f64 / events.max(1) as f64,
        back_k: bt_depth_sum as f64 / backtracks.max(1) as f64,
        max_k,
        lookahead_hist: hist.to_vec(),
        events,
        backtracks,
        backtrack_pct: 100.0 * backtracks as f64 / events.max(1) as f64,
        back_rate_pct: 100.0 * backtracks as f64 / bt_events.max(1) as f64,
        memo_entries,
        memo_hits,
        wasted_tokens: 0,
    }
}

#[allow(clippy::too_many_arguments)]
fn packrat_row(
    entry: &GauntletEntry,
    tier: Tier,
    g: &llstar_grammar::Grammar,
    streams: &[Vec<llstar_lexer::Token>],
    input_bytes: usize,
    input_tokens: usize,
    engine: &'static str,
    memoize: bool,
) -> GauntletRow {
    let mut elapsed = Duration::ZERO;
    let mut completed = true;
    let mut attempts = 0u64;
    let mut backtracked = 0u64;
    let mut memo_entries = 0u64;
    let mut memo_hits = 0u64;
    let mut wasted = 0u64;
    for stream in streams {
        let mut parser = PackratParser::new(g, stream.clone());
        parser.set_memoize(memoize);
        if !memoize {
            parser.set_fuel(NOMEMO_FUEL);
        }
        let (result, t) = timed(|| parser.recognize(entry.start_rule));
        elapsed += t;
        // Corpus inputs are in-language: a rejection here can only be
        // the fuel cap firing (asserted for the memoized engine by the
        // oracle suite).
        completed &= result.is_ok();
        let s = parser.stats();
        attempts += s.rule_attempts;
        backtracked += s.backtracked_alts;
        memo_entries += s.memo_entries;
        memo_hits += s.memo_hits;
        wasted += s.wasted_tokens;
    }
    GauntletRow {
        grammar: entry.name,
        engine,
        tier: tier.label(),
        input_bytes,
        input_tokens,
        parse_time: elapsed,
        tokens_per_sec: if completed { tokens_per_sec(input_tokens, elapsed) } else { 0 },
        completed,
        decisions_covered: 0,
        avg_k: 0.0,
        back_k: 0.0,
        max_k: 0,
        lookahead_hist: Vec::new(),
        events: attempts,
        backtracks: backtracked,
        backtrack_pct: 100.0 * backtracked as f64 / attempts.max(1) as f64,
        back_rate_pct: 0.0,
        memo_entries,
        memo_hits,
        wasted_tokens: wasted,
    }
}

/// Measures every gauntlet grammar at `tier`.
pub fn gauntlet_all(tier: Tier, seed: u64) -> Vec<GauntletRow> {
    gauntlet::all().iter().flat_map(|e| gauntlet_run(e, tier, seed)).collect()
}

/// JSONL export of the gauntlet rows (the `gauntlet` record type in
/// `BENCH_analysis.json`). Fractional columns are scaled integers
/// (`*-milli`), matching the stream's u64-only number model.
pub fn gauntlet_jsonl(rows: &[GauntletRow]) -> String {
    jsonl(rows.iter().map(|r| {
        Json::Object(vec![
            ("type".into(), Json::Str("gauntlet".into())),
            ("grammar".into(), Json::Str(r.grammar.to_string())),
            ("engine".into(), Json::Str(r.engine.to_string())),
            ("tier".into(), Json::Str(r.tier.to_string())),
            ("input-bytes".into(), Json::Num(r.input_bytes as u64)),
            ("input-tokens".into(), Json::Num(r.input_tokens as u64)),
            ("parse-micros".into(), Json::Num(r.parse_time.as_micros() as u64)),
            ("tokens-per-sec".into(), Json::Num(r.tokens_per_sec)),
            ("completed".into(), Json::Bool(r.completed)),
            ("decisions-covered".into(), Json::Num(r.decisions_covered as u64)),
            ("avg-k-milli".into(), Json::Num((r.avg_k * 1000.0) as u64)),
            ("back-k-milli".into(), Json::Num((r.back_k * 1000.0) as u64)),
            ("max-k".into(), Json::Num(r.max_k)),
            (
                "lookahead-hist".into(),
                Json::Array(r.lookahead_hist.iter().map(|&c| Json::Num(c)).collect()),
            ),
            ("events".into(), Json::Num(r.events)),
            ("backtracks".into(), Json::Num(r.backtracks)),
            ("backtrack-pct-milli".into(), Json::Num((r.backtrack_pct * 1000.0) as u64)),
            ("back-rate-pct-milli".into(), Json::Num((r.back_rate_pct * 1000.0) as u64)),
            ("memo-entries".into(), Json::Num(r.memo_entries)),
            ("memo-hits".into(), Json::Num(r.memo_hits)),
            ("wasted-tokens".into(), Json::Num(r.wasted_tokens)),
        ])
    }))
}

/// Renders the rows as the paper's Tables 3–4 (gauntlet edition).
pub fn format_gauntlet(rows: &[GauntletRow]) -> String {
    let mut out = String::from(
        "Table 3 (gauntlet). Runtime lookahead behaviour per engine\n\
         Grammar  Engine           Size    Tokens    Parse     ktok/s     n  avg k  back k  max k\n",
    );
    for r in rows {
        let note = if r.completed { "" } else { "  [fuel cap]" };
        out.push_str(&format!(
            "{:<8} {:<16} {:>5} {:>9} {:>8.2?} {:>10} {:>5} {:>6.2} {:>7.2} {:>6}{note}\n",
            r.grammar,
            r.engine,
            r.tier,
            r.input_tokens,
            r.parse_time,
            r.tokens_per_sec / 1000,
            r.decisions_covered,
            r.avg_k,
            r.back_k,
            r.max_k,
        ));
    }
    out.push_str(
        "\nTable 4 (gauntlet). Backtracking and memoization per engine\n\
         Grammar  Engine              Events  Backtracks  Back%  Rate%  Memo entries  Memo hits  Wasted tok\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<16} {:>10} {:>11} {:>6.2} {:>6.2} {:>13} {:>10} {:>11}\n",
            r.grammar,
            r.engine,
            r.events,
            r.backtracks,
            r.backtrack_pct,
            r.back_rate_pct,
            r.memo_entries,
            r.memo_hits,
            r.wasted_tokens,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_produces_all_cells() {
        let rows = gauntlet_all(Tier::Smoke, GAUNTLET_BENCH_SEED);
        assert_eq!(rows.len(), 12, "3 grammars x 4 engines");
        for grammar in ["java8", "sql", "json"] {
            for engine in ["interp-linear", "interp-compiled", "packrat-memo", "packrat-nomemo"] {
                assert!(
                    rows.iter().any(|r| r.grammar == grammar && r.engine == engine),
                    "missing row {grammar}/{engine}"
                );
            }
        }
        // Interpreter rows carry lookahead data; histogram events match
        // the event total.
        for r in rows.iter().filter(|r| r.engine.starts_with("interp")) {
            assert!(r.completed);
            assert!(r.decisions_covered > 0, "{}/{}", r.grammar, r.engine);
            assert!(r.avg_k >= 1.0, "{}/{}: avg k {}", r.grammar, r.engine, r.avg_k);
            assert_eq!(
                r.lookahead_hist.iter().sum::<u64>(),
                r.events,
                "{}/{}: histogram disagrees with event count",
                r.grammar,
                r.engine
            );
        }
        // Dispatch modes see identical decision behaviour.
        for grammar in ["java8", "sql", "json"] {
            let lin = rows.iter().find(|r| r.grammar == grammar && r.engine == "interp-linear");
            let com = rows.iter().find(|r| r.grammar == grammar && r.engine == "interp-compiled");
            let (lin, com) = (lin.unwrap(), com.unwrap());
            assert_eq!(lin.events, com.events, "{grammar}: dispatch modes diverge");
            assert_eq!(lin.lookahead_hist, com.lookahead_hist, "{grammar}");
        }
        let jsonl = gauntlet_jsonl(&rows);
        assert_eq!(jsonl.lines().count(), 12);
        for line in jsonl.lines() {
            Json::parse(line).expect("gauntlet row is valid JSON");
        }
    }
}
