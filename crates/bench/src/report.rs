//! Regenerates the data behind every table and figure of the paper's
//! evaluation (Section 6) from the suite grammars and generated inputs.

use crate::figures::{rule_decision, CYCLIC_GRAMMAR};
use crate::measure::{best_of, paired_reps, parse_pass, timed};
use crate::rows::jsonl;
use llstar_core::{
    analyze, analyze_with, AnalysisOptions, AnalysisRecord, DecisionClass, GrammarAnalysis, Json,
};
use llstar_grammar::{parse_grammar, Grammar};
use llstar_lexer::Token;
use llstar_runtime::{MapHooks, ParseStats, Parser, TokenStream};
use llstar_suite::{self as suite, SuiteEntry};
use std::time::Duration;

/// Passes per best-of figure (Table 3 parse time, corrupt-input
/// recovery, the E10 and E11 sections).
const REPS: usize = 5;

/// Off/on pairs per overhead figure (recovery and coverage): the
/// median of 11 paired ratios, as the 1 MB metrics gate uses.
const PAIRS: u32 = 11;

/// The record types `report_tables` writes to `BENCH_analysis.json`.
pub const REPORT_TYPES: [&str; 5] =
    ["analysis", "summary", "recovery", "scaling", "coverage-overhead"];

/// One row of Table 1: grammar decision characteristics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Grammar name.
    pub name: &'static str,
    /// Non-empty grammar source lines.
    pub lines: usize,
    /// Number of parsing decisions (the paper's *n*).
    pub decisions: usize,
    /// Decisions with acyclic, predicate-free DFAs (fixed LL(k)).
    pub fixed: usize,
    /// Decisions with cyclic, predicate-free DFAs.
    pub cyclic: usize,
    /// Decisions whose DFAs contain syntactic-predicate edges
    /// (potentially backtracking).
    pub backtrack: usize,
    /// Time to analyze the grammar and build all DFAs (best of 5).
    pub analysis_time: Duration,
}

/// One row of Table 2: fixed-lookahead depth distribution.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Grammar name.
    pub name: &'static str,
    /// Percentage of decisions that are fixed LL(k).
    pub pct_llk: f64,
    /// Percentage of decisions that are LL(1).
    pub pct_ll1: f64,
    /// `counts_by_k[k-1]` = number of fixed decisions with lookahead k
    /// (up to the deepest k observed).
    pub counts_by_k: Vec<usize>,
}

/// One row of Table 3: runtime lookahead behaviour.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Grammar name.
    pub name: &'static str,
    /// Lines in the generated input.
    pub input_lines: usize,
    /// Tokens in the generated input.
    pub input_tokens: usize,
    /// Best-of-5 wall-clock parse time (excluding lexing).
    pub parse_time: Duration,
    /// Distinct decisions exercised (the paper's *n*).
    pub decisions_covered: usize,
    /// Average lookahead depth per decision event (*avg k*).
    pub avg_k: f64,
    /// Average speculation depth over backtracking events (*back. k*).
    pub back_k: f64,
    /// Deepest lookahead observed (*max k*).
    pub max_k: u64,
}

/// One row of Table 4: runtime backtracking behaviour.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Grammar name.
    pub name: &'static str,
    /// Decisions that can potentially backtrack (static).
    pub can_backtrack: usize,
    /// Decisions that actually backtracked on this input.
    pub did_backtrack: usize,
    /// Total decision events.
    pub decision_events: u64,
    /// Percentage of events that backtracked.
    pub backtrack_pct: f64,
    /// Likelihood an event at a potentially-backtracking decision
    /// actually backtracks (*Back. rate*).
    pub back_rate_pct: f64,
}

/// Everything measured for one grammar in one run.
#[derive(Debug)]
pub struct GrammarRun {
    /// The suite entry.
    pub entry: SuiteEntry,
    /// The prepared grammar.
    pub grammar: Grammar,
    /// Static analysis results.
    pub analysis: GrammarAnalysis,
    /// Best-of-5 wall-clock time of [`analyze`] on the grammar.
    pub analysis_time: Duration,
    /// Runtime statistics from parsing the generated input.
    pub stats: ParseStats,
    /// Best-of-5 parse wall-clock time through one recycled parser.
    pub parse_time: Duration,
    /// Input size in lines.
    pub input_lines: usize,
    /// Input size in tokens (excluding EOF).
    pub input_tokens: usize,
}

/// The hook table a suite grammar needs (the RatsC `isTypeName` oracle).
pub fn hooks_for(entry: &SuiteEntry, source: &str) -> MapHooks {
    let mut hooks = MapHooks::new();
    if entry.name == "RatsC" {
        let src = source.to_string();
        hooks
            .on_pred("isTypeName", move |ctx| suite::c::is_typedef_name(ctx.next_token.text(&src)));
    }
    hooks
}

/// `entry`'s grammar, its analysis, a generated input of roughly
/// `lines` lines and that input's tokens.
fn prepare(
    entry: &SuiteEntry,
    lines: usize,
    seed: u64,
) -> (Grammar, GrammarAnalysis, String, Vec<Token>) {
    let grammar = entry.load();
    let analysis = analyze(&grammar);
    let input = (entry.generate)(lines, seed);
    let scanner = grammar.lexer.build().expect("suite lexer builds");
    let tokens = scanner.tokenize(&input).expect("suite input lexes");
    (grammar, analysis, input, tokens)
}

/// A parser over `tokens` with `entry`'s hooks, for [`parse_pass`].
fn parser_for<'g>(
    entry: &SuiteEntry,
    grammar: &'g Grammar,
    analysis: &'g GrammarAnalysis,
    input: &str,
    tokens: &[Token],
) -> Parser<'g, MapHooks> {
    Parser::new(grammar, analysis, TokenStream::new(tokens.to_vec()), hooks_for(entry, input))
}

/// Analyzes `entry`'s grammar and parses a generated input of roughly
/// `input_lines` lines, timing each best of 5 passes.
///
/// # Panics
/// Panics if the bundled grammar fails to lex/parse its own generated
/// input (a bug in the suite).
pub fn run_grammar(entry: SuiteEntry, input_lines: usize, seed: u64) -> GrammarRun {
    let (grammar, analysis, input, tokens) = prepare(&entry, input_lines, seed);
    let analysis_time = best_of(REPS, || timed(|| analyze(&grammar)).1);
    let input_tokens = tokens.len() - 1;
    let mut parser = parser_for(&entry, &grammar, &analysis, &input, &tokens);
    let parse_time = best_of(REPS, || {
        parse_pass(&mut parser, &tokens, entry.start_rule)
            .unwrap_or_else(|e| panic!("{}: generated input failed to parse: {e}", entry.name))
    });
    // `reset` clears the counters, so these are one parse's.
    let stats = parser.stats();
    drop(parser);
    GrammarRun {
        entry,
        grammar,
        analysis,
        analysis_time,
        stats,
        parse_time,
        input_lines: input.lines().count(),
        input_tokens,
    }
}

/// Per-decision classes for the grammar decisions (synthetic
/// synpred-fragment decisions excluded, as in the paper's counts).
pub fn decision_classes(analysis: &GrammarAnalysis) -> Vec<DecisionClass> {
    analysis
        .atn
        .decisions
        .iter()
        .filter(|d| d.is_grammar_decision())
        .map(|d| analysis.decision(d.id).dfa.classify())
        .collect()
}

/// `can_backtrack[i]` for **every** decision id (synthetic included,
/// indexed by `DecisionId`), for [`ParseStats::backtrack_trigger_rate`].
pub fn can_backtrack_by_id(analysis: &GrammarAnalysis) -> Vec<bool> {
    analysis.decisions.iter().map(|d| d.dfa.uses_backtrack()).collect()
}

impl GrammarRun {
    /// This run's Table 1 row.
    pub fn table1_row(&self) -> Table1Row {
        let classes = decision_classes(&self.analysis);
        Table1Row {
            name: self.entry.name,
            lines: self.entry.grammar_lines(),
            decisions: classes.len(),
            fixed: classes.iter().filter(|c| matches!(c, DecisionClass::Fixed { .. })).count(),
            cyclic: classes.iter().filter(|c| matches!(c, DecisionClass::Cyclic)).count(),
            backtrack: classes.iter().filter(|c| matches!(c, DecisionClass::Backtrack)).count(),
            analysis_time: self.analysis_time,
        }
    }

    /// This run's Table 2 row.
    pub fn table2_row(&self) -> Table2Row {
        let classes = decision_classes(&self.analysis);
        let total = classes.len().max(1);
        let mut counts_by_k: Vec<usize> = Vec::new();
        let mut ll1 = 0usize;
        for c in &classes {
            if let DecisionClass::Fixed { k } = c {
                let k = *k as usize;
                if counts_by_k.len() < k {
                    counts_by_k.resize(k, 0);
                }
                counts_by_k[k - 1] += 1;
                if k == 1 {
                    ll1 += 1;
                }
            }
        }
        let fixed: usize = counts_by_k.iter().sum();
        Table2Row {
            name: self.entry.name,
            pct_llk: 100.0 * fixed as f64 / total as f64,
            pct_ll1: 100.0 * ll1 as f64 / total as f64,
            counts_by_k,
        }
    }

    /// This run's Table 3 row.
    pub fn table3_row(&self) -> Table3Row {
        Table3Row {
            name: self.entry.name,
            input_lines: self.input_lines,
            input_tokens: self.input_tokens,
            parse_time: self.parse_time,
            decisions_covered: self.stats.decisions_covered(),
            avg_k: self.stats.avg_lookahead(),
            back_k: self.stats.avg_backtrack_depth(),
            max_k: self.stats.max_lookahead(),
        }
    }

    /// This run's Table 4 row.
    pub fn table4_row(&self) -> Table4Row {
        let can = can_backtrack_by_id(&self.analysis);
        // "Can backtrack" counts grammar decisions only, like Table 1.
        let can_grammar = self
            .analysis
            .atn
            .decisions
            .iter()
            .filter(|d| d.is_grammar_decision() && can[d.id.index()])
            .count();
        Table4Row {
            name: self.entry.name,
            can_backtrack: can_grammar,
            did_backtrack: self.stats.decisions_that_backtracked(),
            decision_events: self.stats.total_events(),
            backtrack_pct: self.stats.backtrack_event_rate(),
            back_rate_pct: self.stats.backtrack_trigger_rate(&can),
        }
    }
}

/// Runs every suite grammar, producing all four tables.
pub fn run_all(input_lines: usize, seed: u64) -> Vec<GrammarRun> {
    suite::all().into_iter().map(|e| run_grammar(e, input_lines, seed)).collect()
}

/// JSONL export of the observability layer's per-decision metrics for a
/// set of runs (the content of `BENCH_analysis.json`): one `analysis`
/// line per grammar decision (construction cost counters, tagged with
/// the grammar name) and one `summary` line per grammar folding in the
/// runtime behaviour. Timing appears only in the summary lines — the
/// per-decision records are byte-deterministic.
pub fn analysis_jsonl(runs: &[GrammarRun]) -> String {
    let mut out = String::new();
    for run in runs {
        for d in &run.analysis.atn.decisions {
            if !d.is_grammar_decision() {
                continue;
            }
            let da = run.analysis.decision(d.id);
            let record = AnalysisRecord {
                decision: d.id.0,
                rule: run.grammar.rule(d.rule).name.clone(),
                class: da.dfa.classify().to_string(),
                metrics: da.metrics,
            };
            // Tag the record with its grammar, right after "type".
            let mut fields = match Json::parse(&record.to_json()).expect("records are valid JSON") {
                Json::Object(fields) => fields,
                _ => unreachable!("analysis records are objects"),
            };
            fields.insert(1, ("grammar".to_string(), Json::Str(run.entry.name.to_string())));
            out.push_str(&Json::Object(fields).to_string());
            out.push('\n');
        }
        let total = run.analysis.total_metrics();
        let s = &run.stats;
        let summary = Json::Object(vec![
            ("type".into(), Json::Str("summary".into())),
            ("grammar".into(), Json::Str(run.entry.name.to_string())),
            ("decisions".into(), Json::Num(decision_classes(&run.analysis).len() as u64)),
            ("closures".into(), Json::Num(total.closure_calls)),
            ("configs".into(), Json::Num(total.configs_created)),
            ("dfa-states".into(), Json::Num(total.dfa_states)),
            ("dfa-edges".into(), Json::Num(total.dfa_edges)),
            ("input-tokens".into(), Json::Num(run.input_tokens as u64)),
            ("events".into(), Json::Num(s.total_events())),
            ("max-lookahead".into(), Json::Num(s.max_lookahead())),
            ("backtracks".into(), Json::Num(s.total_backtrack_events())),
            ("memo-hits".into(), Json::Num(s.memo_hits)),
            ("memo-entries".into(), Json::Num(s.memo_entries)),
            ("analysis-micros".into(), Json::Num(run.analysis_time.as_micros() as u64)),
            ("parse-micros".into(), Json::Num(run.parse_time.as_micros() as u64)),
        ]);
        out.push_str(&summary.to_string());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Error-recovery overhead
// ---------------------------------------------------------------------------

/// Recovery-overhead measurements for one suite grammar: the same
/// generated input parsed strict, parsed with recovery enabled (the
/// clean-input overhead, which should be noise), and parsed with
/// recovery after ~1% of its tokens were corrupted. The clean pair is
/// measured with [`paired_reps`], the corrupted parse best of 5.
#[derive(Debug)]
pub struct RecoveryRow {
    /// Grammar name.
    pub name: &'static str,
    /// Tokens in the clean input (excluding EOF).
    pub input_tokens: usize,
    /// Corruption sites applied (~1% of tokens).
    pub corrupted_sites: usize,
    /// Diagnostics reported on the corrupted input.
    pub diagnostics: usize,
    /// Recovery counters from the corrupted parse.
    pub stats: ParseStats,
    /// Strict parse of the clean input (fastest pass).
    pub clean_strict: Duration,
    /// Recovery-enabled parse of the clean input (fastest pass).
    pub clean_recovery: Duration,
    /// Recovery-on over strict on the clean input, in percent: the
    /// median of the paired ratios.
    pub overhead_pct: f64,
    /// Recovery-enabled parse of the corrupted input.
    pub corrupt_recovery: Duration,
}

/// Corrupts roughly `pct`% of `tokens` (the trailing EOF is never
/// touched) with seeded delete/duplicate/swap mutations, mirroring
/// `tests/recovery_fuzz.rs`. Returns the number of sites mutated.
fn corrupt_tokens(tokens: &mut Vec<Token>, pct: f64, seed: u64) -> usize {
    let mut rng = llstar_rng::Rng64::seed_from_u64(seed);
    let body = tokens.len().saturating_sub(1); // keep EOF last
    let sites = ((body as f64 * pct / 100.0).ceil() as usize).max(1);
    for _ in 0..sites {
        let body = tokens.len() - 1;
        if body == 0 {
            break;
        }
        let i = rng.gen_range(0..body);
        match rng.gen_range(0..3u8) {
            0 => {
                tokens.remove(i);
            }
            1 => {
                let t = tokens[i];
                tokens.insert(i, t);
            }
            _ => {
                if i + 1 < body {
                    tokens.swap(i, i + 1);
                } else {
                    let t = tokens[i];
                    tokens.insert(i, t);
                }
            }
        }
    }
    sites
}

/// Measures recovery overhead for one suite grammar on a generated
/// input of roughly `input_lines` lines.
///
/// # Panics
/// Panics if the clean input fails to parse or the corrupted input
/// defeats recovery (both would be bugs, and both are fuzzed).
pub fn recovery_run(entry: SuiteEntry, input_lines: usize, seed: u64) -> RecoveryRow {
    let (grammar, analysis, input, tokens) = prepare(&entry, input_lines, seed);
    let input_tokens = tokens.len() - 1;
    let start = entry.start_rule;

    let mut strict = parser_for(&entry, &grammar, &analysis, &input, &tokens);
    let mut clean = parser_for(&entry, &grammar, &analysis, &input, &tokens);
    clean.enable_recovery(usize::MAX);
    let pair = paired_reps(1, PAIRS, |_, recovering| {
        let parser = if recovering { &mut clean } else { &mut strict };
        parse_pass(parser, &tokens, start).unwrap_or_else(|e| {
            panic!("{}: clean input failed (recovery {recovering}): {e}", entry.name)
        })
    })[0];
    assert!(clean.take_errors().is_empty(), "{}: clean input produced diagnostics", entry.name);

    let mut corrupted = tokens;
    let corrupted_sites = corrupt_tokens(&mut corrupted, 1.0, seed.wrapping_mul(0x9e37_79b9));
    let mut parser = parser_for(&entry, &grammar, &analysis, &input, &corrupted);
    parser.enable_recovery(usize::MAX);
    let corrupt_recovery = best_of(REPS, || {
        parse_pass(&mut parser, &corrupted, start)
            .unwrap_or_else(|e| panic!("{}: recovery gave up on 1% corruption: {e}", entry.name))
    });
    let diagnostics = parser.take_errors().len();

    RecoveryRow {
        name: entry.name,
        input_tokens,
        corrupted_sites,
        diagnostics,
        stats: parser.stats(),
        clean_strict: pair.best_off,
        clean_recovery: pair.best_on,
        overhead_pct: 100.0 * (pair.median_ratio - 1.0),
        corrupt_recovery,
    }
}

/// [`recovery_run`] over the whole suite.
pub fn recovery_all(input_lines: usize, seed: u64) -> Vec<RecoveryRow> {
    suite::all().into_iter().map(|e| recovery_run(e, input_lines, seed)).collect()
}

/// JSONL export of the recovery rows: one `recovery` line per grammar.
pub fn recovery_jsonl(rows: &[RecoveryRow]) -> String {
    jsonl(rows.iter().map(|r| {
        Json::Object(vec![
            ("type".into(), Json::Str("recovery".into())),
            ("grammar".into(), Json::Str(r.name.to_string())),
            ("input-tokens".into(), Json::Num(r.input_tokens as u64)),
            ("corrupted-sites".into(), Json::Num(r.corrupted_sites as u64)),
            ("diagnostics".into(), Json::Num(r.diagnostics as u64)),
            ("recoveries".into(), Json::Num(r.stats.recoveries)),
            ("tokens-deleted".into(), Json::Num(r.stats.tokens_deleted)),
            ("tokens-inserted".into(), Json::Num(r.stats.tokens_inserted)),
            ("tokens-skipped".into(), Json::Num(r.stats.tokens_skipped)),
            ("clean-strict-micros".into(), Json::Num(r.clean_strict.as_micros() as u64)),
            ("clean-recovery-micros".into(), Json::Num(r.clean_recovery.as_micros() as u64)),
            ("corrupt-recovery-micros".into(), Json::Num(r.corrupt_recovery.as_micros() as u64)),
        ])
    }))
}

/// Formats the recovery-overhead table.
pub fn format_recovery(rows: &[RecoveryRow]) -> String {
    let mut out = String::from(
        "Recovery overhead (clean input, recovery on vs off, median of 11 paired ratios; \
         1% corrupted tokens)\n\
         Grammar      Tokens  Strict      +Recovery   Overhead%  Sites  Diags  Corrupt-parse\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>8} {:>10.1?} {:>11.1?} {:>9.1} {:>6} {:>6} {:>13.1?}\n",
            r.name,
            r.input_tokens,
            r.clean_strict,
            r.clean_recovery,
            r.overhead_pct,
            r.corrupted_sites,
            r.diagnostics,
            r.corrupt_recovery
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Analysis scaling across worker threads
// ---------------------------------------------------------------------------

/// One cell of the threads × suite-grammar scaling table: how long the
/// full per-decision DFA analysis took at a given worker-thread count.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Grammar name.
    pub name: &'static str,
    /// `AnalysisOptions::threads` for this measurement.
    pub threads: usize,
    /// Best-of-reps analysis wall-clock, microseconds.
    pub micros: u64,
    /// Speedup versus the same grammar's single-thread run, in
    /// thousandths (1850 = 1.85×) — integer so the JSONL stays exact.
    pub speedup_milli: u64,
}

/// The thread counts the scaling table sweeps: 1, 2, 4, 8 capped to the
/// machine, plus full available parallelism.
pub fn scaling_thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![1usize, 2, 4, 8];
    counts.retain(|&n| n <= max.max(2));
    if !counts.contains(&max) {
        counts.push(max);
    }
    counts
}

/// Measures analysis wall-clock for every suite grammar at every thread
/// count (best of `reps` runs — analysis results are byte-identical
/// across thread counts, so only time varies).
pub fn scaling_all(reps: usize) -> Vec<ScalingRow> {
    let counts = scaling_thread_counts();
    let mut rows = Vec::new();
    for entry in suite::all() {
        let grammar = entry.load();
        let base = AnalysisOptions::from_grammar(&grammar);
        let mut baseline = 0u64;
        for &threads in &counts {
            let options = AnalysisOptions { threads, ..base.clone() };
            let best = best_of(reps, || timed(|| analyze_with(&grammar, &options)).1);
            let micros = (best.as_micros() as u64).max(1);
            if threads == 1 {
                baseline = micros;
            }
            let speedup_milli = baseline.saturating_mul(1000) / micros;
            rows.push(ScalingRow { name: entry.name, threads, micros, speedup_milli });
        }
    }
    rows
}

/// Formats the threads × grammar speedup table.
pub fn format_scaling(rows: &[ScalingRow]) -> String {
    let counts = scaling_thread_counts();
    let mut out = String::from("Analysis scaling (speedup vs 1 thread; best-of-N wall clock)\n");
    out.push_str(&format!("{:<10} {:>10}", "Grammar", "1-thread"));
    for &t in &counts[1..] {
        out.push_str(&format!(" {:>9}", format!("x{t} thr")));
    }
    out.push('\n');
    for entry in suite::all() {
        let per_grammar: Vec<&ScalingRow> = rows.iter().filter(|r| r.name == entry.name).collect();
        if per_grammar.is_empty() {
            continue;
        }
        let base = per_grammar.iter().find(|r| r.threads == 1).map_or(0, |r| r.micros);
        out.push_str(&format!("{:<10} {:>8}us", entry.name, base));
        for &t in &counts[1..] {
            match per_grammar.iter().find(|r| r.threads == t) {
                Some(r) => out.push_str(&format!(" {:>8.2}x", r.speedup_milli as f64 / 1000.0)),
                None => out.push_str(&format!(" {:>9}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// JSONL export of the scaling rows: one `scaling` line per
/// (grammar, thread count).
pub fn scaling_jsonl(rows: &[ScalingRow]) -> String {
    jsonl(rows.iter().map(|r| {
        Json::Object(vec![
            ("type".into(), Json::Str("scaling".into())),
            ("grammar".into(), Json::Str(r.name.to_string())),
            ("threads".into(), Json::Num(r.threads as u64)),
            ("micros".into(), Json::Num(r.micros)),
            ("speedup-milli".into(), Json::Num(r.speedup_milli)),
        ])
    }))
}

// ---------------------------------------------------------------------------
// Coverage-collection overhead
// ---------------------------------------------------------------------------

/// Coverage-overhead measurements for one suite grammar: the same
/// generated input parsed bare versus parsed with coverage recording
/// on ([`Parser::enable_coverage`]), measured with [`paired_reps`].
#[derive(Debug)]
pub struct CoverageOverheadRow {
    /// Grammar name.
    pub name: &'static str,
    /// Tokens in the input (excluding EOF).
    pub input_tokens: usize,
    /// Bare parse, microseconds (fastest pass).
    pub plain_micros: u64,
    /// Parse with coverage recording on, microseconds (fastest pass).
    pub coverage_micros: u64,
    /// Coverage-on over bare, in percent: the median of the paired
    /// ratios.
    pub overhead_pct: f64,
    /// Successful non-speculative predictions the map recorded.
    pub predictions: u64,
    /// Alternatives the single generated input left uncovered.
    pub uncovered_alts: usize,
}

/// Measures coverage-collection overhead for one suite grammar.
///
/// # Panics
/// Panics if the generated input fails to parse (a suite bug).
pub fn coverage_overhead_run(
    entry: SuiteEntry,
    input_lines: usize,
    seed: u64,
) -> CoverageOverheadRow {
    let (grammar, analysis, input, tokens) = prepare(&entry, input_lines, seed);
    let start = entry.start_rule;
    let mut plain = parser_for(&entry, &grammar, &analysis, &input, &tokens);
    let mut covered = parser_for(&entry, &grammar, &analysis, &input, &tokens);
    let pass = |parser: &mut Parser<'_, MapHooks>| {
        parse_pass(parser, &tokens, start)
            .unwrap_or_else(|e| panic!("{}: generated input failed to parse: {e}", entry.name))
    };
    // One untimed parse fills the map the row reports; the timed passes
    // then record into a map of their own, which `reset` keeps.
    covered.enable_coverage();
    pass(&mut covered);
    let map = covered.take_coverage().expect("coverage was enabled");
    covered.enable_coverage();
    let pair = paired_reps(1, PAIRS, |_, on| pass(if on { &mut covered } else { &mut plain }))[0];

    let micros = |d: Duration| (d.as_micros() as u64).max(1);
    CoverageOverheadRow {
        name: entry.name,
        input_tokens: tokens.len() - 1,
        plain_micros: micros(pair.best_off),
        coverage_micros: micros(pair.best_on),
        overhead_pct: 100.0 * (pair.median_ratio - 1.0),
        predictions: map.decisions.iter().map(|d| d.predictions).sum(),
        uncovered_alts: map.uncovered_alts().len(),
    }
}

/// [`coverage_overhead_run`] over the whole suite.
pub fn coverage_overhead_all(input_lines: usize, seed: u64) -> Vec<CoverageOverheadRow> {
    suite::all().into_iter().map(|e| coverage_overhead_run(e, input_lines, seed)).collect()
}

/// Formats the coverage-overhead table.
pub fn format_coverage_overhead(rows: &[CoverageOverheadRow]) -> String {
    let mut out = String::from(
        "Coverage-collection overhead (bare parse vs parse recording coverage, median of 11 \
         paired ratios)\n\
         Grammar      Tokens     Bare  +Coverage  Overhead%  Predictions  Uncovered\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>8} {:>7}us {:>9}us {:>9.1} {:>12} {:>10}\n",
            r.name,
            r.input_tokens,
            r.plain_micros,
            r.coverage_micros,
            r.overhead_pct,
            r.predictions,
            r.uncovered_alts
        ));
    }
    out
}

/// JSONL export of the coverage-overhead rows: one `coverage-overhead`
/// line per grammar.
pub fn coverage_overhead_jsonl(rows: &[CoverageOverheadRow]) -> String {
    jsonl(rows.iter().map(|r| {
        Json::Object(vec![
            ("type".into(), Json::Str("coverage-overhead".into())),
            ("grammar".into(), Json::Str(r.name.to_string())),
            ("input-tokens".into(), Json::Num(r.input_tokens as u64)),
            ("plain-micros".into(), Json::Num(r.plain_micros)),
            ("coverage-micros".into(), Json::Num(r.coverage_micros)),
            ("predictions".into(), Json::Num(r.predictions)),
            ("uncovered-alts".into(), Json::Num(r.uncovered_alts as u64)),
        ])
    }))
}

// ---------------------------------------------------------------------------
// E10: memoization ablation; E11: fixed k against the cyclic DFA
// ---------------------------------------------------------------------------

/// Input size for [`memo_ablation`]: small enough that RatsC still
/// finishes with memoization off.
pub const MEMO_LINES: usize = 60;

/// One grammar of the memoization ablation (Section 6.2: "the RatsC
/// grammar appears not to terminate if we turn off ANTLR memoization
/// support. In contrast, the VB.NET and C# parsers are fine without
/// it.").
#[derive(Debug)]
pub struct MemoRow {
    /// Grammar name.
    pub name: &'static str,
    /// Tokens in the input (excluding EOF).
    pub input_tokens: usize,
    /// Best-of-5 parse with memoization on.
    pub memo_on: Duration,
    /// Best-of-5 parse with memoization off.
    pub memo_off: Duration,
}

/// Parses a [`MEMO_LINES`]-line RatsC and CSharp input with
/// memoization on and off.
pub fn memo_ablation(seed: u64) -> Vec<MemoRow> {
    ["RatsC", "CSharp"]
        .into_iter()
        .map(|name| {
            let entry = suite::by_name(name).expect("suite grammar");
            let (grammar, analysis, input, tokens) = prepare(&entry, MEMO_LINES, seed);
            let mut parser = parser_for(&entry, &grammar, &analysis, &input, &tokens);
            let mut time = |memo: bool| {
                parser.set_memoize(memo);
                best_of(REPS, || {
                    parse_pass(&mut parser, &tokens, entry.start_rule)
                        .unwrap_or_else(|e| panic!("{name}: memo {memo}: {e}"))
                })
            };
            let (memo_on, memo_off) = (time(true), time(false));
            MemoRow { name, input_tokens: tokens.len() - 1, memo_on, memo_off }
        })
        .collect()
}

/// Formats the memoization ablation.
pub fn format_memo(rows: &[MemoRow]) -> String {
    let mut out = String::from(
        "E10. Memoization ablation (best of 5 parses)\n\
         Grammar      Tokens    Memo-on   Memo-off  Off/on\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>8} {:>10.2?} {:>10.2?} {:>6.1}x\n",
            r.name,
            r.input_tokens,
            r.memo_on,
            r.memo_off,
            r.memo_off.as_secs_f64() / r.memo_on.as_secs_f64().max(f64::MIN_POSITIVE)
        ));
    }
    out
}

/// One lookahead bound of the fixed-k sweep (Section 2's LPG anecdote:
/// `a : b A+ X | c A+ Y` is LL(*) but not LL(k) for any k).
#[derive(Debug)]
pub struct FixedKRow {
    /// `AnalysisOptions::max_k`; `None` is unbounded LL(*).
    pub max_k: Option<u32>,
    /// States of rule `a`'s lookahead DFA.
    pub states: usize,
    /// The DFA's class (`LL(k)`, `cyclic`).
    pub class: String,
    /// Whether the decision resolved without an ambiguity or dead
    /// alternative warning.
    pub resolved: bool,
    /// Best-of-5 analysis time of the whole grammar.
    pub time: Duration,
}

/// Analyzes [`CYCLIC_GRAMMAR`] at k = 1, 2, 4, …, 32 and unbounded.
pub fn fixed_k_sweep() -> Vec<FixedKRow> {
    let grammar = parse_grammar(CYCLIC_GRAMMAR).expect("cyclic grammar");
    [1, 2, 4, 8, 16, 32]
        .map(Some)
        .into_iter()
        .chain([None])
        .map(|max_k| {
            let options = AnalysisOptions { max_k, ..Default::default() };
            let time = best_of(REPS, || timed(|| analyze_with(&grammar, &options)).1);
            let analysis = analyze_with(&grammar, &options);
            let d = rule_decision(&grammar, &analysis, "a");
            FixedKRow {
                max_k,
                states: d.dfa.states.len(),
                class: d.dfa.classify().to_string(),
                resolved: d.warnings.is_empty(),
                time,
            }
        })
        .collect()
}

/// Formats the fixed-k sweep.
pub fn format_fixed_k(rows: &[FixedKRow]) -> String {
    let mut out = String::from(
        "E11. Fixed k vs LL(*) on a : b A+ X | c A+ Y (best of 5 analyses)\n\
         Lookahead  States  Class      Resolved  Analysis\n",
    );
    for r in rows {
        let bound = r.max_k.map_or_else(|| "LL(*)".to_string(), |k| format!("k={k}"));
        out.push_str(&format!(
            "{bound:<10} {:>6}  {:<10} {:<8} {:>9.1?}\n",
            r.states,
            r.class,
            if r.resolved { "yes" } else { "no" },
            r.time
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

/// Formats Table 1 in the paper's layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "Table 1. Grammar decision characteristics\n\
         Grammar    Lines     n  Fixed  Cyclic  Backtrack      Runtime\n",
    );
    for r in rows {
        let pct = 100.0 * r.backtrack as f64 / r.decisions.max(1) as f64;
        out.push_str(&format!(
            "{:<10} {:>5} {:>5} {:>6} {:>7} {:>6} ({:>4.1}%) {:>9.1?}\n",
            r.name, r.lines, r.decisions, r.fixed, r.cyclic, r.backtrack, pct, r.analysis_time
        ));
    }
    out
}

/// Formats Table 2 in the paper's layout.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let deepest = rows.iter().map(|r| r.counts_by_k.len()).max().unwrap_or(0);
    let mut out = String::from("Table 2. Fixed lookahead decision characteristics\n");
    out.push_str("Grammar     LL(k)%  LL(1)%  ");
    for k in 1..=deepest {
        out.push_str(&format!("k={k:<4}"));
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<10} {:>6.2} {:>7.2}  ", r.name, r.pct_llk, r.pct_ll1));
        for k in 0..deepest {
            let c = r.counts_by_k.get(k).copied().unwrap_or(0);
            if c == 0 {
                out.push_str("     ");
            } else {
                out.push_str(&format!("{c:<5}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Formats Table 3 in the paper's layout.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "Table 3. Parser decision lookahead depth\n\
         Grammar     Input-lines  Tokens  Parse-time     n  avg k  back k  max k\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>12} {:>7} {:>10.1?} {:>5} {:>6.2} {:>7.2} {:>6}\n",
            r.name,
            r.input_lines,
            r.input_tokens,
            r.parse_time,
            r.decisions_covered,
            r.avg_k,
            r.back_k,
            r.max_k
        ));
    }
    out
}

/// Formats Table 4 in the paper's layout.
pub fn format_table4(rows: &[Table4Row]) -> String {
    let mut out = String::from(
        "Table 4. Parser decision backtracking behavior\n\
         Grammar     Can-back  Did-back      Events  Backtrack%  Back-rate%\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>9} {:>9} {:>11} {:>10.2} {:>11.2}\n",
            r.name,
            r.can_backtrack,
            r.did_backtrack,
            r.decision_events,
            r.backtrack_pct,
            r.back_rate_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run(name: &str) -> GrammarRun {
        run_grammar(suite::by_name(name).unwrap(), 60, 7)
    }

    #[test]
    fn java_table1_shape_matches_paper() {
        let run = small_run("Java");
        let row = run.table1_row();
        // Paper Table 1 (Java1.5): the vast majority of decisions are
        // fixed; a small fraction backtracks (11.8% in the paper).
        assert!(row.decisions > 30, "{row:?}");
        assert!(row.fixed > row.backtrack, "{row:?}");
        assert!(row.fixed as f64 / row.decisions as f64 > 0.6, "most decisions fixed: {row:?}");
        let bt_pct = row.backtrack as f64 / row.decisions as f64;
        assert!(bt_pct < 0.4, "backtracking is the minority: {row:?}");
    }

    #[test]
    fn java_table2_mostly_ll1() {
        let run = small_run("Java");
        let row = run.table2_row();
        // Paper Table 2: most decisions are LL(1).
        assert!(row.pct_ll1 > 50.0, "{row:?}");
        assert!(row.pct_llk >= row.pct_ll1);
        assert!(!row.counts_by_k.is_empty());
        assert!(row.counts_by_k[0] > row.counts_by_k.get(1).copied().unwrap_or(0));
    }

    #[test]
    fn java_table3_low_average_lookahead() {
        let run = small_run("Java");
        let row = run.table3_row();
        // Paper Table 3: avg k is roughly one token (1.04–1.88).
        assert!(row.avg_k >= 1.0 && row.avg_k < 3.0, "{row:?}");
        assert!(row.decisions_covered > 10, "{row:?}");
        assert!(row.max_k >= 2);
    }

    #[test]
    fn java_table4_backtracking_is_rare() {
        let run = small_run("Java");
        let row = run.table4_row();
        // Paper Table 4: only a few percent of decision events backtrack
        // (2.36% for Java1.5); allow a loose bound.
        assert!(row.backtrack_pct < 30.0, "{row:?}");
        assert!(row.did_backtrack <= row.can_backtrack, "{row:?}");
        assert!(row.decision_events > 100, "{row:?}");
    }

    #[test]
    fn sql_is_almost_entirely_fixed() {
        let run = small_run("SQL");
        let row = run.table1_row();
        // Paper: TSQL is 94% fixed with very few backtracking decisions.
        assert!(
            row.fixed as f64 / row.decisions as f64 > 0.85,
            "keyword-driven SQL should be overwhelmingly LL(k): {row:?}"
        );
        let t3 = run.table3_row();
        assert!(t3.avg_k < 1.7, "SQL avg k ≈ 1: {t3:?}");
    }

    #[test]
    fn ratsc_backtracks_most() {
        // Paper: RatsC has the highest backtrack ratio (22.4%) and the
        // deepest speculation (max k = 7968 — whole functions).
        let c = small_run("RatsC").table1_row();
        let sql = small_run("SQL").table1_row();
        let pct = |r: &Table1Row| r.backtrack as f64 / r.decisions.max(1) as f64;
        assert!(pct(&c) > pct(&sql), "C backtracks more than SQL: {c:?} vs {sql:?}");
    }

    #[test]
    fn ratsc_speculates_across_declarations() {
        let run = small_run("RatsC");
        let row = run.table3_row();
        // back k (speculation depth) far exceeds avg k, like the paper's
        // RatsC row (avg 1.88 vs max 7968).
        assert!(row.max_k as f64 > row.avg_k * 4.0, "{row:?}");
        let t4 = run.table4_row();
        assert!(t4.did_backtrack > 0, "{t4:?}");
    }

    #[test]
    fn analysis_jsonl_lines_parse_and_cover_every_grammar() {
        let runs: Vec<GrammarRun> = vec![small_run("Java"), small_run("SQL")];
        let text = analysis_jsonl(&runs);
        let mut analysis_lines = 0usize;
        let mut summaries = Vec::new();
        for line in text.lines() {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert!(v.get("grammar").is_some(), "{line}");
            match v.get("type").and_then(Json::as_str) {
                Some("analysis") => {
                    analysis_lines += 1;
                    // The record minus the grammar tag round-trips.
                    assert!(AnalysisRecord::from_json(&v).is_ok(), "{line}");
                }
                Some("summary") => {
                    summaries.push(v.get("grammar").and_then(Json::as_str).unwrap().to_string())
                }
                other => panic!("unexpected line type {other:?}: {line}"),
            }
        }
        assert!(analysis_lines > 30, "Java alone has dozens of decisions");
        assert_eq!(summaries, ["Java", "SQL"]);
    }

    #[test]
    fn recovery_run_measures_overhead_and_repairs() {
        let row = recovery_run(suite::by_name("SQL").unwrap(), 60, 7);
        assert!(row.input_tokens > 50, "{row:?}");
        assert!(row.corrupted_sites >= 1, "{row:?}");
        // Corruption must surface at least one diagnostic, and cascade
        // suppression keeps the count linear in the sites mutated.
        assert!(row.diagnostics >= 1, "{row:?}");
        assert!(row.diagnostics <= 8 * row.corrupted_sites + 2, "{row:?}");
        assert_eq!(row.stats.recoveries as usize, row.diagnostics, "{row:?}");
        let text = format_recovery(&[row]);
        assert!(text.contains("SQL"), "{text}");
        let jsonl = recovery_jsonl(&recovery_all(40, 3));
        let mut grammars = Vec::new();
        for line in jsonl.lines() {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(v.get("type").and_then(Json::as_str), Some("recovery"), "{line}");
            grammars.push(v.get("grammar").and_then(Json::as_str).unwrap().to_string());
        }
        assert_eq!(grammars.len(), suite::all().len());
    }

    #[test]
    fn scaling_rows_cover_the_thread_sweep() {
        let rows = scaling_all(1);
        let counts = scaling_thread_counts();
        assert_eq!(rows.len(), suite::all().len() * counts.len());
        for r in &rows {
            assert!(r.micros >= 1, "{r:?}");
            if r.threads == 1 {
                assert_eq!(r.speedup_milli, 1000, "1-thread speedup is 1.00x: {r:?}");
            }
        }
        let table = format_scaling(&rows);
        assert!(table.contains("Java"), "{table}");
        for line in scaling_jsonl(&rows).lines() {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(v.get("type").and_then(Json::as_str), Some("scaling"), "{line}");
            assert!(v.get("speedup-milli").and_then(Json::as_u64).is_some(), "{line}");
        }
    }

    #[test]
    fn coverage_overhead_measures_both_sides() {
        let row = coverage_overhead_run(suite::by_name("SQL").unwrap(), 40, 7);
        assert!(row.input_tokens > 50, "{row:?}");
        assert!(row.predictions > 0, "coverage recorder saw no predictions: {row:?}");
        let text = format_coverage_overhead(&[row]);
        assert!(text.contains("SQL"), "{text}");
        let jsonl = coverage_overhead_jsonl(&[coverage_overhead_run(
            suite::by_name("Java").unwrap(),
            40,
            7,
        )]);
        let v = Json::parse(jsonl.trim_end()).expect("valid json");
        assert_eq!(v.get("type").and_then(Json::as_str), Some("coverage-overhead"));
        assert!(v.get("coverage-micros").and_then(Json::as_u64).unwrap() >= 1);
    }

    #[test]
    fn memo_ablation_and_fixed_k_sweep_cover_their_configurations() {
        let memo = memo_ablation(7);
        assert_eq!(memo.iter().map(|r| r.name).collect::<Vec<_>>(), ["RatsC", "CSharp"]);
        assert!(format_memo(&memo).contains("CSharp"));

        // No fixed k resolves the decision; LL(*) builds the 4-state
        // cyclic DFA s0 -A-> s1, s1 -A-> s1, s1 -X-> f1, s1 -Y-> f2.
        let sweep = fixed_k_sweep();
        let (llstar, fixed) = sweep.split_last().expect("rows");
        assert_eq!(fixed.len(), 6);
        assert!(fixed.iter().all(|r| r.max_k.is_some() && !r.resolved), "{fixed:?}");
        assert_eq!((llstar.max_k, llstar.states, llstar.resolved), (None, 4, true), "{llstar:?}");
        assert_eq!(llstar.class, "cyclic");
        assert!(format_fixed_k(&sweep).contains("LL(*)"));
    }

    #[test]
    fn formatting_renders_all_rows() {
        let runs: Vec<GrammarRun> = vec![small_run("Java"), small_run("SQL")];
        let t1: Vec<_> = runs.iter().map(GrammarRun::table1_row).collect();
        let t2: Vec<_> = runs.iter().map(GrammarRun::table2_row).collect();
        let t3: Vec<_> = runs.iter().map(GrammarRun::table3_row).collect();
        let t4: Vec<_> = runs.iter().map(GrammarRun::table4_row).collect();
        for text in [format_table1(&t1), format_table2(&t2), format_table3(&t3), format_table4(&t4)]
        {
            assert!(text.contains("Java"), "{text}");
            assert!(text.contains("SQL"), "{text}");
        }
    }
}
