//! Calls into the crates' public entry points, shared by every
//! workload: grammar set-up (grammar + core), the traced lex → parse →
//! encode pipeline (lexer + runtime), and the packrat reference pass.

use crate::report::Report;
use crate::util::{ms, Spans};
use llstar_core::{analyze, GrammarAnalysis};
use llstar_grammar::{apply_peg_mode, parse_grammar, validate, Grammar};
use llstar_lexer::Scanner;
use llstar_packrat::PackratParser;
use llstar_runtime::{NopHooks, ParseSession, ParseTree, TokenStream};
use llstar_suite::gauntlet::GauntletEntry;
use std::time::Instant;

/// A grammar taken from text to a ready-to-parse analysis.
pub struct Loaded {
    pub entry: GauntletEntry,
    pub grammar: Grammar,
    pub analysis: GrammarAnalysis,
}

/// `parse_grammar` + `apply_peg_mode` + `validate` (errors are fatal).
pub fn load_grammar(entry: &GauntletEntry) -> Result<Grammar, String> {
    let g = apply_peg_mode(
        parse_grammar(entry.source).map_err(|e| format!("{}: grammar: {e}", entry.name))?,
    );
    let errors: Vec<String> =
        validate(&g).into_iter().filter(|i| i.is_error()).map(|i| i.to_string()).collect();
    if errors.is_empty() {
        Ok(g)
    } else {
        Err(format!("{}: grammar errors: {}", entry.name, errors.join("; ")))
    }
}

/// Per-rep set-up timings, in milliseconds.
pub struct SetupTimes {
    /// Whole set-up: load + analyze + `ParseSession::new`, all grammars.
    pub total_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub analyze_ms: Vec<f64>,
}

/// Sets every grammar up at least `reps` times (and at least once),
/// repeating until `min_seconds` have passed, and keeps the last rep's
/// results. Spans are recorded when `spans` is given.
pub fn setup(
    entries: &[GauntletEntry],
    reps: usize,
    min_seconds: f64,
    mut spans: Option<&mut Spans>,
) -> Result<(Vec<Loaded>, SetupTimes), String> {
    let mut times =
        SetupTimes { total_ms: Vec::new(), load_ms: Vec::new(), analyze_ms: Vec::new() };
    let mut loaded = Vec::new();
    let started = Instant::now();
    let mut rep = 0;
    while rep < reps.max(1) || started.elapsed().as_secs_f64() < min_seconds {
        loaded.clear();
        let (mut load, mut analysis) = (0.0, 0.0);
        let t0 = Instant::now();
        for entry in entries {
            let a0 = Instant::now();
            let grammar = load_grammar(entry)?;
            let a1 = Instant::now();
            let result = analyze(&grammar);
            let a2 = Instant::now();
            let session = ParseSession::new(&grammar, &result, entry.start_rule, NopHooks)
                .map_err(|e| format!("{}: lexer: {e}", entry.name))?;
            drop(session);
            let a3 = Instant::now();
            load += ms(a1 - a0);
            analysis += ms(a2 - a1);
            if let Some(spans) = spans.as_deref_mut() {
                spans.record("grammar.load", rep as u64, None, a0, a1);
                spans.record("core.analyze", rep as u64, None, a1, a2);
                spans.record("runtime.session_new", rep as u64, None, a2, a3);
            }
            loaded.push(Loaded { entry: *entry, grammar, analysis: result });
        }
        times.total_ms.push(ms(t0.elapsed()));
        times.load_ms.push(load);
        times.analyze_ms.push(analysis);
        rep += 1;
    }
    Ok((loaded, times))
}

/// Reports the analysis construction counters summed over `loaded`.
pub fn report_analysis(loaded: &[Loaded], report: &mut Report) {
    let (mut states, mut closures, mut bytes) = (0u64, 0u64, 0usize);
    for l in loaded {
        let m = l.analysis.total_metrics();
        states += m.dfa_states;
        closures += m.closure_calls;
        bytes += l.analysis.tables.summary().2;
        report.info(format!("core.dfa_states.{}", l.entry.name), m.dfa_states as f64, "count");
    }
    report.metric("core.dfa_states", states as f64);
    report.metric("core.closure_calls", closures as f64);
    report.metric("core.table_bytes", bytes as f64);
}

/// The lexer a pipeline call drives directly, with the class map the
/// analysis lowered its tables with (as `ParseSession` uses it).
pub struct Lexer {
    scanner: Scanner,
    class_map: Option<Vec<u8>>,
}

impl Lexer {
    pub fn new(l: &Loaded) -> Result<Lexer, String> {
        let scanner =
            l.grammar.lexer.build().map_err(|e| format!("{}: lexer: {e}", l.entry.name))?;
        let class_map = l.analysis.tables.classes().map(|c| c.map().to_vec());
        Ok(Lexer { scanner, class_map })
    }

    /// Non-EOF token count of `text` (the coverage check's reference).
    pub fn count_tokens(&self, text: &str) -> Result<usize, String> {
        Ok(self.scanner.tokenize(text).map_err(|e| e.to_string())?.len() - 1)
    }

    /// Plain token vector, for the packrat engine.
    pub fn tokens(&self, text: &str) -> Result<Vec<llstar_lexer::Token>, String> {
        self.scanner.tokenize(text).map_err(|e| e.to_string())
    }

    fn stream(&self, text: &str) -> Result<TokenStream, String> {
        match &self.class_map {
            Some(map) => Ok(TokenStream::new_classified(
                self.scanner.tokenize_classified(text, map).map_err(|e| e.to_string())?,
            )),
            None => Ok(TokenStream::new(self.scanner.tokenize(text).map_err(|e| e.to_string())?)),
        }
    }
}

/// One input of a layer pass: which grammar, a label, the text, and its
/// non-EOF token count.
pub struct Input<'a> {
    pub grammar: usize,
    pub label: &'a str,
    pub text: &'a str,
    pub tokens: usize,
}

/// FNV-1a over a tree's shape in pre-order: rules, alternatives, child
/// counts, token types and spans. With the source text these fix the
/// s-expression, so equal shape hashes mean equal s-expressions (barring
/// collisions), at a fraction of `to_sexpr`'s cost.
pub fn shape_hash(tree: &ParseTree) -> u64 {
    fn feed(h: &mut u64, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    fn token(h: &mut u64, tag: u64, t: &llstar_lexer::Token) {
        feed(h, &[tag, u64::from(t.ttype.0), t.span.start as u64, t.span.end as u64]);
    }
    fn walk(tree: &ParseTree, h: &mut u64) {
        match tree {
            ParseTree::Rule { rule, alt, children } => {
                feed(h, &[0, u64::from(rule.0), u64::from(*alt), children.len() as u64]);
                children.iter().for_each(|c| walk(c, h));
            }
            ParseTree::Token(t) => token(h, 1, t),
            ParseTree::Error { tokens, inserted } => {
                feed(h, &[2, inserted.map_or(u64::MAX, |t| u64::from(t.0)), tokens.len() as u64]);
                tokens.iter().for_each(|t| token(h, 3, t));
            }
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    walk(tree, &mut h);
    h
}

/// Checks one tree: parsed, covers every lexed token, and (when known)
/// has the reference tree's shape hash. Returns the shape hash.
pub fn check_tree(
    report: &mut Report,
    input: &Input<'_>,
    result: Result<ParseTree, String>,
    expected: Option<u64>,
) -> Option<u64> {
    let tree = match result {
        Ok(tree) => tree,
        Err(e) => {
            report.check(false, || format!("{}: {e}", input.label));
            return None;
        }
    };
    let covered = tree.token_count();
    let shape = shape_hash(&tree);
    let ok = (covered == input.tokens || covered == input.tokens + 1)
        && expected.is_none_or(|e| e == shape);
    report.check(ok, || {
        format!(
            "{}: tree covers {covered} of {} tokens, shape {shape:016x} (expected {expected:016x?})",
            input.label, input.tokens
        )
    });
    Some(shape)
}

/// Totals of one traced pass.
#[derive(Default)]
pub struct PassTotals {
    /// Lex + parse per input (the parent span), summed.
    pub pipeline_ms: f64,
    pub lex_ms: f64,
    pub parse_ms: f64,
    pub sexpr_ms: f64,
    pub bytes: usize,
    pub events: u64,
    pub la_sum: u64,
    pub backtracks: u64,
    pub spec_tokens: u64,
    pub memo_entries: u64,
    pub memo_hits: u64,
}

/// One traced pass: per input, `Scanner::tokenize_classified` (lexer),
/// then `Parser::reset` + `parse_to_eof` (runtime) under one parent
/// span, then `ParseTree::to_sexpr` (encoding) outside it. Trees are
/// checked against `expected` shape hashes.
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    loaded: &[Loaded],
    lexers: &[Lexer],
    sessions: &mut [ParseSession<'_, NopHooks>],
    inputs: &[Input<'_>],
    expected: &[u64],
    spans: &mut Spans,
    report: &mut Report,
) -> PassTotals {
    let mut t = PassTotals::default();
    for (i, input) in inputs.iter().enumerate() {
        let l = &loaded[input.grammar];
        let op = i as u64;
        let t0 = Instant::now();
        let stream = lexers[input.grammar].stream(input.text);
        let t1 = Instant::now();
        let (result, t2, t3) = match stream {
            Ok(stream) => {
                let parser = sessions[input.grammar].parser();
                let t2 = Instant::now();
                parser.reset(stream);
                let r = parser.parse_to_eof(l.entry.start_rule).map_err(|e| e.to_string());
                (r, t2, Instant::now())
            }
            Err(e) => (Err(e), t1, t1),
        };
        let parent = spans.record("pipeline.lex_parse", op, None, t0, t3);
        spans.record("lexer.tokenize_classified", op, Some(parent), t0, t1);
        spans.record("runtime.reset_parse_to_eof", op, Some(parent), t2, t3);
        t.pipeline_ms += ms(t3 - t0);
        t.lex_ms += ms(t1 - t0);
        t.parse_ms += ms(t3 - t2);
        t.bytes += input.text.len();
        let metrics = sessions[input.grammar].parser().metrics();
        for d in metrics.decisions() {
            t.events += d.events;
            t.la_sum += d.la_sum;
            t.backtracks += d.backtracks;
            t.spec_tokens += d.spec_sum;
        }
        t.memo_entries += metrics.memo_entries();
        t.memo_hits += metrics.memo_hits();
        if let Ok(tree) = &result {
            let s0 = Instant::now();
            let sexpr = tree.to_sexpr(&l.grammar, input.text);
            let s1 = Instant::now();
            std::hint::black_box(&sexpr);
            spans.record("runtime.to_sexpr", op, None, s0, s1);
            t.sexpr_ms += ms(s1 - s0);
        }
        check_tree(report, input, result, expected.get(i).copied());
    }
    t
}

/// Reports the runtime counters of one traced pass.
pub fn report_counters(t: &PassTotals, report: &mut Report) {
    report.metric("runtime.decision_events", t.events as f64);
    report.metric("runtime.avg_k", t.la_sum as f64 / t.events.max(1) as f64);
    report.metric("runtime.backtracks", t.backtracks as f64);
    report.metric("runtime.spec_tokens", t.spec_tokens as f64);
    report.metric("runtime.memo_entries", t.memo_entries as f64);
    report.metric("runtime.memo_hits", t.memo_hits as f64);
    let traffic = t.memo_hits + t.memo_entries;
    report.metric(
        "runtime.memo_hit_ratio",
        if traffic == 0 { 0.0 } else { t.memo_hits as f64 / traffic as f64 },
    );
}

/// The packrat reference: `PackratParser::recognize` with memo on over
/// every input (recognize-only: it builds no tree, so its time is not
/// comparable with the interpreter's). Every input must be accepted.
/// Returns (milliseconds in `recognize`, memo entries written).
pub fn packrat_pass(
    loaded: &[Loaded],
    lexers: &[Lexer],
    inputs: &[Input<'_>],
    mut spans: Option<&mut Spans>,
    report: &mut Report,
) -> (f64, u64) {
    let (mut total, mut entries) = (0.0, 0u64);
    for (i, input) in inputs.iter().enumerate() {
        let l = &loaded[input.grammar];
        let tokens = match lexers[input.grammar].tokens(input.text) {
            Ok(t) => t,
            Err(e) => {
                report.check(false, || format!("{}: packrat lex: {e}", input.label));
                continue;
            }
        };
        let mut parser = PackratParser::new(&l.grammar, tokens);
        let t0 = Instant::now();
        let outcome = parser.recognize(l.entry.start_rule);
        let t1 = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("packrat.recognize", i as u64, None, t0, t1);
        }
        total += ms(t1 - t0);
        entries += parser.stats().memo_entries;
        report.check(outcome.is_ok(), || format!("{}: packrat rejects: {outcome:?}", input.label));
    }
    (total, entries)
}
