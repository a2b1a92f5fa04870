//! Emits the recursive-descent parser: one function per rule, one
//! predictor per decision (the lookahead DFA unrolled into a state-machine
//! `match`), and one speculative matcher per syntactic predicate — the
//! shape of ANTLR's generated parsers.

use crate::writer::CodeWriter;
use crate::CodegenOptions;
use llstar_core::{CompiledDfa, DecisionKind, DfaState, GrammarAnalysis, PredSource};
use llstar_grammar::{Alt, Block, Ebnf, Element, Grammar};

/// Walks grammar constructs in the exact order the ATN builder numbered
/// their decisions, handing out decision ids.
struct DecisionCursor<'a> {
    analysis: &'a GrammarAnalysis,
    next: usize,
}

impl<'a> DecisionCursor<'a> {
    fn take(&mut self, expected: DecisionKind) -> usize {
        let d = self
            .analysis
            .atn
            .decisions
            .get(self.next)
            .unwrap_or_else(|| panic!("decision cursor ran past the end"));
        assert_eq!(
            d.kind, expected,
            "codegen decision order diverged from ATN construction at d{}",
            self.next
        );
        self.next += 1;
        self.next - 1
    }
}

struct ParserGen<'a> {
    grammar: &'a Grammar,
    analysis: &'a GrammarAnalysis,
    /// Decision ids actually referenced by predictors, in emit order.
    used_decisions: Vec<usize>,
    /// Emit `Hooks::trace` calls around predictors and synpreds.
    trace: bool,
    /// Emit direct coverage counters (`Parser::cov`) mirroring the
    /// interpreter's coverage recorder byte-for-byte.
    coverage: bool,
    /// Emit direct metric counters (`Parser::met`) mirroring the
    /// interpreter's always-on `ParseMetrics` byte-for-byte.
    metrics: bool,
    /// The grammar memoizes (`options.memoize`): memo hit/miss coverage
    /// counters are only emitted then, matching the interpreter's
    /// memoization gate (the generated engine always memoizes, but
    /// counting uncounted traffic would break parity).
    count_memo: bool,
    /// As `count_memo`, for the metric memo counters.
    met_memo: bool,
    /// Interned expected-token sets, in first-use order; emitted as the
    /// `EXPECTED_SETS` static the recovery helpers index into.
    sets: Vec<Vec<u32>>,
    set_ids: std::collections::HashMap<Vec<u32>, usize>,
    /// Cursor over [`llstar_core::Atn::token_sites`]: one `(from, to)`
    /// state pair per `Element::Token`, in creation order — which is
    /// exactly this module's emission order (same invariant as
    /// [`DecisionCursor`]).
    token_site: usize,
    /// Cursor over [`llstar_core::Atn::call_sites`] (follow state per
    /// `Element::Rule`), same order invariant.
    call_site: usize,
    /// Emitting a synpred fragment body: recovery never engages while
    /// speculating, so sites emit the plain strict forms (the cursors
    /// still advance to stay aligned).
    in_fragment: bool,
    /// The rule whose body is being emitted (for sync-and-return's early
    /// `return Ok(Tree::Rule { .. })` and diagnostic trace ids).
    current_rule: usize,
}

/// Generates the parser for `grammar` into `w`. `analysis` must come from
/// the same grammar.
pub fn emit_parser(
    w: &mut CodeWriter,
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    options: CodegenOptions,
) {
    let mut gen = ParserGen {
        grammar,
        analysis,
        used_decisions: Vec::new(),
        trace: options.trace,
        coverage: options.coverage,
        metrics: options.metrics,
        count_memo: options.coverage && grammar.options.memoize,
        met_memo: options.metrics && grammar.options.memoize,
        sets: Vec::new(),
        set_ids: std::collections::HashMap::new(),
        token_site: 0,
        call_site: 0,
        in_fragment: false,
        current_rule: 0,
    };
    gen.emit(w);
}

impl<'a> ParserGen<'a> {
    fn emit(&mut self, w: &mut CodeWriter) {
        self.emit_parser_struct(w);
        let mut cursor = DecisionCursor { analysis: self.analysis, next: 0 };

        w.open("impl<'h, H: Hooks> Parser<'h, H> {");
        // Rule functions, in ATN construction order.
        for rule in &self.grammar.rules {
            self.emit_rule(w, rule, &mut cursor);
        }
        // Syntactic-predicate matchers (fragments come after all rules in
        // the ATN, in synpred order).
        for (i, frag) in self.grammar.synpreds.iter().enumerate() {
            self.emit_synpred(w, i, frag, &mut cursor);
        }
        // Predictors for every decision that was referenced.
        let used = std::mem::take(&mut self.used_decisions);
        for &d in &used {
            self.emit_predictor(w, d);
        }
        w.close("}");
        assert_eq!(
            self.token_site,
            self.analysis.atn.token_sites.len(),
            "codegen token-site order diverged from ATN construction"
        );
        assert_eq!(
            self.call_site,
            self.analysis.atn.call_sites.len(),
            "codegen call-site order diverged from ATN construction"
        );
        self.emit_expected_sets(w);
        self.emit_prediction_tables(w, &used);
        if self.coverage {
            self.emit_coverage_support(w);
        }
        if self.metrics {
            self.emit_metrics_support(w);
        }
    }

    /// Whether any per-prediction instrumentation is on (coverage or
    /// metrics) — both need the `__bt`/`__spec` predictor locals and the
    /// `last_spec` speculation-width side channel.
    fn instrument(&self) -> bool {
        self.coverage || self.metrics
    }

    /// Emits the compiled prediction tables as `static` arrays: the
    /// grammar-wide token→class map plus, per emitted predictor, the
    /// accept/default side tables and the dense transition table the
    /// predictor loop indexes. This is the generated-parser counterpart
    /// of ANTLR's serialized decision tables. Nothing is emitted when
    /// lowering was disabled (the predictors then carry unrolled
    /// per-state `match`es instead). The class map itself lives in
    /// `LEX_PCLASS` (fused into tokenization).
    fn emit_prediction_tables(&self, w: &mut CodeWriter, used: &[usize]) {
        if !self.analysis.tables.enabled() || used.is_empty() {
            return;
        }
        let fmt = |xs: &[u32]| -> String {
            xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ")
        };
        w.blank();
        w.line("// Compiled prediction tables: one dense DFA table per decision");
        w.line("// over token equivalence classes. u32::MAX marks \"no transition\",");
        w.line("// u16::MAX marks \"no alternative\". Lookaheads are classified at");
        w.line("// tokenize time (token.class, via LEX_PCLASS), not probed here.");
        for &d in used {
            let (_, table) = self.analysis.tables.get(d).expect("tables are enabled");
            let accept = fmt(&table.accept.iter().map(|&a| a as u32).collect::<Vec<_>>());
            w.line(&format!("static D{d}_ACCEPT: &[u16] = &[{accept}];"));
            let default = fmt(&table.default_alt.iter().map(|&a| a as u32).collect::<Vec<_>>());
            w.line(&format!("static D{d}_DEFAULT: &[u16] = &[{default}];"));
            w.line(&format!("static D{d}_NEXT: &[u32] = &[{}];", fmt(&table.next)));
        }
    }

    /// Emits the coverage statics (`COV_STATES`, `COV_EDGES`,
    /// `RULE_ALT_COUNTS`, `GRAMMAR_FINGERPRINT`) and the `Coverage` /
    /// `CovDecision` accumulator types whose `to_json` rendering is
    /// byte-identical to the interpreter's `CoverageMap::to_json`.
    fn emit_coverage_support(&self, w: &mut CodeWriter) {
        let fingerprint = llstar_core::grammar_fingerprint(self.grammar);
        let schema = llstar_core::schema::COVERAGE_SCHEMA_VERSION;
        w.blank();
        w.line("/// Fingerprint of the source grammar (keys coverage documents).");
        w.line(&format!("pub const GRAMMAR_FINGERPRINT: u64 = {fingerprint};"));
        let states: Vec<String> =
            self.analysis.decisions.iter().map(|d| d.dfa.states.len().to_string()).collect();
        w.line("/// DFA state counts per decision.");
        w.line(&format!("static COV_STATES: &[usize] = &[{}];", states.join(", ")));
        let edges: Vec<String> = self
            .analysis
            .decisions
            .iter()
            .map(|d| {
                let mut list: Vec<(u32, u32)> = Vec::new();
                for (from, st) in d.dfa.states.iter().enumerate() {
                    for &(_, to) in &st.edges {
                        list.push((from as u32, to as u32));
                    }
                }
                list.sort_unstable();
                list.dedup();
                let items: Vec<String> = list.iter().map(|(f, t)| format!("({f}, {t})")).collect();
                format!("&[{}]", items.join(", "))
            })
            .collect();
        w.line("/// Distinct `(from, to)` DFA edges per decision, sorted (the");
        w.line("/// binary-search key space of each decision's `edge_hits`).");
        w.line(&format!("static COV_EDGES: &[&[(u32, u32)]] = &[{}];", edges.join(", ")));
        let alts: Vec<String> =
            self.grammar.rules.iter().map(|r| r.alts.len().to_string()).collect();
        w.line("/// Alternative counts per rule.");
        w.line(&format!("static RULE_ALT_COUNTS: &[usize] = &[{}];", alts.join(", ")));
        w.blank();
        w.line("/// Coverage counters for one decision (see `Coverage`).");
        w.line("#[derive(Debug, Clone, PartialEq, Eq)]");
        w.open("pub struct CovDecision {");
        w.line("/// Visit counts per DFA state.");
        w.line("pub states: Vec<u64>,");
        w.line("/// Traversal counts parallel to this decision's `COV_EDGES` row.");
        w.line("pub edge_hits: Vec<u64>,");
        w.line("/// Lookahead-depth histogram: depth -> prediction count.");
        w.line("pub lookahead: std::collections::BTreeMap<u64, u64>,");
        w.line("/// Successful predictions at speculation depth zero.");
        w.line("pub predictions: u64,");
        w.line("/// Predictions (of those) that fell over to backtracking.");
        w.line("pub backtracks: u64,");
        w.line("/// Memo (hits, misses) attributed to this decision.");
        w.line("pub memo: (u64, u64),");
        w.close("}");
        w.blank();
        w.line("/// Mergeable coverage counters; `to_json` renders the same bytes");
        w.line("/// as the interpreter's `CoverageMap::to_json` for the same runs.");
        w.line("#[derive(Debug, Clone, PartialEq, Eq)]");
        w.open("pub struct Coverage {");
        w.line("/// Number of corpus inputs accumulated (bumped by the embedder).");
        w.line("pub files: u64,");
        w.line("/// Per-rule alternative completion counts.");
        w.line("pub rules: Vec<Vec<u64>>,");
        w.line("/// Per-decision counters.");
        w.line("pub decisions: Vec<CovDecision>,");
        w.line("/// Memo (hits, misses) seen with no prediction in flight.");
        w.line("pub memo_unattributed: (u64, u64),");
        w.close("}");
        w.blank();
        w.open("impl Coverage {");
        w.line("/// An all-zero accumulator shaped for this grammar.");
        w.open("pub fn new() -> Coverage {");
        w.open("Coverage {");
        w.line("files: 0,");
        w.line("rules: RULE_ALT_COUNTS.iter().map(|&n| vec![0; n]).collect(),");
        w.line("decisions: COV_STATES.iter().zip(COV_EDGES).map(|(&n, es)| CovDecision { states: vec![0; n], edge_hits: vec![0; es.len()], lookahead: std::collections::BTreeMap::new(), predictions: 0, backtracks: 0, memo: (0, 0) }).collect(),");
        w.line("memo_unattributed: (0, 0),");
        w.close("}");
        w.close("}");
        w.blank();
        w.line("/// Adds `other` into `self`, cell by cell.");
        w.open("pub fn merge(&mut self, other: &Coverage) {");
        w.line("self.files += other.files;");
        w.open("for (a, b) in self.rules.iter_mut().zip(&other.rules) {");
        w.line("for (x, y) in a.iter_mut().zip(b) { *x += y; }");
        w.close("}");
        w.open("for (a, b) in self.decisions.iter_mut().zip(&other.decisions) {");
        w.line("for (x, y) in a.states.iter_mut().zip(&b.states) { *x += y; }");
        w.line("for (x, y) in a.edge_hits.iter_mut().zip(&b.edge_hits) { *x += y; }");
        w.line("for (&k, &v) in &b.lookahead { *a.lookahead.entry(k).or_insert(0) += v; }");
        w.line("a.predictions += b.predictions;");
        w.line("a.backtracks += b.backtracks;");
        w.line("a.memo.0 += b.memo.0;");
        w.line("a.memo.1 += b.memo.1;");
        w.close("}");
        w.line("self.memo_unattributed.0 += other.memo_unattributed.0;");
        w.line("self.memo_unattributed.1 += other.memo_unattributed.1;");
        w.close("}");
        w.blank();
        w.line("/// The stable JSON rendering (field order and bytes match the");
        w.line("/// interpreter's coverage documents exactly).");
        w.open("pub fn to_json(&self) -> String {");
        w.line("let mut out = String::new();");
        w.line(&format!(
            "out.push_str(&format!(\"{{{{\\\"type\\\":\\\"coverage\\\",\\\"schema\\\":{schema},\\\"fingerprint\\\":{{}},\\\"files\\\":{{}},\\\"rules\\\":[\", GRAMMAR_FINGERPRINT, self.files));"
        ));
        w.open("for (i, counts) in self.rules.iter().enumerate() {");
        w.line("if i > 0 { out.push(','); }");
        w.line("out.push('[');");
        w.open("for (j, c) in counts.iter().enumerate() {");
        w.line("if j > 0 { out.push(','); }");
        w.line("out.push_str(&c.to_string());");
        w.close("}");
        w.line("out.push(']');");
        w.close("}");
        w.line("out.push_str(\"],\\\"decisions\\\":[\");");
        w.open("for (i, d) in self.decisions.iter().enumerate() {");
        w.line("if i > 0 { out.push(','); }");
        w.line("out.push_str(\"{\\\"states\\\":[\");");
        w.open("for (j, c) in d.states.iter().enumerate() {");
        w.line("if j > 0 { out.push(','); }");
        w.line("out.push_str(&c.to_string());");
        w.close("}");
        w.line("out.push_str(\"],\\\"edges\\\":[\");");
        w.open("for (j, (&(f, t), &h)) in COV_EDGES[i].iter().zip(&d.edge_hits).enumerate() {");
        w.line("if j > 0 { out.push(','); }");
        w.line("out.push_str(&format!(\"[{f},{t},{h}]\"));");
        w.close("}");
        w.line("out.push_str(\"],\\\"lookahead\\\":[\");");
        w.open("for (j, (&k, &v)) in d.lookahead.iter().enumerate() {");
        w.line("if j > 0 { out.push(','); }");
        w.line("out.push_str(&format!(\"[{k},{v}]\"));");
        w.close("}");
        w.line("out.push_str(&format!(\"],\\\"predictions\\\":{},\\\"backtracks\\\":{},\\\"memo\\\":[{},{}]}}\", d.predictions, d.backtracks, d.memo.0, d.memo.1));");
        w.close("}");
        w.line("out.push_str(&format!(\"],\\\"memo-unattributed\\\":[{},{}]}}\", self.memo_unattributed.0, self.memo_unattributed.1));");
        w.line("out");
        w.close("}");
        w.close("}");
        w.blank();
        w.open("impl Default for Coverage {");
        w.line("fn default() -> Coverage { Coverage::new() }");
        w.close("}");
    }

    /// Emits the metric statics (`MET_DECISION_RULES`, the grammar
    /// fingerprint when coverage hasn't already emitted it), the
    /// log-linear bucket function, and the `Metrics` / `MetDecision`
    /// accumulator types whose `to_json` rendering is byte-identical to
    /// the runtime's `MetricsSnapshot::to_json(engine, false)`.
    fn emit_metrics_support(&self, w: &mut CodeWriter) {
        w.blank();
        if !self.coverage {
            let fingerprint = llstar_core::grammar_fingerprint(self.grammar);
            w.line("/// Fingerprint of the source grammar (keys metric documents).");
            w.line(&format!("pub const GRAMMAR_FINGERPRINT: u64 = {fingerprint};"));
        }
        let rules: Vec<String> = self
            .analysis
            .atn
            .decisions
            .iter()
            .map(|d| format!("{:?}", self.grammar.rule(d.rule).name))
            .collect();
        w.line("/// Owning rule name per decision (metric exposition labels).");
        w.line(&format!("static MET_DECISION_RULES: &[&str] = &[{}];", rules.join(", ")));
        w.blank();
        w.line("/// Log-linear bucket index of `v` in an `n`-bucket histogram:");
        w.line("/// identity below 16, then two sub-buckets per power of two,");
        w.line("/// clamped (identical to the runtime's `metrics::bucket_of`).");
        w.open("fn met_bucket(v: u64, n: usize) -> usize {");
        w.open("if v < 16 {");
        w.line("v as usize");
        w.close("}");
        w.open("else {");
        w.line("let msb = 63 - v.leading_zeros() as usize;");
        w.line("let sub = ((v >> (msb - 1)) & 1) as usize;");
        w.line("(16 + (msb - 4) * 2 + sub).min(n - 1)");
        w.close("}");
        w.close("}");
        w.blank();
        w.line("/// Renders a histogram as a JSON array, trailing zeros trimmed");
        w.line("/// (the runtime's rendering exactly).");
        w.open("fn met_hist_json(hist: &[u64]) -> String {");
        w.line("let len = hist.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);");
        w.line("let items: Vec<String> = hist[..len].iter().map(|v| v.to_string()).collect();");
        w.line("format!(\"[{}]\", items.join(\",\"))");
        w.close("}");
        w.blank();
        w.line("/// Per-decision metric slots (see `Metrics`).");
        w.line("#[derive(Debug, Clone, PartialEq, Eq)]");
        w.open("pub struct MetDecision {");
        w.line("/// Completed predictions (all speculation depths).");
        w.line("pub events: u64,");
        w.line("/// Sum of effective lookahead depths.");
        w.line("pub la_sum: u64,");
        w.line("/// Deepest effective lookahead seen.");
        w.line("pub la_max: u64,");
        w.line("/// Predictions that fell over to backtracking.");
        w.line("pub backtracks: u64,");
        w.line("/// Sum of deepest-speculation token counts.");
        w.line("pub spec_sum: u64,");
        w.line("/// Log-linear histogram of effective lookahead depth.");
        w.line("pub hist: [u64; 32],");
        w.close("}");
        w.blank();
        w.line("/// Mergeable metric counters; `to_json` renders the same bytes");
        w.line("/// as the runtime's `MetricsSnapshot::to_json(engine, false)`");
        w.line("/// for the same runs.");
        w.line("#[derive(Debug, Clone, PartialEq, Eq)]");
        w.open("pub struct Metrics {");
        w.line("/// Completed parses (bumped by `finish_parse`).");
        w.line("pub parses: u64,");
        w.line("/// Tokens consumed by completed parses.");
        w.line("pub tokens: u64,");
        w.line("/// Memo-table hits.");
        w.line("pub memo_hits: u64,");
        w.line("/// Memo-table entries written.");
        w.line("pub memo_entries: u64,");
        w.line("/// Histogram of tokens per parse.");
        w.line("pub tokens_hist: [u64; 64],");
        w.line("/// Histogram of memo entries written per parse.");
        w.line("pub memo_hist: [u64; 64],");
        w.line("/// `memo_entries` at the last `finish_parse` (per-parse deltas).");
        w.line("memo_mark: u64,");
        w.line("/// Per-decision counters, indexed by decision id.");
        w.line("pub decisions: Vec<MetDecision>,");
        w.close("}");
        w.blank();
        w.open("impl Metrics {");
        w.line("/// An all-zero accumulator shaped for this grammar.");
        w.open("pub fn new() -> Metrics {");
        w.line("Metrics { parses: 0, tokens: 0, memo_hits: 0, memo_entries: 0, tokens_hist: [0; 64], memo_hist: [0; 64], memo_mark: 0, decisions: MET_DECISION_RULES.iter().map(|_| MetDecision { events: 0, la_sum: 0, la_max: 0, backtracks: 0, spec_sum: 0, hist: [0; 32] }).collect() }");
        w.close("}");
        w.blank();
        w.line("/// Marks one successful parse-to-EOF over `tokens` consumed");
        w.line("/// tokens (the runtime's `ParseMetrics::finish_parse`).");
        w.open("pub fn finish_parse(&mut self, tokens: u64) {");
        w.line("self.parses += 1;");
        w.line("self.tokens += tokens;");
        w.line("self.tokens_hist[met_bucket(tokens, 64)] += 1;");
        w.line("let delta = self.memo_entries - self.memo_mark;");
        w.line("self.memo_mark = self.memo_entries;");
        w.line("self.memo_hist[met_bucket(delta, 64)] += 1;");
        w.close("}");
        w.blank();
        w.line("/// Adds `other` into `self`, cell by cell (`la_max` via max).");
        w.open("pub fn merge(&mut self, other: &Metrics) {");
        w.line("self.parses += other.parses;");
        w.line("self.tokens += other.tokens;");
        w.line("self.memo_hits += other.memo_hits;");
        w.line("self.memo_entries += other.memo_entries;");
        w.line("for (a, b) in self.tokens_hist.iter_mut().zip(&other.tokens_hist) { *a += b; }");
        w.line("for (a, b) in self.memo_hist.iter_mut().zip(&other.memo_hist) { *a += b; }");
        w.open("for (a, b) in self.decisions.iter_mut().zip(&other.decisions) {");
        w.line("a.events += b.events;");
        w.line("a.la_sum += b.la_sum;");
        w.line("a.la_max = a.la_max.max(b.la_max);");
        w.line("a.backtracks += b.backtracks;");
        w.line("a.spec_sum += b.spec_sum;");
        w.line("for (x, y) in a.hist.iter_mut().zip(&b.hist) { *x += y; }");
        w.close("}");
        w.close("}");
        w.blank();
        w.line("/// The deterministic snapshot JSON (field order and bytes match");
        w.line("/// the runtime's timing-free form exactly; zero-event decisions");
        w.line("/// are omitted).");
        w.open("pub fn to_json(&self, engine: &str) -> String {");
        w.line("let mut out = String::new();");
        w.line("out.push_str(&format!(\"{{\\\"type\\\":\\\"metrics\\\",\\\"fingerprint\\\":{},\\\"engine\\\":{},\\\"parses\\\":{},\\\"tokens\\\":{},\\\"memo-hits\\\":{},\\\"memo-entries\\\":{},\\\"tokens-hist\\\":{},\\\"memo-hist\\\":{},\\\"decisions\\\":[\", GRAMMAR_FINGERPRINT, json_quote(engine), self.parses, self.tokens, self.memo_hits, self.memo_entries, met_hist_json(&self.tokens_hist), met_hist_json(&self.memo_hist)));");
        w.line("let mut first = true;");
        w.open("for (d, m) in self.decisions.iter().enumerate() {");
        w.line("if m.events == 0 { continue; }");
        w.line("if !first { out.push(','); }");
        w.line("first = false;");
        w.line("out.push_str(&format!(\"{{\\\"decision\\\":{},\\\"rule\\\":{},\\\"events\\\":{},\\\"la-sum\\\":{},\\\"la-max\\\":{},\\\"backtracks\\\":{},\\\"spec-sum\\\":{},\\\"hist\\\":{}}}\", d, json_quote(MET_DECISION_RULES[d]), m.events, m.la_sum, m.la_max, m.backtracks, m.spec_sum, met_hist_json(&m.hist)));");
        w.close("}");
        w.line("out.push_str(\"]}\");");
        w.line("out");
        w.close("}");
        w.close("}");
        w.blank();
        w.open("impl Default for Metrics {");
        w.line("fn default() -> Metrics { Metrics::new() }");
        w.close("}");
    }

    /// Interns an expected set, returning its `EXPECTED_SETS` index.
    fn set_id(&mut self, set: &llstar_core::TokenSet) -> usize {
        let key: Vec<u32> = set.iter().map(|t| t.0).collect();
        if let Some(&id) = self.set_ids.get(&key) {
            return id;
        }
        let id = self.sets.len();
        self.set_ids.insert(key.clone(), id);
        self.sets.push(key);
        id
    }

    fn emit_expected_sets(&self, w: &mut CodeWriter) {
        w.blank();
        w.line("/// Deduplicated expected-token sets (ascending token types),");
        w.line("/// indexed by the ids baked into the recovery call sites.");
        let entries: Vec<String> = self
            .sets
            .iter()
            .map(|s| {
                let items: Vec<String> = s.iter().map(|t| t.to_string()).collect();
                format!("&[{}]", items.join(", "))
            })
            .collect();
        w.line(&format!("static EXPECTED_SETS: &[&[u32]] = &[{}];", entries.join(", ")));
    }

    fn emit_parser_struct(&self, w: &mut CodeWriter) {
        w.line("enum Memo { Stop(usize), Fail(Error) }");
        w.blank();
        w.line("/// Outcome of a recovery-aware terminal match (`expect_r`).");
        w.open("enum Matched {");
        w.line("/// The expected token, matched normally.");
        w.line("Tok(Token),");
        w.line("/// Single-token deletion: the extraneous token, then the match.");
        w.line("Del(Token, Token),");
        w.line("/// Single-token insertion: the synthesized token type.");
        w.line("Ins(u32),");
        w.line("/// Sync-and-return: the tokens skipped resynchronizing.");
        w.line("Out(Vec<Token>),");
        w.close("}");
        w.blank();
        w.line("/// The generated recursive-descent LL(*) parser.");
        w.open("pub struct Parser<'h, H: Hooks> {");
        w.line("tokens: Vec<Token>,");
        w.line("pos: usize,");
        w.line("speculating: u32,");
        w.line("memo: std::collections::HashMap<(u32, usize), Memo>,");
        w.line("hooks: &'h mut H,");
        w.line("/// Error recovery enabled (see `enable_recovery`).");
        w.line("recovering: bool,");
        w.line("/// Cap on recorded diagnostics; exceeding it aborts the parse.");
        w.line("max_errors: usize,");
        w.line("/// Error condition: set on report, cleared when a real token");
        w.line("/// matches; while set, follow-up repairs at the same corruption");
        w.line("/// site run silently (ANTLR's cascade suppression).");
        w.line("in_error_mode: bool,");
        w.line("errors: Vec<Diag>,");
        w.line("/// `EXPECTED_SETS` ids of the follow states of every rule");
        w.line("/// invocation on the call stack (the dynamic resync set).");
        w.line("follow: Vec<usize>,");
        w.line("/// Side channel from a failing predictor to `recover_nv`:");
        w.line("/// (offending token index, decision expected-set id).");
        w.line("nv: Option<(usize, usize)>,");
        w.line("/// ANTLR's `lastErrorIndex` failsafe: position of the last");
        w.line("/// zero-consumption repair; a repeat at the same position");
        w.line("/// force-consumes one token so loops cannot spin.");
        w.line("last_err_idx: usize,");
        if self.coverage {
            w.line("/// Coverage counters accumulated by this parser.");
            w.line("pub cov: Coverage,");
            w.line("/// DFA path of the in-flight depth-0 prediction.");
            w.line("cov_path: Vec<u32>,");
            w.line("/// Decisions with a prediction in flight (innermost last);");
            w.line("/// failed predictions leave deterministic dangling entries,");
            w.line("/// popped through by the next enclosing successful stop —");
            w.line("/// exactly the interpreter fold's rule.");
            w.line("cov_stack: Vec<u32>,");
        }
        if self.metrics {
            w.line("/// Metric counters accumulated by this parser.");
            w.line("pub met: Metrics,");
        }
        if self.instrument() {
            w.line("/// Tokens matched by the most recent syntactic-predicate");
            w.line("/// evaluation (failures report 0).");
            w.line("last_spec: u64,");
        }
        w.close("}");
        w.blank();
        w.open("impl<'h, H: Hooks> Parser<'h, H> {");
        w.line("/// Creates a parser over a token buffer ending in EOF.");
        w.open("pub fn new(tokens: Vec<Token>, hooks: &'h mut H) -> Self {");
        let mut extra_init = String::new();
        if self.coverage {
            extra_init
                .push_str(", cov: Coverage::new(), cov_path: Vec::new(), cov_stack: Vec::new()");
        }
        if self.metrics {
            extra_init.push_str(", met: Metrics::new()");
        }
        if self.instrument() {
            extra_init.push_str(", last_spec: 0");
        }
        w.line(&format!("Parser {{ tokens, pos: 0, speculating: 0, memo: std::collections::HashMap::new(), hooks, recovering: false, max_errors: 0, in_error_mode: false, errors: Vec::new(), follow: Vec::new(), nv: None, last_err_idx: usize::MAX{extra_init} }}"));
        w.close("}");
        if self.coverage {
            w.blank();
            w.line("/// Finishes a successful prediction of `d`: pops the decision");
            w.line("/// stack through dangling entries, then (outside speculation)");
            w.line("/// credits the walked DFA path, the lookahead histogram, and");
            w.line("/// the prediction/backtrack totals. Returns `alt` so predictor");
            w.line("/// return sites stay expressions.");
            w.open("fn cov_stop(&mut self, d: usize, alt: u16, depth: u64, backtracked: bool, spec: u64) -> u16 {");
            w.open("while let Some(top) = self.cov_stack.pop() {");
            w.line("if top as usize == d { break; }");
            w.close("}");
            w.open("if self.speculating == 0 {");
            w.line("let cov = &mut self.cov.decisions[d];");
            w.open("for &s in &self.cov_path {");
            w.line("if let Some(slot) = cov.states.get_mut(s as usize) { *slot += 1; }");
            w.close("}");
            w.open("for pair in self.cov_path.windows(2) {");
            w.line("if let Ok(i) = COV_EDGES[d].binary_search(&(pair[0], pair[1])) { cov.edge_hits[i] += 1; }");
            w.close("}");
            w.line("*cov.lookahead.entry(depth.max(1).max(spec)).or_insert(0) += 1;");
            w.line("cov.predictions += 1;");
            w.line("if backtracked { cov.backtracks += 1; }");
            w.close("}");
            w.line("alt");
            w.close("}");
            w.blank();
            w.line("/// Credits one memo hit/miss to the innermost in-flight");
            w.line("/// prediction, or to the unattributed bucket.");
            w.open("fn cov_memo(&mut self, hit: bool) {");
            w.open("match self.cov_stack.last() {");
            w.open("Some(&d) => {");
            w.line("let memo = &mut self.cov.decisions[d as usize].memo;");
            w.line("if hit { memo.0 += 1; } else { memo.1 += 1; }");
            w.close("}");
            w.open("None => {");
            w.line("let memo = &mut self.cov.memo_unattributed;");
            w.line("if hit { memo.0 += 1; } else { memo.1 += 1; }");
            w.close("}");
            w.close("}");
            w.close("}");
            w.blank();
            w.line("/// Credits a non-speculative rule completion via 1-based `alt`");
            w.line("/// (`0` only for single-alternative rules and recovery returns;");
            w.line("/// the latter are not counted).");
            w.open("fn cov_rule(&mut self, rid: usize, alt: u16) {");
            w.line("let counts = &mut self.cov.rules[rid];");
            w.line("let idx = if counts.len() == 1 { 0 } else if alt >= 1 { alt as usize - 1 } else { return };");
            w.line("if let Some(slot) = counts.get_mut(idx) { *slot += 1; }");
            w.close("}");
        }
        if self.metrics {
            w.blank();
            w.line("/// Folds one completed prediction of `d` into the metric");
            w.line("/// counters: all speculation depths count (the prediction");
            w.line("/// sequence is engine-invariant, so this matches the");
            w.line("/// interpreter's `record_predict` byte-for-byte). Returns");
            w.line("/// `alt` so predictor return sites stay expressions.");
            w.open("fn met_stop(&mut self, d: usize, alt: u16, depth: u64, backtracked: bool, spec: u64) -> u16 {");
            w.line("let la = depth.max(1).max(spec);");
            w.line("let m = &mut self.met.decisions[d];");
            w.line("m.events += 1;");
            w.line("m.la_sum += la;");
            w.line("m.la_max = m.la_max.max(la);");
            w.line("m.backtracks += backtracked as u64;");
            w.line("m.spec_sum += spec;");
            w.line("m.hist[met_bucket(la, 32)] += 1;");
            w.line("alt");
            w.close("}");
        }
        w.blank();
        w.line("/// Enables error recovery: syntax errors are repaired and");
        w.line("/// collected (up to `max_errors`) instead of aborting.");
        w.open("pub fn enable_recovery(&mut self, max_errors: usize) {");
        w.line("self.recovering = true;");
        w.line("self.max_errors = max_errors;");
        w.close("}");
        w.blank();
        w.line("/// Diagnostics recorded by recovery, in input order.");
        w.open("pub fn take_errors(&mut self) -> Vec<Diag> {");
        w.line("std::mem::take(&mut self.errors)");
        w.close("}");
        w.blank();
        w.open("fn la(&self, i: usize) -> u32 {");
        w.line("self.tokens[(self.pos + i - 1).min(self.tokens.len() - 1)].ttype");
        w.close("}");
        w.blank();
        w.line("/// Fused parser token-class of the lookahead (stamped by");
        w.line("/// `tokenize`; saturates at EOF like `la`).");
        w.open("fn lc(&self, i: usize) -> usize {");
        w.line("self.tokens[(self.pos + i - 1).min(self.tokens.len() - 1)].class as usize");
        w.close("}");
        w.blank();
        w.open("fn err_at(&self, offset: usize, message: String) -> Error {");
        w.line("let t = self.tokens[(self.pos + offset).min(self.tokens.len() - 1)];");
        w.line("Error { line: t.line, col: t.col, message }");
        w.close("}");
        w.blank();
        w.open("fn expect(&mut self, ttype: u32, name: &str) -> Result<Token, Error> {");
        w.open("if self.la(1) == ttype {");
        w.line("let t = self.tokens[self.pos.min(self.tokens.len() - 1)];");
        w.line("if self.pos + 1 < self.tokens.len() { self.pos += 1; }");
        w.line("Ok(t)");
        w.close("}");
        w.open("else {");
        w.line("Err(self.err_at(0, format!(\"expected {name}\")))");
        w.close("}");
        w.close("}");
        w.blank();
        w.open("fn consume(&mut self) -> Token {");
        w.line("let t = self.tokens[self.pos.min(self.tokens.len() - 1)];");
        w.line("if self.pos + 1 < self.tokens.len() { self.pos += 1; }");
        w.line("t");
        w.close("}");
        w.blank();
        w.line("/// Whether `t` belongs to the dynamic resynchronization set:");
        w.line("/// the union of expected sets over the follow states of every");
        w.line("/// rule invocation on the call stack, plus EOF.");
        w.open("fn in_resync(&self, t: u32) -> bool {");
        w.line("if t == 0 { return true; }");
        w.line("self.follow.iter().any(|&f| EXPECTED_SETS[f].contains(&t))");
        w.close("}");
        w.blank();
        w.line("/// Records a diagnostic, or fails the parse when `max_errors`");
        w.line("/// is reached. Reports are suppressed while the error condition");
        w.line("/// is set (no token matched since the last report).");
        w.open("fn report(&mut self, d: Diag, e: Error, rid: u32) -> Result<(), Error> {");
        w.line("if self.in_error_mode { return Ok(()); }");
        w.line("if self.errors.len() >= self.max_errors { return Err(e); }");
        if self.trace {
            w.line("self.hooks.trace(\"recover\", rid, self.pos);");
        } else {
            w.line("let _ = rid;");
        }
        w.line("self.errors.push(d);");
        w.line("self.in_error_mode = true;");
        w.line("Ok(())");
        w.close("}");
        w.blank();
        w.line("/// Consumes tokens until the resynchronization set (or EOF).");
        w.open("fn sync(&mut self) -> Vec<Token> {");
        if self.trace {
            w.line("let start = self.pos;");
        }
        w.line("let mut skipped = Vec::new();");
        w.open("loop {");
        w.line("let la = self.la(1);");
        w.line("if la == 0 || self.in_resync(la) { break; }");
        w.line("skipped.push(self.consume());");
        w.close("}");
        if self.trace {
            w.line("self.hooks.trace(\"sync-skip\", skipped.len() as u32, start);");
        }
        w.line("skipped");
        w.close("}");
        w.blank();
        w.line("/// Recovery-aware terminal match: on mismatch (outside");
        w.line("/// speculation), reports a diagnostic and repairs by");
        w.line("/// single-token deletion (`la(2)` matches), single-token");
        w.line("/// insertion (`la(1)` is in the successor state's expected");
        w.line("/// set `succ`), or sync-and-return.");
        w.open("fn expect_r(&mut self, ttype: u32, name: &str, succ: usize, rid: u32) -> Result<Matched, Error> {");
        w.open("if self.la(1) == ttype {");
        w.line("let t = self.consume();");
        w.line("if self.speculating == 0 { self.in_error_mode = false; }");
        w.line("return Ok(Matched::Tok(t));");
        w.close("}");
        w.line("let e = self.err_at(0, format!(\"expected {name}\"));");
        w.line("if !self.recovering || self.speculating > 0 { return Err(e); }");
        w.line("let t = self.tokens[self.pos.min(self.tokens.len() - 1)];");
        w.line("let found = TOKEN_NAMES[t.ttype as usize];");
        w.line("let d = Diag { kind: \"mismatch\", line: t.line, col: t.col, start: t.start, end: t.end, found: found.to_string(), expected: vec![name.to_string()], message: format!(\"expected {name}, found {found}\") };");
        w.line("self.report(d, e, rid)?;");
        w.open("if self.la(2) == ttype {");
        w.line("let bad = self.consume();");
        if self.trace {
            w.line("self.hooks.trace(\"token-deleted\", bad.ttype, self.pos - 1);");
        }
        w.open("if self.la(1) == ttype {");
        w.line("let tok = self.consume();");
        w.line("if self.speculating == 0 { self.in_error_mode = false; }");
        w.line("return Ok(Matched::Del(bad, tok));");
        w.close("}");
        w.line("// The deletion guess was wrong; resynchronize, keeping the");
        w.line("// deleted token in the error node.");
        w.line("let mut skipped = vec![bad];");
        w.line("skipped.extend(self.sync());");
        w.line("return Ok(Matched::Out(skipped));");
        w.close("}");
        w.open("if EXPECTED_SETS[succ].contains(&self.la(1)) {");
        if self.trace {
            w.line("self.hooks.trace(\"token-inserted\", ttype, self.pos);");
        }
        w.line("return Ok(Matched::Ins(ttype));");
        w.close("}");
        w.line("// Sync-and-return, with the `lastErrorIndex` failsafe: a");
        w.line("// second zero-consumption resync at the same position");
        w.line("// force-consumes one token so loops cannot spin.");
        w.line("let start = self.pos;");
        w.line("let mut skipped = Vec::new();");
        w.open("if self.last_err_idx == start && self.la(1) != 0 && self.in_resync(self.la(1)) {");
        w.line("skipped.push(self.consume());");
        w.close("}");
        w.line("skipped.extend(self.sync());");
        w.line("if skipped.is_empty() { self.last_err_idx = start; }");
        w.line("Ok(Matched::Out(skipped))");
        w.close("}");
        w.blank();
        w.line("/// Builds a no-viable-alternative error at lookahead depth `i`,");
        w.line("/// leaving the offender and the decision's expected set for");
        w.line("/// `recover_nv` (the message matches the strict engine).");
        w.open("fn nv_err(&mut self, i: usize, dset: usize, message: &str) -> Error {");
        w.line("let idx = (self.pos + i).min(self.tokens.len() - 1);");
        w.line("self.nv = Some((idx, dset));");
        w.line("let t = self.tokens[idx];");
        w.line("Error { line: t.line, col: t.col, message: message.to_string() }");
        w.close("}");
        w.blank();
        w.line("/// Repairs a failed prediction: consume until either a token");
        w.line("/// in the decision's expected set appears (`(true, skipped)` —");
        w.line("/// retry the decision) or a resynchronization token appears");
        w.line("/// (`(false, skipped)` — return from the rule partially).");
        w.open(
            "fn recover_nv(&mut self, e: Error, rid: u32) -> Result<(bool, Vec<Token>), Error> {",
        );
        w.line("if !self.recovering || self.speculating > 0 { return Err(e); }");
        w.line("let (idx, dset) = match self.nv.take() { Some(v) => v, None => return Err(e) };");
        w.line("let t = self.tokens[idx];");
        w.line("let d = Diag { kind: \"no-viable\", line: t.line, col: t.col, start: t.start, end: t.end, found: TOKEN_NAMES[t.ttype as usize].to_string(), expected: EXPECTED_SETS[dset].iter().map(|&tt| TOKEN_NAMES[tt as usize].to_string()).collect(), message: e.message.clone() };");
        w.line("self.report(d, e, rid)?;");
        w.line("// Already synchronized: return from the rule without");
        w.line("// consuming (consuming a token the caller expects would");
        w.line("// cascade errors). Exception: a second zero-consumption");
        w.line("// repair at the same position force-consumes one token");
        w.line("// (the `lastErrorIndex` failsafe) so an enclosing loop");
        w.line("// cannot spin on the failing rule forever.");
        w.line("let la1 = self.la(1);");
        w.open("if la1 == 0 || self.in_resync(la1) {");
        w.open("if self.last_err_idx == self.pos && la1 != 0 {");
        w.line("let skipped = vec![self.consume()];");
        if self.trace {
            w.line("self.hooks.trace(\"sync-skip\", 1, self.pos - 1);");
        }
        w.line("return Ok((false, skipped));");
        w.close("}");
        w.line("self.last_err_idx = self.pos;");
        if self.trace {
            w.line("self.hooks.trace(\"sync-skip\", 0, self.pos);");
        }
        w.line("return Ok((false, Vec::new()));");
        w.close("}");
        w.line("// Otherwise the offending token is consumed unconditionally");
        w.line("// — every repair makes progress.");
        if self.trace {
            w.line("let start = self.pos;");
        }
        w.line("let mut skipped = vec![self.consume()];");
        w.open("loop {");
        w.line("let la = self.la(1);");
        w.open("if EXPECTED_SETS[dset].contains(&la) {");
        if self.trace {
            w.line("self.hooks.trace(\"sync-skip\", skipped.len() as u32, start);");
        }
        w.line("return Ok((true, skipped));");
        w.close("}");
        w.open("if la == 0 || self.in_resync(la) {");
        if self.trace {
            w.line("self.hooks.trace(\"sync-skip\", skipped.len() as u32, start);");
        }
        w.line("return Ok((false, skipped));");
        w.close("}");
        w.line("skipped.push(self.consume());");
        w.close("}");
        w.close("}");
        w.blank();
        w.line("/// Repairs a failed gating predicate in a rule body: report,");
        w.line("/// consume at least the offending token (when not at EOF), skip");
        w.line("/// to the resynchronization set, and return from the rule. At");
        w.line("/// least one token is always consumed so an enclosing loop that");
        w.line("/// re-enters the rule cannot spin on the same gate forever. A");
        w.line("/// syntactic predicate starting an alternative of a");
        w.line("/// multi-alternative rule or block is no such gate: its predictor");
        w.line("/// owns it.");
        w.open("fn recover_gate(&mut self, d: Diag, e: Error, rid: u32) -> Result<Vec<Token>, Error> {");
        w.line("self.report(d, e, rid)?;");
        if self.trace {
            w.line("let start = self.pos;");
        }
        w.line("let mut skipped = Vec::new();");
        w.open("if self.la(1) != 0 {");
        w.line("skipped.push(self.consume());");
        w.open("loop {");
        w.line("let la = self.la(1);");
        w.line("if la == 0 || self.in_resync(la) { break; }");
        w.line("skipped.push(self.consume());");
        w.close("}");
        w.close("}");
        if self.trace {
            w.line("self.hooks.trace(\"sync-skip\", skipped.len() as u32, start);");
        }
        w.line("Ok(skipped)");
        w.close("}");
        w.close("}");
        w.blank();
    }

    /// Emits the recovery tail of a failed body gate: build the
    /// predicate diagnostic at the current token (byte-identical to the
    /// interpreter's), resynchronize, and return from the rule with an
    /// error node. `strict_err` is the expression producing the strict
    /// engine's `Error`.
    fn emit_gate_recovery(&mut self, w: &mut CodeWriter, strict_err: &str, diag_message: &str) {
        let rid = self.current_rule;
        w.line(&format!("let __e = {strict_err};"));
        w.line("if !self.recovering || self.speculating > 0 { return Err(__e); }");
        w.line("let __t = self.tokens[self.pos.min(self.tokens.len() - 1)];");
        w.line(&format!(
            "let __d = Diag {{ kind: \"predicate\", line: __t.line, col: __t.col, \
             start: __t.start, end: __t.end, \
             found: TOKEN_NAMES[__t.ttype as usize].to_string(), expected: Vec::new(), \
             message: {diag_message:?}.to_string() }};"
        ));
        w.line(&format!("let __skipped = self.recover_gate(__d, __e, {rid})?;"));
        w.line("children.push(Tree::Error { tokens: __skipped, inserted: None });");
        w.line(&format!("return Ok(Tree::Rule {{ rule: {rid}, alt, children }});"));
    }

    fn rule_fn_name(&self, idx: usize) -> String {
        format!("parse_{}", self.grammar.rules[idx].name)
    }

    fn emit_rule(
        &mut self,
        w: &mut CodeWriter,
        rule: &llstar_grammar::Rule,
        cursor: &mut DecisionCursor<'_>,
    ) {
        let name = self.rule_fn_name(rule.id.index());
        let rid = rule.id.index();
        w.blank();
        w.line(&format!("/// Parses rule `{}` (memoized while speculating).", rule.name));
        w.open(&format!("pub fn {name}(&mut self) -> Result<Tree, Error> {{"));
        w.line("let start = self.pos;");
        if self.trace {
            w.line(&format!("self.hooks.trace(\"rule-enter\", {rid}, start);"));
        }
        w.open("if self.speculating > 0 {");
        w.open(&format!("match self.memo.get(&({rid}, start)) {{"));
        let mut hit = String::new();
        if self.trace {
            hit.push_str(&format!("self.hooks.trace(\"memo-hit\", {rid}, start); "));
        }
        if self.met_memo {
            hit.push_str("self.met.memo_hits += 1; ");
        }
        if self.count_memo {
            hit.push_str("self.cov_memo(true); ");
        }
        // Memoized early returns still balance the rule-enter/exit pair
        // so a span fold over the trace stream stays well-nested.
        let exit_ok = if self.trace {
            format!("self.hooks.trace(\"rule-exit\", {rid}, stop); ")
        } else {
            String::new()
        };
        let exit_fail = if self.trace {
            format!("self.hooks.trace(\"rule-fail\", {rid}, start); ")
        } else {
            String::new()
        };
        if hit.is_empty() {
            w.line(&format!(
                "Some(Memo::Stop(stop)) => {{ self.pos = *stop; return Ok(Tree::Rule {{ rule: {rid}, alt: 0, children: Vec::new() }}); }}"
            ));
            w.line("Some(Memo::Fail(e)) => return Err(e.clone()),");
        } else {
            // The memo borrow is copied out before the counter helpers
            // retake `&mut self`.
            w.line(&format!(
                "Some(Memo::Stop(stop)) => {{ let stop = *stop; {hit}{exit_ok}self.pos = stop; return Ok(Tree::Rule {{ rule: {rid}, alt: 0, children: Vec::new() }}); }}"
            ));
            w.line(&format!(
                "Some(Memo::Fail(e)) => {{ let e = e.clone(); {hit}{exit_fail}return Err(e); }}"
            ));
        }
        w.line("None => {}");
        w.close("}");
        w.close("}");
        w.line(&format!("let result = self.{name}_body();"));
        w.open("if self.speculating > 0 {");
        w.open("let entry = match &result {");
        w.line("Ok(_) => Memo::Stop(self.pos),");
        w.line("Err(e) => Memo::Fail(e.clone()),");
        w.close("};");
        if self.met_memo {
            w.line("self.met.memo_entries += 1;");
        }
        if self.count_memo {
            w.line("self.cov_memo(false);");
        }
        w.line(&format!("self.memo.insert(({rid}, start), entry);"));
        w.close("}");
        if self.coverage {
            w.open("if self.speculating == 0 {");
            w.line(&format!(
                "if let Ok(Tree::Rule {{ alt: __a, .. }}) = &result {{ self.cov_rule({rid}, *__a); }}"
            ));
            w.close("}");
        }
        if self.trace {
            w.open("match &result {");
            w.line(&format!("Ok(_) => self.hooks.trace(\"rule-exit\", {rid}, self.pos),"));
            w.line(&format!("Err(_) => self.hooks.trace(\"rule-fail\", {rid}, self.pos),"));
            w.close("}");
        }
        w.line("result");
        w.close("}");
        w.blank();
        w.open(&format!("fn {name}_body(&mut self) -> Result<Tree, Error> {{"));
        // Sized like the interpreter's rule nodes, so both engines
        // allocate the same.
        let min = self.analysis.atn.min_children[rid];
        w.line(&format!("let mut children: Vec<Tree> = Vec::with_capacity({min});"));
        w.line("let mut alt: u16 = 0;");
        self.current_rule = rid;
        if rule.alts.len() > 1 {
            let d = cursor.take(DecisionKind::RuleAlts);
            self.used_decisions.push(d);
            self.emit_predict_binding(w, d, "alt =");
            w.open("match alt {");
            self.emit_alt_arms(w, d, &rule.alts, cursor);
            w.line("_ => unreachable!(\"predictor returned an unknown alternative\"),");
            w.close("}");
        } else {
            let a = rule.alts.first().expect("validated rules have alternatives");
            self.emit_sequence(w, &a.elements, cursor);
        }
        w.line(&format!("Ok(Tree::Rule {{ rule: {}, alt, children }})", rule.id.index()));
        w.close("}");
    }

    fn emit_synpred(
        &mut self,
        w: &mut CodeWriter,
        idx: usize,
        frag: &Alt,
        cursor: &mut DecisionCursor<'_>,
    ) {
        let memo_key = self.grammar.rules.len() + idx;
        w.blank();
        w.line(&format!("/// Syntactic predicate {idx}: speculative match, rewinds."));
        w.open(&format!("fn synpred_{idx}(&mut self) -> bool {{"));
        w.line("let start = self.pos;");
        let trace_hit = if self.trace {
            format!("self.hooks.trace(\"memo-hit\", {idx}, start); ")
        } else {
            String::new()
        };
        let mut memo_hit = String::new();
        if self.met_memo {
            memo_hit.push_str("self.met.memo_hits += 1; ");
        }
        if self.count_memo {
            memo_hit.push_str("self.cov_memo(true); ");
        }
        w.open(&format!("match self.memo.get(&({memo_key}, start)) {{"));
        if self.instrument() {
            w.line(&format!(
                "Some(Memo::Stop(stop)) => {{ let stop = *stop; {trace_hit}{memo_hit}self.last_spec = (stop - start) as u64; return true; }}"
            ));
            w.line(&format!(
                "Some(Memo::Fail(_)) => {{ {trace_hit}{memo_hit}self.last_spec = 0; return false; }}"
            ));
        } else if self.trace {
            w.line(&format!("Some(Memo::Stop(_)) => {{ {trace_hit}return true; }}"));
            w.line(&format!("Some(Memo::Fail(_)) => {{ {trace_hit}return false; }}"));
        } else {
            w.line("Some(Memo::Stop(_)) => return true,");
            w.line("Some(Memo::Fail(_)) => return false,");
        }
        w.line("None => {}");
        w.close("}");
        if self.trace {
            w.line(&format!("self.hooks.trace(\"backtrack-enter\", {idx}, start);"));
        }
        w.line("self.speculating += 1;");
        w.line(&format!("let result = self.synpred_{idx}_body();"));
        w.line("self.speculating -= 1;");
        w.line("let stop = self.pos;");
        w.line("self.pos = start;");
        if self.instrument() {
            // Only a match counts toward the speculation depth, as in the
            // interpreter's `eval_synpred`.
            w.line("self.last_spec = if result.is_ok() { (stop - start) as u64 } else { 0 };");
        }
        w.open("let entry = match &result {");
        w.line("Ok(()) => Memo::Stop(stop),");
        w.line("Err(e) => Memo::Fail(e.clone()),");
        w.close("};");
        if self.met_memo {
            w.line("self.met.memo_entries += 1;");
        }
        if self.count_memo {
            w.line("self.cov_memo(false);");
        }
        w.line(&format!("self.memo.insert(({memo_key}, start), entry);"));
        if self.trace {
            w.line(&format!("self.hooks.trace(\"backtrack-exit\", {idx}, start);"));
        }
        w.line("result.is_ok()");
        w.close("}");
        w.blank();
        w.open(&format!("fn synpred_{idx}_body(&mut self) -> Result<(), Error> {{"));
        w.line("let mut children: Vec<Tree> = Vec::new();");
        // The fragment submachine has a single alternative. Recovery
        // never engages while speculating, so fragment bodies emit the
        // plain strict forms.
        self.in_fragment = true;
        self.emit_sequence(w, &frag.elements, cursor);
        self.in_fragment = false;
        w.line("let _ = children;");
        w.line("Ok(())");
        w.close("}");
    }

    /// Emits `{binding} <predicted alt>;` for decision `d`: the predictor
    /// call wrapped in the no-viable recovery loop — resynchronize and
    /// either retry the decision or return partially from the rule. In
    /// fragment bodies (speculation) the plain propagating call is
    /// emitted instead.
    fn emit_predict_binding(&mut self, w: &mut CodeWriter, d: usize, binding: &str) {
        if self.in_fragment {
            w.line(&format!("{binding} self.predict_{d}()?;"));
            return;
        }
        let rid = self.current_rule;
        w.open(&format!("{binding} loop {{"));
        w.open(&format!("match self.predict_{d}() {{"));
        w.line("Ok(__a) => break __a,");
        w.open("Err(__e) => {");
        w.line(&format!("let (__retry, __skipped) = self.recover_nv(__e, {rid})?;"));
        w.line("children.push(Tree::Error { tokens: __skipped, inserted: None });");
        w.open("if !__retry {");
        w.line(&format!("return Ok(Tree::Rule {{ rule: {rid}, alt, children }});"));
        w.close("}");
        w.close("}");
        w.close("}");
        w.close("};");
    }

    /// Emits one `match` arm per alternative of decision `d`. A left-edge
    /// syntactic predicate that the ATN marks as a prediction gate
    /// belongs to the predictor, which has already evaluated it or
    /// proved it unneeded, so nothing is emitted for it.
    fn emit_alt_arms(
        &mut self,
        w: &mut CodeWriter,
        d: usize,
        alts: &[Alt],
        cursor: &mut DecisionCursor<'_>,
    ) {
        let analysis = self.analysis;
        let atn = &analysis.atn;
        let dstate = atn.decisions[d].state;
        for (i, a) in alts.iter().enumerate() {
            let left = atn.states[dstate].edges[i].1;
            let skip = usize::from(atn.prediction_gate[left]);
            w.open(&format!("{} => {{", i + 1));
            self.emit_sequence(w, &a.elements[skip..], cursor);
            w.close("}");
        }
    }

    fn emit_sequence(
        &mut self,
        w: &mut CodeWriter,
        elements: &[Element],
        cursor: &mut DecisionCursor<'_>,
    ) {
        for e in elements {
            self.emit_element(w, e, cursor);
        }
    }

    fn emit_element(&mut self, w: &mut CodeWriter, e: &Element, cursor: &mut DecisionCursor<'_>) {
        match e {
            Element::Token(t) => {
                let name = self.grammar.vocab.display_name(*t);
                // The ATN recorded one (from, to) pair per token element,
                // in this exact emission order; `to`'s expected set is the
                // single-token-insertion viability test.
                let (_, to) = self.analysis.atn.token_sites[self.token_site];
                self.token_site += 1;
                if self.in_fragment {
                    w.line(&format!(
                        "children.push(Tree::Leaf(self.expect({}, {:?})?));",
                        t.0, name
                    ));
                } else {
                    let succ = self.set_id(self.analysis.recovery.expected_at(to));
                    let rid = self.current_rule;
                    w.open(&format!("match self.expect_r({}, {:?}, {succ}, {rid})? {{", t.0, name));
                    w.line("Matched::Tok(__t) => children.push(Tree::Leaf(__t)),");
                    w.open("Matched::Del(__bad, __t) => {");
                    w.line("children.push(Tree::Error { tokens: vec![__bad], inserted: None });");
                    w.line("children.push(Tree::Leaf(__t));");
                    w.close("}");
                    w.line(
                        "Matched::Ins(__tt) => children.push(Tree::Error { tokens: Vec::new(), inserted: Some(__tt) }),",
                    );
                    w.open("Matched::Out(__skipped) => {");
                    w.line("children.push(Tree::Error { tokens: __skipped, inserted: None });");
                    w.line(&format!("return Ok(Tree::Rule {{ rule: {rid}, alt, children }});"));
                    w.close("}");
                    w.close("}");
                }
            }
            Element::Rule(r) => {
                // One follow state per rule invocation, same order
                // invariant as `token_sites`.
                let follow = self.analysis.atn.call_sites[self.call_site];
                self.call_site += 1;
                if self.in_fragment {
                    w.line(&format!("children.push(self.{}()?);", self.rule_fn_name(r.index())));
                } else {
                    let fid = self.set_id(self.analysis.recovery.expected_at(follow));
                    w.line(&format!("self.follow.push({fid});"));
                    w.line(&format!("let __sub = self.{}();", self.rule_fn_name(r.index())));
                    w.line("self.follow.pop();");
                    w.line("children.push(__sub?);");
                }
            }
            Element::SemPred(p) => {
                let text = self.grammar.sempred_text(*p).to_string();
                w.open(&format!("if !self.hooks.sempred({}, {:?}, self.pos) {{", p.0, text));
                let strict =
                    format!("self.err_at(0, format!(\"predicate {{}} failed\", {:?}))", text);
                if self.in_fragment {
                    w.line(&format!("return Err({strict});"));
                } else {
                    let msg = format!("semantic predicate {{{text}}}? failed");
                    self.emit_gate_recovery(w, &strict, &msg);
                }
                w.close("}");
            }
            Element::SynPred(sp) => {
                w.open(&format!("if !self.synpred_{}() {{", sp.0));
                let strict =
                    format!("self.err_at(0, \"syntactic predicate {} failed\".to_string())", sp.0);
                if self.in_fragment {
                    w.line(&format!("return Err({strict});"));
                } else {
                    let msg = format!("semantic predicate {{synpred{}}}? failed", sp.0);
                    self.emit_gate_recovery(w, &strict, &msg);
                }
                w.close("}");
            }
            Element::NotSynPred(sp) => {
                w.open(&format!("if self.synpred_{}() {{", sp.0));
                let strict = format!(
                    "self.err_at(0, \"negated syntactic predicate {} failed\".to_string())",
                    sp.0
                );
                if self.in_fragment {
                    w.line(&format!("return Err({strict});"));
                } else {
                    let msg = format!("semantic predicate {{!synpred{}}}? failed", sp.0);
                    self.emit_gate_recovery(w, &strict, &msg);
                }
                w.close("}");
            }
            Element::Action { id, always } => {
                let text = self.grammar.action_text(*id);
                let guard =
                    if *always { "".to_string() } else { "if self.speculating == 0 ".to_string() };
                w.open(&format!("{guard}{{"));
                w.line(&format!("self.hooks.action({}, {:?}, self.pos);", id.0, text));
                w.close("}");
            }
            Element::Block(b) => self.emit_block(w, b, cursor),
        }
    }

    fn emit_block(&mut self, w: &mut CodeWriter, b: &Block, cursor: &mut DecisionCursor<'_>) {
        match b.ebnf {
            Ebnf::None => {
                if b.alts.len() == 1 {
                    self.emit_sequence(w, &b.alts[0].elements, cursor);
                } else {
                    let d = cursor.take(DecisionKind::Block);
                    self.used_decisions.push(d);
                    self.emit_predict_binding(w, d, &format!("let __alt_{d} ="));
                    w.open(&format!("match __alt_{d} {{"));
                    self.emit_alt_arms(w, d, &b.alts, cursor);
                    w.line("_ => unreachable!(),");
                    w.close("}");
                }
            }
            Ebnf::Optional => {
                let d = cursor.take(DecisionKind::Optional);
                self.used_decisions.push(d);
                let exit = b.alts.len() + 1;
                self.emit_predict_binding(w, d, &format!("let __alt_{d} ="));
                w.open(&format!("match __alt_{d} {{"));
                self.emit_alt_arms(w, d, &b.alts, cursor);
                w.line(&format!("{exit} => {{}} // skip"));
                w.line("_ => unreachable!(),");
                w.close("}");
            }
            Ebnf::Star => {
                let d = cursor.take(DecisionKind::Star);
                self.used_decisions.push(d);
                let exit = b.alts.len() + 1;
                w.open("loop {");
                w.line("let before = self.pos;");
                self.emit_predict_binding(w, d, &format!("let __alt_{d} ="));
                w.open(&format!("match __alt_{d} {{"));
                self.emit_alt_arms(w, d, &b.alts, cursor);
                w.line(&format!("{exit} => break,"));
                w.line("_ => unreachable!(),");
                w.close("}");
                w.line("if self.pos == before { break; } // ε-body guard");
                w.close("}");
            }
            Ebnf::Plus => {
                // Entry block decision first (if multiple alternatives),
                // then the loop-back decision — the ATN builder's order.
                let entry_d = if b.alts.len() > 1 {
                    let d = cursor.take(DecisionKind::Block);
                    self.used_decisions.push(d);
                    Some(d)
                } else {
                    None
                };
                w.open("loop {");
                w.line("let before = self.pos;");
                if let Some(d) = entry_d {
                    self.emit_predict_binding(w, d, &format!("let __alt_{d} ="));
                    w.open(&format!("match __alt_{d} {{"));
                    // Inner decisions are emitted for alternative bodies
                    // here; the cursor advances inside.
                    self.emit_alt_arms(w, d, &b.alts, cursor);
                    w.line("_ => unreachable!(),");
                    w.close("}");
                } else {
                    self.emit_sequence(w, &b.alts[0].elements, cursor);
                }
                let d = cursor.take(DecisionKind::PlusLoop);
                self.used_decisions.push(d);
                self.emit_predict_binding(w, d, &format!("let __alt_{d} ="));
                w.line(&format!("if __alt_{d} != 1 {{ break; }}"));
                w.line("if self.pos == before { break; } // ε-body guard");
                w.close("}");
            }
        }
    }

    // -----------------------------------------------------------------
    // Predictors
    // -----------------------------------------------------------------

    fn emit_predictor(&mut self, w: &mut CodeWriter, decision: usize) {
        // The decision state's expected set: the no-viable diagnostic's
        // `expected` list and `recover_nv`'s retry test.
        let dstate = self.analysis.atn.decisions[decision].state;
        let dset = self.set_id(self.analysis.recovery.expected_at(dstate));
        let analysis = &self.analysis.decisions[decision];
        let dfa = &analysis.dfa;
        let rule = self.analysis.atn.decisions[decision].rule;
        let rule_name = &self.grammar.rule(rule).name;
        w.blank();
        w.line(&format!("/// Lookahead DFA for decision {decision} (rule `{rule_name}`)."));
        if self.trace {
            // Traced build: a wrapper reports the prediction outcome and
            // the DFA walk moves into a `_body` helper.
            w.open(&format!("fn predict_{decision}(&mut self) -> Result<u16, Error> {{"));
            w.line(&format!("self.hooks.trace(\"predict-start\", {decision}, self.pos);"));
            w.line(&format!("let result = self.predict_{decision}_body();"));
            w.open("match &result {");
            w.line(&format!("Ok(_) => self.hooks.trace(\"predict-stop\", {decision}, self.pos),"));
            w.line(&format!("Err(_) => self.hooks.trace(\"syntax-error\", {decision}, self.pos),"));
            w.close("}");
            w.line("result");
            w.close("}");
            w.blank();
            w.open(&format!("fn predict_{decision}_body(&mut self) -> Result<u16, Error> {{"));
        } else {
            w.open(&format!("fn predict_{decision}(&mut self) -> Result<u16, Error> {{"));
        }
        if self.coverage {
            // Mirrors the interpreter fold: the decision is pushed before
            // any DFA walking or predicate evaluation (the `predict-start`
            // point), and the shared path buffer is only touched at
            // speculation depth zero.
            w.line(&format!("self.cov_stack.push({decision});"));
            w.line("if self.speculating == 0 { self.cov_path.clear(); self.cov_path.push(0); }");
        }
        if self.instrument() {
            w.line("let mut __bt = false;");
            w.line("let mut __spec = 0u64;");
        }
        w.line("let mut s = 0usize;");
        w.line("let mut i = 0usize;");
        w.line("let _ = &mut i;");
        if let Some((_, table)) = self.analysis.tables.get(decision) {
            self.emit_table_predictor_body(w, decision, table, dfa, rule_name, dset);
        } else {
            w.open("loop {");
            w.open("match s {");
            for (sid, st) in dfa.states.iter().enumerate() {
                self.emit_dfa_state(w, decision, sid, st, rule_name, dset);
            }
            w.line("_ => unreachable!(\"generated DFA has no such state\"),");
            w.close("}");
            w.close("}");
        }
        w.close("}");
    }

    /// Emits the table-driven predictor loop: accept check, class-mapped
    /// transition lookup, then (on a miss) predicate arms for the few
    /// states that carry them, the default side table, and the no-viable
    /// error. Semantically identical to the unrolled per-state `match`
    /// (see `emit_dfa_state`) — the parity suites compare the two paths
    /// byte for byte — but dispatch is pure array indexing.
    fn emit_table_predictor_body(
        &self,
        w: &mut CodeWriter,
        decision: usize,
        table: &CompiledDfa,
        dfa: &llstar_core::LookaheadDfa,
        rule_name: &str,
        dset: usize,
    ) {
        w.open("loop {");
        w.line(&format!("let __a = D{decision}_ACCEPT[s];"));
        w.line(&format!(
            "if __a != u16::MAX {{ return {}; }}",
            self.predict_ok_expr(decision, "__a")
        ));
        w.line("let __c = self.lc(i + 1);");
        w.line(&format!("let __t = D{decision}_NEXT[s * {} + __c];", table.num_classes));
        w.open("if __t != u32::MAX {");
        w.line("s = __t as usize;");
        w.line("i += 1;");
        if self.coverage {
            w.line("if self.speculating == 0 { self.cov_path.push(__t); }");
        }
        w.line("continue;");
        w.close("}");
        // Predicate transitions live outside the table: a `match` with
        // arms only for the (rare) states that carry them.
        if dfa.states.iter().any(|st| !st.preds.is_empty()) {
            w.open("match s {");
            for (sid, st) in dfa.states.iter().enumerate() {
                if st.preds.is_empty() {
                    continue;
                }
                w.open(&format!("{sid} => {{"));
                self.emit_state_preds(w, st, decision);
                w.close("}");
            }
            w.line("_ => {}");
            w.close("}");
        }
        w.line(&format!("let __d = D{decision}_DEFAULT[s];"));
        w.line(&format!(
            "if __d != u16::MAX {{ return {}; }}",
            self.predict_ok_expr(decision, "__d")
        ));
        w.line(&format!(
            "return Err(self.nv_err(i, {dset}, \"no viable alternative for rule {rule_name}\"));"
        ));
        w.close("}");
    }

    /// The expression a predictor returns for alternative `alt`: with
    /// coverage, routed through `cov_stop` (which records the path walked
    /// so far and hands `alt` back).
    fn predict_ok(&self, decision: usize, alt: u16) -> String {
        self.predict_ok_expr(decision, &alt.to_string())
    }

    /// [`ParserGen::predict_ok`] for a runtime alternative expression
    /// (the table-driven predictors read `alt` out of a side table).
    /// With both instrumentations on, the recorders nest — each hands
    /// `alt` back, so the return site stays a single expression.
    fn predict_ok_expr(&self, decision: usize, alt: &str) -> String {
        // When both instrumentations are on the calls cannot nest (two
        // overlapping `&mut self` receivers), so the inner result is
        // bound to a local between them.
        match (self.coverage, self.metrics) {
            (false, false) => format!("Ok({alt})"),
            (true, false) => {
                format!("Ok(self.cov_stop({decision}, {alt}, i as u64, __bt, __spec))")
            }
            (false, true) => {
                format!("Ok(self.met_stop({decision}, {alt}, i as u64, __bt, __spec))")
            }
            (true, true) => format!(
                "Ok({{ let __alt = self.cov_stop({decision}, {alt}, i as u64, __bt, __spec); self.met_stop({decision}, __alt, i as u64, __bt, __spec) }})"
            ),
        }
    }

    fn emit_dfa_state(
        &self,
        w: &mut CodeWriter,
        decision: usize,
        sid: usize,
        st: &DfaState,
        rule_name: &str,
        dset: usize,
    ) {
        if let Some(alt) = st.accept {
            w.line(&format!("{sid} => return {},", self.predict_ok(decision, alt)));
            return;
        }
        w.open(&format!("{sid} => {{"));
        if !st.edges.is_empty() {
            w.open("match self.la(i + 1) {");
            for &(tok, target) in &st.edges {
                if self.coverage {
                    w.line(&format!(
                        "{} => {{ s = {target}; i += 1; if self.speculating == 0 {{ self.cov_path.push({target}); }} }}",
                        tok.0
                    ));
                } else {
                    w.line(&format!("{} => {{ s = {target}; i += 1; }}", tok.0));
                }
            }
            w.open("_ => {");
            self.emit_state_fallback(w, st, decision, rule_name, dset);
            w.close("}");
            w.close("}");
        } else {
            self.emit_state_fallback(w, st, decision, rule_name, dset);
        }
        w.close("}");
    }

    /// Emits the predicate/default/error handling reached when no token
    /// edge applies in a DFA state.
    fn emit_state_fallback(
        &self,
        w: &mut CodeWriter,
        st: &DfaState,
        decision: usize,
        rule_name: &str,
        dset: usize,
    ) {
        self.emit_state_preds(w, st, decision);
        if let Some(alt) = st.default_alt {
            w.line(&format!("return {};", self.predict_ok(decision, alt)));
        } else {
            w.line(&format!(
                "return Err(self.nv_err(i, {dset}, \"no viable alternative for rule {rule_name}\"));"
            ));
        }
    }

    /// Emits the predicate transitions of one DFA state, in evaluation
    /// order (shared by the unrolled and table-driven predictors).
    fn emit_state_preds(&self, w: &mut CodeWriter, st: &DfaState, decision: usize) {
        for &(pred, alt) in &st.preds {
            let ok = self.predict_ok(decision, alt);
            match pred {
                PredSource::Sem(p) => {
                    let text = self.grammar.sempred_text(p);
                    w.line(&format!(
                        "if self.hooks.sempred({}, {:?}, self.pos) {{ return {ok}; }}",
                        p.0, text
                    ));
                }
                PredSource::Syn(sp) => {
                    if self.instrument() {
                        // The speculation depth is folded in before the
                        // outcome check, matching the interpreter (failed
                        // speculative parses still deepen the histogram).
                        w.line("__bt = true;");
                        w.line(&format!("let __ok = self.synpred_{}();", sp.0));
                        w.line("__spec = __spec.max(self.last_spec);");
                        w.line(&format!("if __ok {{ return {ok}; }}"));
                    } else {
                        w.line(&format!("if self.synpred_{}() {{ return Ok({alt}); }}", sp.0));
                    }
                }
                PredSource::NotSyn(sp) => {
                    if self.instrument() {
                        w.line("__bt = true;");
                        w.line(&format!("let __ok = self.synpred_{}();", sp.0));
                        w.line("__spec = __spec.max(self.last_spec);");
                        w.line(&format!("if !__ok {{ return {ok}; }}"));
                    } else {
                        w.line(&format!("if !self.synpred_{}() {{ return Ok({alt}); }}", sp.0));
                    }
                }
            }
        }
    }
}
