//! The LL(*) parse-time engine (Section 4).
//!
//! The parser interprets the grammar's ATN through its lowered op table
//! ([`llstar_core::Atn::ops`], ε moves collapsed): ops execute
//! terminals, rule invocations, predicates and actions; decision ops
//! consult their lookahead DFA (Figure 5's configuration change rules)
//! to pick an alternative, gracefully throttling from LL(1)
//! to arbitrary regular lookahead and finally to backtracking via
//! syntactic predicates. Speculative parses memoize rule results (packrat
//! caching, Section 6.2), suppress non-`{{…}}` actions (Section 4.3), and
//! report errors at the deepest token reached (Section 4.4).

use crate::coverage::CoverageRecorder;
use crate::error::{ParseError, ParseErrorKind, ResourceKind};
use crate::hooks::{HookContext, Hooks};
use crate::metrics::{MetricsSnapshot, ParseMetrics};
use crate::observe::{Observers, Predicted};
use crate::recovery::{repair_for, Repair};
use crate::stats::ParseStats;
use crate::stream::TokenStream;
use crate::trace::{MemoKind, TraceEvent, TraceSink};
use crate::tree::ParseTree;
use llstar_core::{
    Atn, AtnOp, AtnStateId, CoverageMap, DecisionId, GrammarAnalysis, OpEntry, PredSource,
    NO_TARGET,
};
use llstar_grammar::{Grammar, RuleId, SynPredId};
use llstar_lexer::{Token, TokenType};

/// Memoized outcome of a speculative sub-parse at a position: the
/// decoded form of one [`MemoTable`] slot.
///
/// A failure keeps no error. Its content would never be observed: rule
/// memos are consulted only while speculating, where recovery is off and
/// every `Err` unwinds to [`Parser::eval_synpred`], which keeps only
/// whether the sub-parse matched. The error that can still be reported,
/// the deepest one, went into `furthest_error` when the failure was
/// first computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoEntry {
    /// Nothing memoized at this position.
    Vacant,
    /// Parsed successfully, stopping at this token index.
    Success(usize),
    /// Failed.
    Failure,
}

/// Flat packrat memo rows, indexed by `row_id × token position`: one row
/// per rule (or syntactic predicate), O(1) lookups with no hashing.
///
/// Each slot is a `u32`: 0 = vacant, 1 = failure, `stop + 2` = success.
/// Growing a row is a memset and clearing it a truncate with no drop
/// glue, so the rows' allocations are reused across parses for free. A
/// stop that does not fit in a slot is simply not memoized: the rule
/// re-parses at that position, as with memoization off.
#[derive(Debug, Default)]
struct MemoTable {
    rows: Vec<Vec<u32>>,
}

const MEMO_VACANT: u32 = 0;
const MEMO_FAILURE: u32 = 1;
const MEMO_SUCCESS_BASE: u32 = 2;

impl MemoTable {
    fn new(rows: usize) -> Self {
        MemoTable { rows: vec![Vec::new(); rows] }
    }

    fn get(&self, row: usize, pos: usize) -> MemoEntry {
        match self.rows[row].get(pos).copied().unwrap_or(MEMO_VACANT) {
            MEMO_VACANT => MemoEntry::Vacant,
            MEMO_FAILURE => MemoEntry::Failure,
            slot => MemoEntry::Success((slot - MEMO_SUCCESS_BASE) as usize),
        }
    }

    fn set(&mut self, row: usize, pos: usize, entry: MemoEntry) {
        let slot = match entry {
            MemoEntry::Vacant => MEMO_VACANT,
            MemoEntry::Failure => MEMO_FAILURE,
            MemoEntry::Success(stop) => u32::try_from(stop)
                .ok()
                .and_then(|stop| stop.checked_add(MEMO_SUCCESS_BASE))
                .unwrap_or(MEMO_VACANT),
        };
        let row = &mut self.rows[row];
        if row.len() <= pos {
            row.resize(pos + 1, MEMO_VACANT);
        }
        row[pos] = slot;
    }

    /// Blanks every row in place; the allocations stay warm so a
    /// re-parse fills them without reallocating.
    fn clear(&mut self) {
        for row in &mut self.rows {
            row.clear();
        }
    }
}

/// Recovery-mode state: the errors recorded so far (capped at
/// `max_errors`) and the repair tally [`Parser::stats`] reports.
struct RecoveryState {
    max_errors: usize,
    errors: Vec<ParseError>,
    /// Errors recorded over the parse. Unlike `errors.len()` it survives
    /// [`Parser::take_errors`].
    recoveries: u64,
    /// Tokens removed by single-token deletion.
    tokens_deleted: u64,
    /// Tokens synthesized by single-token insertion.
    tokens_inserted: u64,
    /// Tokens consumed while resynchronizing.
    tokens_skipped: u64,
    /// ANTLR's error-condition flag: set when an error is reported,
    /// cleared when a real token matches. While set, further repairs at
    /// the same corruption site run silently instead of cascading
    /// reports.
    in_error_mode: bool,
    /// ANTLR's `lastErrorIndex` failsafe: the token index of the last
    /// no-viable repair that returned without consuming. A second such
    /// repair at the same index force-consumes one token so an enclosing
    /// loop that keeps re-entering the failing rule cannot spin forever.
    last_error_index: Option<usize>,
}

impl RecoveryState {
    fn new(max_errors: usize) -> Self {
        RecoveryState {
            max_errors,
            errors: Vec::new(),
            recoveries: 0,
            tokens_deleted: 0,
            tokens_inserted: 0,
            tokens_skipped: 0,
            in_error_mode: false,
            last_error_index: None,
        }
    }

    /// Clears the per-parse state; the cap stays.
    fn reset(&mut self) {
        self.errors.clear();
        self.recoveries = 0;
        self.tokens_deleted = 0;
        self.tokens_inserted = 0;
        self.tokens_skipped = 0;
        self.in_error_mode = false;
    }
}

/// How a repair told the interpreter loop to proceed.
enum RepairOutcome {
    /// Continue interpreting at `state`; `consumed` says whether the
    /// repair advanced the input (and so resets the progress watchdog).
    Continue { state: AtnStateId, consumed: bool },
    /// Re-run the current decision state (resynchronized onto a viable
    /// lookahead token).
    Retry,
    /// Return from the current rule with a partial match.
    Return,
}

/// An LL(*) parser over a token stream.
///
/// See [`Parser::parse`] for the entry point and the crate root for a
/// complete example. [`Parser::enable_recovery`] switches the parser
/// from fail-fast to ANTLR-style error recovery.
pub struct Parser<'g, H: Hooks> {
    grammar: &'g Grammar,
    analysis: &'g GrammarAnalysis,
    tokens: TokenStream,
    hooks: H,
    memo_rules: MemoTable,
    memo_preds: MemoTable,
    speculating: u32,
    furthest_error: Option<ParseError>,
    memoize: bool,
    /// The attached trace sink, span recorder, coverage recorder and
    /// decision timing; `None` while none is attached, as on every
    /// production parse. Each event site checks it once and hands the
    /// event to one [`Observers`] method.
    observe: Option<Box<Observers<'g>>>,
    recovery: Option<RecoveryState>,
    /// Follow states of the rule invocations currently on the call
    /// stack; their expected sets form the dynamic resynchronization set.
    follow_stack: Vec<AtnStateId>,
    /// The always-on metric counters (lookahead depth, backtrack,
    /// memo traffic, tokens/parse). Unlike the trace pipeline this has
    /// no sink indirection and no per-event values — each record site
    /// is a handful of unconditional array increments.
    metrics: ParseMetrics,
    /// Interpreter steps taken since the last [`Parser::reset`],
    /// speculative ones included: one per ATN state left, so an op
    /// reached through k ε moves burns k + 1 ([`Parser::charge`]).
    fuel_used: u64,
    /// The per-parse step budget ([`Parser::set_fuel_limit`]);
    /// `u64::MAX` means uncapped. Configuration — survives `reset`.
    fuel_limit: u64,
    /// The per-parse wall-clock budget ([`Parser::set_timeout`]).
    /// Configuration — survives `reset`, which re-arms `deadline`.
    timeout: Option<std::time::Duration>,
    /// The absolute deadline armed from `timeout` at reset/config time.
    deadline: Option<std::time::Instant>,
    /// Sticky budget abort: once a budget trips, every later
    /// [`Parser::burn_fuel`] returns this same error. Speculation
    /// swallows sub-parse errors into a boolean, so without stickiness a
    /// fuel abort inside a synpred would resurface as a misleading
    /// no-viable-alternative syntax error.
    exhausted: Option<ParseError>,
}

/// The deadline is polled only when `fuel_used & DEADLINE_CHECK_MASK`
/// wraps to zero (every 4096 steps): an `Instant::now()` per interpreter
/// step would dominate the loop, while one per ~4k steps bounds overrun
/// to well under a millisecond of parse work.
const DEADLINE_CHECK_MASK: u64 = (1 << 12) - 1;

impl<'g, H: Hooks> Parser<'g, H> {
    /// Creates a parser. `analysis` must come from [`llstar_core::analyze`]
    /// on the same (post-PEG-mode) grammar.
    pub fn new(
        grammar: &'g Grammar,
        analysis: &'g GrammarAnalysis,
        tokens: TokenStream,
        hooks: H,
    ) -> Self {
        let decision_count = analysis.atn.decisions.len();
        Parser {
            grammar,
            analysis,
            tokens,
            hooks,
            memo_rules: MemoTable::new(grammar.rules.len()),
            memo_preds: MemoTable::new(grammar.synpreds.len()),
            speculating: 0,
            furthest_error: None,
            memoize: grammar.options.memoize,
            observe: None,
            recovery: None,
            follow_stack: Vec::new(),
            metrics: ParseMetrics::new(decision_count),
            fuel_used: 0,
            fuel_limit: u64::MAX,
            timeout: None,
            deadline: None,
            exhausted: None,
        }
    }

    /// Rearms the parser for a fresh parse over `tokens`: clears all
    /// per-parse state (metrics, recovery tally, memo tables, speculation
    /// depth, recorded errors, resync stack, span log, decision timing)
    /// while keeping the grammar, analysis, hooks, trace sink, coverage
    /// recorder (whose map spans every parse until
    /// [`Parser::take_coverage`]), and configuration —
    /// memoization, recovery and its error cap — exactly as set.
    /// Memo-table row allocations stay warm, so a long-lived parser
    /// re-parses many inputs without reallocating its tables. This is
    /// the re-entrant entry point [`crate::ParseSession`], the gauntlet
    /// oracle, and the benches drive.
    pub fn reset(&mut self, tokens: TokenStream) {
        self.tokens = tokens;
        self.metrics.reset();
        self.memo_rules.clear();
        self.memo_preds.clear();
        self.speculating = 0;
        self.furthest_error = None;
        self.follow_stack.clear();
        if let Some(r) = &mut self.recovery {
            r.reset();
        }
        if let Some(o) = self.observe.as_deref_mut() {
            o.reset();
        }
        self.fuel_used = 0;
        self.deadline = self.timeout.map(|t| std::time::Instant::now() + t);
        self.exhausted = None;
    }

    /// Caps the interpreter steps a single parse may take; `None` lifts
    /// the cap. Exhausting the budget aborts the parse with a
    /// [`ParseErrorKind::ResourceLimit`] error that bypasses recovery
    /// and deepest-error replacement — the parser stays reusable via
    /// [`Parser::reset`]. Fuel is deterministic (unlike a deadline), so
    /// capped runs are reproducible.
    pub fn set_fuel_limit(&mut self, limit: Option<u64>) {
        self.fuel_limit = limit.unwrap_or(u64::MAX);
    }

    /// Interpreter steps burned since the last [`Parser::reset`].
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Caps the wall-clock a single parse may take; `None` lifts the
    /// cap. The deadline arms immediately and re-arms on every
    /// [`Parser::reset`], and is polled every 4096 interpreter steps.
    /// Exceeding it aborts like fuel exhaustion, with `resource: Timeout`.
    pub fn set_timeout(&mut self, timeout: Option<std::time::Duration>) {
        self.timeout = timeout;
        self.deadline = timeout.map(|t| std::time::Instant::now() + t);
    }

    /// Burns one interpreter step against the budgets; `Some(err)` when
    /// a budget is exhausted. Budget errors are built directly (no
    /// `error_here`): they are aborts, not syntax errors, so they stay
    /// out of the trace stream and the furthest-error fold.
    #[inline]
    fn burn_fuel(&mut self) -> Option<ParseError> {
        if self.exhausted.is_some() {
            return self.exhausted.clone();
        }
        self.fuel_used += 1;
        if self.fuel_used > self.fuel_limit {
            return Some(self.budget_error(ResourceKind::Fuel, self.fuel_limit));
        }
        if self.fuel_used & DEADLINE_CHECK_MASK == 0 {
            if let Some(deadline) = self.deadline {
                if std::time::Instant::now() >= deadline {
                    let millis = self.timeout.map(|t| t.as_millis() as u64).unwrap_or(0);
                    return Some(self.budget_error(ResourceKind::Timeout, millis));
                }
            }
        }
        None
    }

    fn budget_error(&mut self, resource: ResourceKind, limit: u64) -> ParseError {
        let err = ParseError {
            kind: ParseErrorKind::ResourceLimit { resource, limit },
            token: self.tokens.lt(1),
            token_index: self.tokens.index(),
        };
        self.exhausted = Some(err.clone());
        err
    }

    /// Starts accumulating per-decision prediction wall-clock, readable
    /// via [`Parser::decision_nanos`]. Display-only: the hotspot table's
    /// time-share column joins this against the (deterministic)
    /// coverage map at render time.
    pub fn enable_decision_timing(&mut self) {
        let decisions = self.analysis.atn.decisions.len();
        self.observers().cold().timing = Some(vec![0; decisions]);
    }

    /// Nanoseconds spent predicting, per decision; `None` unless
    /// [`Parser::enable_decision_timing`] was called.
    pub fn decision_nanos(&self) -> Option<&[u64]> {
        self.observe.as_ref()?.cold.as_ref()?.timing.as_deref()
    }

    /// Switches the parser into recovery mode: instead of failing on the first syntax error it repairs (via
    /// single-token deletion/insertion or follow-set resynchronization),
    /// records the error, and keeps parsing — up to `max_errors` errors,
    /// after which the parse aborts like the strict engine. Recovered
    /// errors appear as [`ParseTree::Error`] nodes in the tree and in
    /// [`Parser::errors`]. Recovery never engages during speculation, so
    /// backtracking semantics are unchanged.
    pub fn enable_recovery(&mut self, max_errors: usize) {
        self.recovery = Some(RecoveryState::new(max_errors));
    }

    /// The syntax errors recorded by recovery so far, in input order.
    pub fn errors(&self) -> &[ParseError] {
        self.recovery.as_ref().map(|r| r.errors.as_slice()).unwrap_or(&[])
    }

    /// Takes the recorded errors, leaving the parser's list empty.
    pub fn take_errors(&mut self) -> Vec<ParseError> {
        self.recovery.as_mut().map(|r| std::mem::take(&mut r.errors)).unwrap_or_default()
    }

    /// Whether the token stream is exhausted.
    pub fn at_eof(&mut self) -> bool {
        self.tokens.at_eof()
    }

    /// Recovery engages only outside speculation (Section 4.1's
    /// backtracking must still fail fast).
    fn recovering(&self) -> bool {
        self.recovery.is_some() && self.speculating == 0
    }

    /// Attaches a trace sink; every subsequent runtime event is forwarded
    /// to it. Stats and metrics count the same either way: they are
    /// bumped at the event sites, not folded from the stream.
    pub fn set_trace_sink(&mut self, sink: &'g mut dyn TraceSink) {
        self.observers().cold().trace = Some(sink);
    }

    /// Hands one event to the attached observers; `event` builds it
    /// only there, so an unobserved parse neither builds nor stores one.
    #[inline(always)]
    fn event(&mut self, event: impl Fn() -> TraceEvent) {
        if let Some(o) = self.observe.as_deref_mut() {
            o.event(event);
        }
    }

    /// The observer slot, attached on first use.
    fn observers(&mut self) -> &mut Observers<'g> {
        self.observe.get_or_insert_with(Box::default)
    }

    /// Starts folding events into a request-scoped span tree (capped at
    /// [`crate::span::DEFAULT_SPAN_CAPACITY`] nodes), harvested per
    /// parse via [`Parser::span_tree`]. The fold is token-indexed and
    /// byte-deterministic; unlike [`Parser::set_trace_sink`] it never
    /// materializes DFA paths, so its overhead is a few arena pushes
    /// per rule/decision. [`Parser::reset`] rearms the recorder.
    pub fn enable_span_recording(&mut self) {
        self.observers().spans.get_or_insert_with(crate::span::SpanRecorder::new);
    }

    /// Starts recording coverage: per-alternative, DFA-path, lookahead
    /// and memo counts into a [`CoverageMap`] (see [`crate::coverage`]
    /// for the gating rules), bumped where the parser counts its
    /// metrics, with no trace event built. The map accumulates across
    /// [`Parser::reset`] until [`Parser::take_coverage`].
    pub fn enable_coverage(&mut self) {
        let (grammar, analysis) = (self.grammar, self.analysis);
        let cold = self.observers().cold();
        cold.coverage.get_or_insert_with(|| CoverageRecorder::new(grammar, analysis));
    }

    /// Stops recording coverage and returns the map recorded since
    /// [`Parser::enable_coverage`]; `None` if it was not enabled. The
    /// map's `files` count is left at 0 for the caller to set.
    pub fn take_coverage(&mut self) -> Option<CoverageMap> {
        let observers = self.observe.as_deref_mut()?;
        let recorder = observers.take_coverage()?;
        if observers.is_empty() {
            self.observe = None;
        }
        Some(recorder.into_map())
    }

    /// Snapshots the current parse's span tree (closing any dangling
    /// spans synthetically), with rule and decision labels resolved
    /// from the grammar. `None` unless
    /// [`Parser::enable_span_recording`] was called.
    pub fn span_tree(&mut self) -> Option<crate::span::SpanTree> {
        let recorder = self.observe.as_deref_mut()?.spans.as_mut()?;
        let (rules, decisions) = crate::span::labels(self.grammar, self.analysis);
        Some(recorder.tree(rules, decisions))
    }

    /// Overrides the grammar's `memoize` option (used by the memoization
    /// ablation experiment).
    pub fn set_memoize(&mut self, memoize: bool) {
        self.memoize = memoize;
    }

    /// Runtime statistics since the last [`Parser::reset`]: a view over
    /// [`Parser::metrics`] plus the recovery tally, built on each call.
    /// Zero while metrics are disabled.
    pub fn stats(&self) -> ParseStats {
        let mut stats = ParseStats::from_metrics(&self.metrics);
        if let Some(r) = &self.recovery {
            stats.recoveries = r.recoveries;
            stats.tokens_deleted = r.tokens_deleted;
            stats.tokens_inserted = r.tokens_inserted;
            stats.tokens_skipped = r.tokens_skipped;
        }
        stats
    }

    /// The always-on metric counters accumulated since the last
    /// [`Parser::reset`].
    pub fn metrics(&self) -> &ParseMetrics {
        &self.metrics
    }

    /// Disables (or re-enables) metric recording. Exists solely so the
    /// `metrics_overhead` bench can measure the off-baseline; metrics
    /// are on by default and stay on in production paths. While off,
    /// [`Parser::stats`] reads zero too, recovery tally aside.
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        self.metrics.set_enabled(enabled);
    }

    /// Exports the metric counters as a labelled snapshot: fingerprinted
    /// to the grammar, with each decision row named after its owning
    /// rule. Deterministic for a given parse sequence — the parity
    /// suite compares this byte-for-byte across engines.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.label_metrics(&self.metrics)
    }

    /// Labels `metrics` (counters of this parser's grammar) with the
    /// analysis fingerprint and each decision's rule name.
    pub(crate) fn label_metrics(&self, metrics: &ParseMetrics) -> MetricsSnapshot {
        metrics.snapshot(self.analysis.fingerprint, |d| {
            let rule = self.analysis.atn.decisions[d].rule;
            self.grammar.rule(rule).name.clone()
        })
    }

    /// The hooks, for inspecting embedder state after a parse.
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// Consumes the parser, returning the hooks.
    pub fn into_hooks(self) -> H {
        self.hooks
    }

    fn atn(&self) -> &Atn {
        &self.analysis.atn
    }

    /// Parses starting at `rule_name`.
    ///
    /// # Errors
    /// Returns the deepest [`ParseError`] observed if the input does not
    /// match. The token stream may be partially consumed on failure.
    pub fn parse(&mut self, rule_name: &str) -> Result<ParseTree, ParseError> {
        let rule = self
            .grammar
            .rule_id(rule_name)
            .unwrap_or_else(|| panic!("unknown start rule {rule_name:?}"));
        let mut out = Vec::with_capacity(1);
        // The rule and prediction code is compiled with and without the
        // out-of-line observers' calls (see `crate::observe`).
        let result = match self.observe.as_ref().is_some_and(|o| o.cold.is_some()) {
            true => self.parse_rule_node::<true>(rule, true, &mut out),
            false => self.parse_rule_node::<false>(rule, true, &mut out),
        };
        match result {
            // A parse that tripped a budget mid-speculation can limp to
            // an apparent success (the failed synpred steers prediction
            // down another viable path) or die with a derived syntax
            // error ("no viable alternative", "predicate failed"). Both
            // are artifacts of the abort, not of the input: whenever
            // `exhausted` is set, the budget error is the outcome.
            Ok(()) => match self.exhausted.clone() {
                Some(e) => Err(e),
                None => Ok(out.pop().expect("building mode returns a tree")),
            },
            Err(e) => {
                let e = self.exhausted.clone().unwrap_or(e);
                Err(self.deepest_error(e))
            }
        }
    }

    /// Parses `rule_name` and then requires end of file.
    ///
    /// # Errors
    /// As [`Parser::parse`], plus a mismatch error if tokens remain.
    pub fn parse_to_eof(&mut self, rule_name: &str) -> Result<ParseTree, ParseError> {
        let mut tree = self.parse(rule_name)?;
        if !self.tokens.at_eof() {
            let found = self.tokens.la(1);
            let err = self.error_here(|_| {
                ParseErrorKind::mismatch_one(TokenType::EOF, "EOF".to_string(), found)
            });
            if self.recovering() {
                let rule = self.grammar.rule_id(rule_name).expect("resolved by parse");
                if let Err(e) = self.note_error(err, rule) {
                    return Err(self.deepest_error(e));
                }
                // Trailing junk: consume to EOF into an error node.
                let start = self.tokens.index();
                let mut skipped = Vec::new();
                while !self.tokens.at_eof() {
                    skipped.push(self.tokens.consume());
                }
                self.note_skip(start, skipped.len() as u64);
                if let ParseTree::Rule { children, .. } = &mut tree {
                    children.push(ParseTree::Error { tokens: skipped, inserted: None });
                }
                self.metrics.finish_parse(self.tokens.index() as u64);
                return Ok(tree);
            }
            return Err(self.deepest_error(err));
        }
        self.metrics.finish_parse(self.tokens.index() as u64);
        Ok(tree)
    }

    fn deepest_error(&self, e: ParseError) -> ParseError {
        // A budget abort is the reason the parse stopped, not a symptom
        // of bad input: never let a deeper (but now moot) syntax error
        // from a speculative attempt displace it.
        if e.is_resource_limit() {
            return e;
        }
        match &self.furthest_error {
            Some(f) => e.deepest(f.clone()),
            None => e,
        }
    }

    fn error_here(&mut self, kind: impl FnOnce(&Self) -> ParseErrorKind) -> ParseError {
        let token = self.tokens.lt(1);
        let token_index = self.tokens.index();
        self.error_at(token, token_index, kind)
    }

    /// Reports a syntax error at `token_index`: tells the observers and
    /// folds the error into `furthest_error`, the deepest error seen
    /// (Section 4.4).
    ///
    /// While speculating, `kind` is built only for an error strictly
    /// deeper than `furthest_error`, which it then replaces: `deepest`
    /// keeps the older error on ties, so any other speculative error can
    /// never be reported. The returned error is never observed (see
    /// [`MemoEntry`]), so it is an allocation-free stand-in.
    ///
    /// Out of line: inlined at each of `interpret`'s error sites, its
    /// error temporaries made `interpret`'s stack frame a fifth larger,
    /// and `interpret` runs once per nesting level of the input.
    #[inline(never)]
    fn error_at(
        &mut self,
        token: Token,
        token_index: usize,
        kind: impl FnOnce(&Self) -> ParseErrorKind,
    ) -> ParseError {
        let speculating = self.speculating > 0;
        self.event(move || TraceEvent::SyntaxError { token_index, speculating });
        if self.speculating > 0 {
            if self.furthest_error.as_ref().is_none_or(|f| token_index > f.token_index) {
                self.furthest_error = Some(ParseError { kind: kind(self), token, token_index });
            }
            return unobserved_error(token, token_index);
        }
        let err = ParseError { kind: kind(self), token, token_index };
        self.furthest_error = Some(match self.furthest_error.take() {
            Some(f) => f.deepest(err.clone()),
            None => err.clone(),
        });
        err
    }

    fn hook_ctx(&mut self) -> HookContext {
        HookContext {
            token_index: self.tokens.index(),
            next_token: self.tokens.lt(1),
            speculating: self.speculating > 0,
        }
    }

    /// Parses one rule invocation. When building, the finished rule node
    /// is appended to `out`, the caller's children. `COLD` (here and in
    /// the functions it calls) compiles in the calls to the out-of-line
    /// observers; see [`crate::observe`].
    fn parse_rule_node<const COLD: bool>(
        &mut self,
        rule: RuleId,
        build: bool,
        out: &mut Vec<ParseTree>,
    ) -> Result<(), ParseError> {
        let start = self.tokens.index();
        if self.speculating > 0 && self.memoize {
            let m = self.memo_rules.get(rule.index(), start);
            if m != MemoEntry::Vacant {
                self.metrics.record_memo_hit();
                self.event(move || TraceEvent::MemoHit {
                    kind: MemoKind::Rule,
                    id: rule.index() as u32,
                    token_index: start,
                    success: matches!(m, MemoEntry::Success(_)),
                });
                return match m {
                    MemoEntry::Success(stop) => {
                        self.tokens.seek(stop);
                        Ok(())
                    }
                    // Never observed (see `MemoEntry`): we are speculating,
                    // so recovery is off and this `Err` unwinds to
                    // `eval_synpred`, which keeps only `is_ok()`;
                    // `furthest_error` took the real error when this
                    // failure was first computed, and a budget abort
                    // resurfaces through the sticky `exhausted`.
                    MemoEntry::Failure => {
                        let token = self.tokens.lt(1);
                        Err(unobserved_error(token, start))
                    }
                    MemoEntry::Vacant => unreachable!("vacant entries fall through"),
                };
            }
        }
        let atn = self.atn();
        let entry = atn.rule_entry[rule.index()];
        // Sized once, at the fewest children any parse of the rule makes.
        let mut children = if build {
            Vec::with_capacity(atn.min_children[rule.index()] as usize)
        } else {
            Vec::new()
        };
        let mark = match self.observe.as_deref_mut() {
            Some(o) => o.rule_enter::<COLD>(rule.index() as u32, start),
            None => 0,
        };
        let result = self.interpret::<COLD>(entry, rule, build, &mut children);
        let (end, ok) = (self.tokens.index(), result.is_ok());
        // A speculative parse builds no node and reports no alternative.
        let alt = match result {
            Ok(alt) if build => alt,
            _ => 0,
        };
        if let Some(o) = self.observe.as_deref_mut() {
            o.rule_exit::<COLD>(mark, rule.index() as u32, start, end, alt, ok, self.speculating);
        }
        if self.speculating > 0 && self.memoize {
            let memo_value = match &result {
                Ok(_) => MemoEntry::Success(self.tokens.index()),
                Err(_) => MemoEntry::Failure,
            };
            self.metrics.record_memo_write();
            self.event(move || TraceEvent::MemoWrite {
                kind: MemoKind::Rule,
                id: rule.index() as u32,
                token_index: start,
                success: ok,
            });
            self.memo_rules.set(rule.index(), start, memo_value);
        }
        let alt = result?;
        if build {
            out.push(ParseTree::Rule { rule, alt, children });
        }
        Ok(())
    }

    /// Charges `steps` interpreter steps to the idle watchdog and the
    /// budgets, reporting exactly the error the steps taken one at a
    /// time would: per step the watchdog is checked before fuel, and the
    /// deadline is polled when fuel reaches a multiple of 4096. Only a
    /// run that may trip something is replayed step by step.
    #[inline]
    fn charge(
        &mut self,
        steps: usize,
        idle_steps: &mut usize,
        idle_limit: usize,
        rule: RuleId,
    ) -> Result<(), ParseError> {
        let fuel = self.fuel_used + steps as u64;
        // Nothing can trip: both counters stay within their limits, no
        // budget is exhausted, and no deadline poll falls in the run.
        let quiet = *idle_steps + steps <= idle_limit
            && fuel <= self.fuel_limit
            && self.exhausted.is_none()
            && (self.deadline.is_none()
                || fuel | DEADLINE_CHECK_MASK == self.fuel_used | DEADLINE_CHECK_MASK);
        if quiet {
            *idle_steps += steps;
            self.fuel_used = fuel;
            return Ok(());
        }
        (0..steps).try_for_each(|_| {
            *idle_steps += 1;
            if *idle_steps > idle_limit {
                return Err(self.error_here(|p| ParseErrorKind::InfiniteLoop {
                    rule: p.grammar.rule(rule).name.clone(),
                }));
            }
            self.burn_fuel().map_or(Ok(()), Err)
        })
    }

    /// Interprets a submachine from `entry` to its stop state over the
    /// ATN's op table, appending to `children` when building. Returns
    /// the chosen rule alternative (0 for a single-alternative rule).
    ///
    /// Each op is one interpreter step, and so is each ε move collapsed
    /// into it; reaching a stop state is free.
    fn interpret<const COLD: bool>(
        &mut self,
        entry: AtnStateId,
        rule: RuleId,
        build: bool,
        children: &mut Vec<ParseTree>,
    ) -> Result<u16, ParseError> {
        // `self.analysis` is a `&'g` field; copying it out unties the
        // table borrows from `&mut self`.
        let analysis = self.analysis;
        let grammar = self.grammar;
        let ops = analysis.atn.ops.as_slice();
        let mut state = entry;
        let mut rule_alt: u16 = 0;
        let mut idle_steps: usize = 0;
        let idle_limit = ops.len() * 2 + 64;
        loop {
            let OpEntry { eps, op } = ops[state];
            let steps = eps as usize + usize::from(op != AtnOp::Stop);
            self.charge(steps, &mut idle_steps, idle_limit, rule)?;
            match op {
                AtnOp::Stop => return Ok(rule_alt),
                AtnOp::Decide(id, alts) => {
                    let at_entry = eps == 0 && state == entry;
                    let alt = match self.predict::<COLD>(id) {
                        Ok(alt) => alt,
                        Err(err) => {
                            // Prediction swallows speculative sub-parse
                            // failures; if what actually stopped it was a
                            // budget abort, report that instead of the
                            // derived no-viable error — and never resync
                            // past it.
                            let err = self.exhausted.clone().unwrap_or(err);
                            if err.is_resource_limit() || !self.recovering() {
                                return Err(err);
                            }
                            state = analysis.atn.decisions[id.index()].state;
                            match self.recover_no_viable(err, state, rule, build, children)? {
                                RepairOutcome::Retry => {
                                    idle_steps = 0;
                                    continue;
                                }
                                RepairOutcome::Return => return Ok(rule_alt),
                                RepairOutcome::Continue { .. } => {
                                    unreachable!("no-viable repairs retry or return")
                                }
                            }
                        }
                    };
                    if at_entry {
                        rule_alt = alt;
                    }
                    // A left-edge syntactic predicate belongs to
                    // prediction, which has just evaluated it or proved
                    // it unneeded (`Atn::alt_start`).
                    state = analysis.atn.alt_starts[alts as usize + usize::from(alt) - 1] as usize;
                }
                AtnOp::Match(expected, next) => {
                    if self.tokens.la(1) == expected {
                        let tok = self.tokens.consume();
                        idle_steps = 0;
                        self.token_matched();
                        if build {
                            children.push(ParseTree::Token(tok));
                        }
                        state = next as usize;
                    } else {
                        // An ε move's expected set is its target's, so the
                        // run's first state reports the matching state's.
                        let err = self.mismatch_here(expected, state);
                        let next = next as usize;
                        if !self.recovering() {
                            return Err(err);
                        }
                        match self.recover_mismatch(err, expected, next, rule, build, children)? {
                            RepairOutcome::Continue { state: resume, consumed } => {
                                if consumed {
                                    idle_steps = 0;
                                }
                                state = resume;
                            }
                            RepairOutcome::Return => return Ok(rule_alt),
                            RepairOutcome::Retry => {
                                unreachable!("mismatch repairs continue or return")
                            }
                        }
                    }
                }
                AtnOp::Call(callee, follow) => {
                    let follow = follow as usize;
                    self.follow_stack.push(follow);
                    let sub = self.parse_rule_node::<COLD>(callee, build, children);
                    self.follow_stack.pop();
                    sub?;
                    idle_steps = 0;
                    state = follow;
                }
                AtnOp::Pred(p, next) => {
                    let text = grammar.sempred_text(p);
                    let ctx = self.hook_ctx();
                    let outcome = self.hooks.sempred(text, &ctx);
                    let token_index = self.tokens.index();
                    self.event(move || TraceEvent::Sempred {
                        pred: text.to_string(),
                        token_index,
                        outcome,
                    });
                    if outcome {
                        state = next as usize;
                    } else {
                        let err = self.error_here(|_| ParseErrorKind::PredicateFailed {
                            predicate: text.to_string(),
                        });
                        if !self.recovering() {
                            return Err(err);
                        }
                        self.recover_gate(err, rule, build, children)?;
                        return Ok(rule_alt);
                    }
                }
                AtnOp::SynPred(sp, negated, next) => {
                    let (ok, _) = self.eval_synpred::<COLD>(sp);
                    if ok != negated {
                        state = next as usize;
                    } else {
                        let bang = if negated { "!" } else { "" };
                        let err = self.error_here(|_| ParseErrorKind::PredicateFailed {
                            predicate: format!("{bang}synpred{}", sp.0),
                        });
                        if !self.recovering() {
                            return Err(err);
                        }
                        self.recover_gate(err, rule, build, children)?;
                        return Ok(rule_alt);
                    }
                }
                AtnOp::Action(a, always, next) => {
                    if self.speculating == 0 || always {
                        let ctx = self.hook_ctx();
                        self.hooks.action(grammar.action_text(a), &ctx);
                    }
                    state = next as usize;
                }
            }
        }
    }

    /// Predicts an alternative at a decision by simulating its lookahead
    /// DFA over the remaining input (Figure 5).
    ///
    /// Dispatch runs through the analysis's [`CompiledTables`]
    /// (class-mapped array indexing) whenever they are enabled, and
    /// otherwise walks `DfaState::target`: grammars over 256 token
    /// classes always do, and the parity tests reach it through an
    /// analysis whose `tables` is [`CompiledTables::disabled`]. The two
    /// paths visit the same states in the same order and emit the same
    /// events, byte for byte.
    ///
    /// Kept out of line: its one call site is in [`Parser::interpret`],
    /// whose loop it would otherwise grow by half.
    ///
    /// [`CompiledTables`]: llstar_core::CompiledTables
    /// [`CompiledTables::disabled`]: llstar_core::CompiledTables::disabled
    #[inline(never)]
    fn predict<const COLD: bool>(&mut self, decision: DecisionId) -> Result<u16, ParseError> {
        // `self.analysis` is a `&'g` field; copying it out unties the
        // table borrows from `&mut self`.
        let analysis = self.analysis;
        let dfa = &analysis.decisions[decision.index()].dfa;
        let compiled = analysis.tables.get(decision.index());
        let start_index = self.tokens.index();
        // `path`: the DFA states walked, start state first, recorded only
        // for a trace sink and for depth-0 coverage. `opened`: whether
        // `PredictStart` went out.
        let (mut path, mut opened) = match self.observe.as_deref_mut() {
            Some(o) => o.predict_start::<COLD>(decision.0, start_index, self.speculating),
            None => (Vec::new(), false),
        };
        let with_path = !path.is_empty();
        let mut cur = 0usize;
        let mut depth: u64 = 0;
        let mut backtracked = false;
        let mut deepest_spec: u64 = 0;
        let alt = loop {
            let accept = match compiled {
                Some((_, table)) => table.accept_alt(cur),
                None => dfa.states[cur].accept,
            };
            if let Some(alt) = accept {
                break alt;
            }
            let next_tok = self.tokens.lt(depth as usize + 1);
            let next = next_tok.ttype;
            let target = match compiled {
                Some((classes, table)) => {
                    // Fused classification: a classified stream already
                    // stamped each token with its class under this same
                    // partition, so the per-lookahead map probe vanishes.
                    let class = if self.tokens.is_classified() {
                        next_tok.class as usize
                    } else {
                        classes.class_of(next)
                    };
                    match table.next(cur, class) {
                        NO_TARGET => None,
                        t => Some(t as usize),
                    }
                }
                None => dfa.states[cur].target(next),
            };
            if let Some(target) = target {
                depth += 1;
                cur = target;
                if with_path {
                    path.push(target as u32);
                }
                continue;
            }
            if !opened {
                opened = true;
                if let Some(o) = self.observe.as_deref_mut() {
                    o.predict_open(decision.0, start_index);
                }
            }
            // Both borrow from the `&'g` analysis, not from `self`.
            let (preds, default_alt) = match compiled {
                Some((_, table)) => (table.preds_of(cur), table.default_of(cur)),
                None => (dfa.states[cur].preds.as_slice(), dfa.states[cur].default_alt),
            };
            if !preds.is_empty() || default_alt.is_some() {
                let mut chosen = None;
                for &(pred, alt) in preds {
                    match pred {
                        PredSource::Sem(p) => {
                            let text = self.grammar.sempred_text(p);
                            let ctx = self.hook_ctx();
                            let outcome = self.hooks.sempred(text, &ctx);
                            self.event(move || TraceEvent::Sempred {
                                pred: text.to_string(),
                                token_index: start_index,
                                outcome,
                            });
                            if outcome {
                                chosen = Some(alt);
                                break;
                            }
                        }
                        PredSource::Syn(sp) => {
                            backtracked = true;
                            let (ok, consumed) = self.eval_synpred::<COLD>(sp);
                            deepest_spec = deepest_spec.max(consumed);
                            if ok {
                                chosen = Some(alt);
                                break;
                            }
                        }
                        PredSource::NotSyn(sp) => {
                            backtracked = true;
                            let (ok, consumed) = self.eval_synpred::<COLD>(sp);
                            deepest_spec = deepest_spec.max(consumed);
                            if !ok {
                                chosen = Some(alt);
                                break;
                            }
                        }
                    }
                }
                if let Some(alt) = chosen.or(default_alt) {
                    break alt;
                }
            }
            let err = self.no_viable(decision, depth);
            if let Some(o) = self.observe.as_deref_mut() {
                o.predict_fail::<COLD>(decision.0);
            }
            return Err(err);
        };
        let lookahead = depth.max(1).max(deepest_spec);
        self.metrics.record_predict(decision.index(), lookahead, backtracked, deepest_spec);
        if let Some(o) = self.observe.as_deref_mut() {
            let p = Predicted {
                decision: decision.0,
                token_index: start_index,
                alt,
                lookahead,
                backtracked,
                spec_depth: deepest_spec,
            };
            o.predict_stop::<COLD>(p, opened, self.speculating, path);
        }
        Ok(alt)
    }

    /// A no-viable-alternative error at the lookahead token that caused
    /// the DFA error state (Section 4.4), carrying the decision state's
    /// expected-token set for diagnostics. Cold and out of line: inlined
    /// into [`Parser::predict`], its error building more than doubled
    /// the prediction's stack frame.
    #[cold]
    #[inline(never)]
    fn no_viable(&mut self, decision: DecisionId, depth: u64) -> ParseError {
        let token = self.tokens.lt(depth as usize + 1);
        let token_index = self.tokens.index() + depth as usize;
        self.error_at(token, token_index, |p| {
            let (rule, dstate) = {
                let d = &p.atn().decisions[decision.index()];
                (d.rule, d.state)
            };
            let rule = p.grammar.rule(rule).name.clone();
            let expected = p.analysis.recovery.expected_at(dstate).types();
            let expected_names =
                expected.iter().map(|&t| p.grammar.vocab.display_name(t)).collect();
            ParseErrorKind::NoViableAlternative { rule, expected, expected_names }
        })
    }

    /// A mismatch error at the current token: `required` (the token the
    /// failing ATN edge demands) first, then the rest of the state's
    /// expected set in ascending order.
    fn mismatch_here(&mut self, required: TokenType, state: AtnStateId) -> ParseError {
        let found = self.tokens.la(1);
        self.error_here(|p| {
            let mut expected = vec![required];
            expected
                .extend(p.analysis.recovery.expected_at(state).iter().filter(|&t| t != required));
            let expected_names =
                expected.iter().map(|&t| p.grammar.vocab.display_name(t)).collect();
            ParseErrorKind::Mismatch { expected, expected_names, found }
        })
    }

    /// Records a recovered error, or fails the parse when `max_errors`
    /// is reached. Emits [`TraceEvent::Recover`] for each recorded error.
    /// While the error condition is set (no token matched since the last
    /// report), follow-up errors at the same corruption site are repaired
    /// silently rather than recorded — ANTLR's cascade suppression.
    fn note_error(&mut self, err: ParseError, rule: RuleId) -> Result<(), ParseError> {
        let r = self.recovery.as_ref().expect("recovery enabled");
        if r.in_error_mode {
            return Ok(());
        }
        if r.errors.len() >= r.max_errors {
            return Err(err);
        }
        let (token_index, rule) = (err.token_index, rule.index() as u32);
        self.event(move || TraceEvent::Recover { token_index, rule });
        let r = self.recovery.as_mut().expect("recovery enabled");
        r.recoveries += 1;
        r.errors.push(err);
        r.in_error_mode = true;
        Ok(())
    }

    /// A real token matched: end the error condition (subsequent errors
    /// are new corruption sites, reported again).
    fn token_matched(&mut self) {
        if self.speculating == 0 {
            if let Some(r) = &mut self.recovery {
                r.in_error_mode = false;
            }
        }
    }

    /// Whether `t` belongs to the dynamic resynchronization set: the
    /// union of expected sets over the follow states of every rule
    /// invocation on the call stack (ANTLR's combined-follow recovery
    /// set), plus EOF.
    fn in_resync(&self, t: TokenType) -> bool {
        if t == TokenType::EOF {
            return true;
        }
        let rec = &self.analysis.recovery;
        self.follow_stack.iter().any(|&f| rec.expected_at(f).contains(t))
    }

    /// Tallies `skipped` resynchronized tokens and emits the matching
    /// [`TraceEvent::SyncSkip`].
    fn note_skip(&mut self, token_index: usize, skipped: u64) {
        self.recovery.as_mut().expect("recovery enabled").tokens_skipped += skipped;
        self.event(move || TraceEvent::SyncSkip { token_index, skipped });
    }

    /// Consumes tokens until the resynchronization set (or EOF), emitting
    /// one [`TraceEvent::SyncSkip`] with the count.
    fn sync_tokens(&mut self) -> Vec<Token> {
        let start = self.tokens.index();
        let mut skipped = Vec::new();
        loop {
            if self.tokens.at_eof() {
                break;
            }
            let la = self.tokens.la(1);
            if self.in_resync(la) {
                break;
            }
            skipped.push(self.tokens.consume());
        }
        self.note_skip(start, skipped.len() as u64);
        skipped
    }

    /// Repairs a failed terminal match (edge requiring `required`, from
    /// the mismatching state toward `target`) per [`repair_for`]. Cold
    /// and out of line, like [`Parser::recover_no_viable`]: repairs run
    /// only on syntax errors, and inlined into `interpret` they would
    /// grow the interpreter loop every clean parse runs.
    #[cold]
    #[inline(never)]
    fn recover_mismatch(
        &mut self,
        err: ParseError,
        required: TokenType,
        target: AtnStateId,
        rule: RuleId,
        build: bool,
        children: &mut Vec<ParseTree>,
    ) -> Result<RepairOutcome, ParseError> {
        self.note_error(err.clone(), rule)?;
        let analysis = self.analysis;
        let successor_expected = analysis.recovery.expected_at(target);
        match repair_for(required, successor_expected, self.tokens.la(1), self.tokens.la(2)) {
            Repair::InsertToken => {
                self.recovery.as_mut().expect("recovery enabled").tokens_inserted += 1;
                let token_index = self.tokens.index();
                self.event(move || TraceEvent::TokenInserted { token_index, ttype: required.0 });
                if build {
                    children
                        .push(ParseTree::Error { tokens: Vec::new(), inserted: Some(required) });
                }
                Ok(RepairOutcome::Continue { state: target, consumed: false })
            }
            Repair::DeleteToken => {
                let bad = self.tokens.consume();
                self.recovery.as_mut().expect("recovery enabled").tokens_deleted += 1;
                let (token_index, ttype) = (err.token_index, bad.ttype.0);
                self.event(move || TraceEvent::TokenDeleted { token_index, ttype });
                if self.tokens.la(1) == required {
                    let tok = self.tokens.consume();
                    self.token_matched();
                    if build {
                        children.push(ParseTree::Error { tokens: vec![bad], inserted: None });
                        children.push(ParseTree::Token(tok));
                    }
                    Ok(RepairOutcome::Continue { state: target, consumed: true })
                } else {
                    // The deletion guess was wrong; resynchronize,
                    // keeping the deleted token in the error node.
                    let mut skipped = vec![bad];
                    skipped.extend(self.sync_tokens());
                    if build {
                        children.push(ParseTree::Error { tokens: skipped, inserted: None });
                    }
                    Ok(RepairOutcome::Return)
                }
            }
            Repair::SyncAndReturn => {
                // ANTLR's `lastErrorIndex` failsafe: a second zero-token
                // resync at the same index means an enclosing loop keeps
                // re-entering the failing rule — force one token of
                // progress before synchronizing.
                let start = self.tokens.index();
                let repeat = self.recovery.as_ref().expect("recovery enabled").last_error_index
                    == Some(start);
                let mut skipped = Vec::new();
                let la1 = self.tokens.la(1);
                if repeat && !self.tokens.at_eof() && self.in_resync(la1) {
                    skipped.push(self.tokens.consume());
                }
                skipped.extend(self.sync_tokens());
                if skipped.is_empty() {
                    self.recovery.as_mut().expect("recovery enabled").last_error_index =
                        Some(start);
                }
                if build {
                    children.push(ParseTree::Error { tokens: skipped, inserted: None });
                }
                Ok(RepairOutcome::Return)
            }
        }
    }

    /// Repairs a failed gating predicate (semantic or syntactic) in a
    /// rule body: report, consume at least the offending token, skip to
    /// the resynchronization set, and return from the rule. A syntactic
    /// predicate at the left edge of an alternative of a
    /// multi-alternative rule or block never gets here: prediction owns
    /// it, and the walk starts past it ([`Atn::alt_start`]). Unlike
    /// no-viable repair there is no retry — the predicate already judged
    /// this position unparsable — and at least one token is always
    /// consumed (when not at EOF) so an enclosing loop that re-enters
    /// the rule cannot spin on the same gate forever.
    fn recover_gate(
        &mut self,
        err: ParseError,
        rule: RuleId,
        build: bool,
        children: &mut Vec<ParseTree>,
    ) -> Result<(), ParseError> {
        self.note_error(err, rule)?;
        let start = self.tokens.index();
        let mut skipped = Vec::new();
        if !self.tokens.at_eof() {
            skipped.push(self.tokens.consume());
            loop {
                let la = self.tokens.la(1);
                if la == TokenType::EOF || self.in_resync(la) {
                    break;
                }
                skipped.push(self.tokens.consume());
            }
        }
        self.note_skip(start, skipped.len() as u64);
        if build {
            children.push(ParseTree::Error { tokens: skipped, inserted: None });
        }
        Ok(())
    }

    /// Repairs a failed prediction at decision state `dstate`: consume
    /// until either a token in the decision's expected set appears (then
    /// retry the decision) or a token in the resynchronization set
    /// appears (then return from the rule with a partial match).
    #[cold]
    #[inline(never)]
    fn recover_no_viable(
        &mut self,
        err: ParseError,
        dstate: AtnStateId,
        rule: RuleId,
        build: bool,
        children: &mut Vec<ParseTree>,
    ) -> Result<RepairOutcome, ParseError> {
        self.note_error(err, rule)?;
        let analysis = self.analysis;
        let expected = analysis.recovery.expected_at(dstate);
        let start = self.tokens.index();
        // Already synchronized: return from the rule without consuming
        // (consuming a token the caller expects would cascade errors).
        // Exception — ANTLR's `lastErrorIndex` failsafe: a *second*
        // non-consuming repair at the same token means an enclosing loop
        // is re-entering the failing rule; force one token of progress.
        let la1 = self.tokens.la(1);
        if self.tokens.at_eof() || self.in_resync(la1) {
            let repeat =
                self.recovery.as_ref().expect("recovery enabled").last_error_index == Some(start);
            if repeat && !self.tokens.at_eof() {
                let skipped = vec![self.tokens.consume()];
                self.note_skip(start, 1);
                if build {
                    children.push(ParseTree::Error { tokens: skipped, inserted: None });
                }
                return Ok(RepairOutcome::Return);
            }
            self.recovery.as_mut().expect("recovery enabled").last_error_index = Some(start);
            self.note_skip(start, 0);
            if build {
                children.push(ParseTree::Error { tokens: Vec::new(), inserted: None });
            }
            return Ok(RepairOutcome::Return);
        }
        // Otherwise the offending token is consumed unconditionally —
        // every repair makes progress.
        let mut skipped = vec![self.tokens.consume()];
        loop {
            let la = self.tokens.la(1);
            let (outcome, done) = if expected.contains(la) {
                (RepairOutcome::Retry, true)
            } else if la == TokenType::EOF || self.in_resync(la) {
                (RepairOutcome::Return, true)
            } else {
                (RepairOutcome::Retry, false)
            };
            if done {
                self.note_skip(start, skipped.len() as u64);
                if build {
                    children.push(ParseTree::Error { tokens: skipped, inserted: None });
                }
                return Ok(outcome);
            }
            skipped.push(self.tokens.consume());
        }
    }

    /// Evaluates a syntactic predicate by speculative parse; returns
    /// `(matched, speculation depth)`. Rewinds the stream.
    ///
    /// The depth is the matched width, and 0 for a failure: where a
    /// failed speculation stops depends on inner memo state (a rule-memo
    /// failure hit returns at its start token, computing the same failure
    /// stops where the error was raised), so counting it would make
    /// `spec_sum` and the recorded lookahead differ with memoization on
    /// and off. The trace's `BacktrackExit.consumed` still reports where
    /// the speculation stopped.
    fn eval_synpred<const COLD: bool>(&mut self, sp: SynPredId) -> (bool, u64) {
        let start = self.tokens.index();
        if self.memoize {
            let m = self.memo_preds.get(sp.0 as usize, start);
            if m != MemoEntry::Vacant {
                self.metrics.record_memo_hit();
                self.event(move || TraceEvent::MemoHit {
                    kind: MemoKind::SynPred,
                    id: sp.0,
                    token_index: start,
                    success: matches!(m, MemoEntry::Success(_)),
                });
                return match m {
                    MemoEntry::Success(stop) => (true, (stop - start) as u64),
                    _ => (false, 0),
                };
            }
        }
        let nesting = self.speculating;
        self.event(move || TraceEvent::BacktrackEnter {
            synpred: sp.0,
            token_index: start,
            nesting,
        });
        let entry = self.atn().synpred_entry[sp.0 as usize];
        let rule = self.grammar.synpred_rules[sp.0 as usize];
        self.speculating += 1;
        let result = self.interpret::<COLD>(entry, rule, false, &mut Vec::new());
        self.speculating -= 1;
        let consumed = (self.tokens.index() - start) as u64;
        self.tokens.seek(start);
        if self.memoize {
            let value = match &result {
                Ok(_) => MemoEntry::Success(start + consumed as usize),
                Err(_) => MemoEntry::Failure,
            };
            self.metrics.record_memo_write();
            let success = result.is_ok();
            self.event(move || TraceEvent::MemoWrite {
                kind: MemoKind::SynPred,
                id: sp.0,
                token_index: start,
                success,
            });
            self.memo_preds.set(sp.0 as usize, start, value);
        }
        let ok = result.is_ok();
        // Back at the entry's nesting; read here, not kept across the
        // sub-parse.
        let nesting = self.speculating;
        self.event(move || TraceEvent::BacktrackExit {
            synpred: sp.0,
            token_index: start,
            matched: ok,
            consumed,
            nesting,
        });
        (ok, if ok { consumed } else { 0 })
    }
}

/// An allocation-free error for a failure whose content is never
/// observed (see [`MemoEntry`]): `String::new` and `Vec::new` do not
/// allocate.
fn unobserved_error(token: Token, token_index: usize) -> ParseError {
    let kind = ParseErrorKind::NoViableAlternative {
        rule: String::new(),
        expected: Vec::new(),
        expected_names: Vec::new(),
    };
    ParseError { kind, token, token_index }
}

/// Lexes `source` with an already-built `scanner`, fusing parser
/// token-classes into the tokens when the analysis lowered its prediction
/// tables (so prediction skips the per-lookahead class-map probe).
///
/// # Errors
/// Returns the [`llstar_lexer::LexError`], stringified.
pub fn lex_stream(
    scanner: &llstar_lexer::Scanner,
    analysis: &GrammarAnalysis,
    source: &str,
) -> Result<TokenStream, String> {
    match analysis.tables.classes() {
        Some(classes) => {
            let tokens =
                scanner.tokenize_classified(source, classes.map()).map_err(|e| e.to_string())?;
            Ok(TokenStream::new_classified(tokens))
        }
        None => {
            let tokens = scanner.tokenize(source).map_err(|e| e.to_string())?;
            Ok(TokenStream::new(tokens))
        }
    }
}

/// End-to-end convenience: lex `source` with the grammar's scanner, then
/// parse `rule_name` to EOF.
///
/// # Errors
/// Returns lexer/build errors or the parse error, stringified.
pub fn parse_text<H: Hooks>(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    source: &str,
    rule_name: &str,
    hooks: H,
) -> Result<(ParseTree, ParseStats), String> {
    let scanner = grammar.lexer.build().map_err(|e| e.to_string())?;
    let stream = lex_stream(&scanner, analysis, source)?;
    let mut parser = Parser::new(grammar, analysis, stream, hooks);
    let tree = parser.parse_to_eof(rule_name).map_err(|e| e.to_string())?;
    Ok((tree, parser.stats()))
}

/// Like [`parse_text`], but streams every runtime event into `sink`
/// (`llstar profile` uses this to trace a parse).
///
/// # Errors
/// As [`parse_text`]; the sink receives all events emitted before a
/// failure.
pub fn parse_text_traced<H: Hooks>(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    source: &str,
    rule_name: &str,
    hooks: H,
    sink: &mut dyn TraceSink,
) -> Result<(ParseTree, ParseStats), String> {
    let scanner = grammar.lexer.build().map_err(|e| e.to_string())?;
    let stream = lex_stream(&scanner, analysis, source)?;
    let mut parser = Parser::new(grammar, analysis, stream, hooks);
    parser.set_trace_sink(sink);
    let tree = parser.parse_to_eof(rule_name).map_err(|e| e.to_string())?;
    Ok((tree, parser.stats()))
}

/// Like [`parse_text`], but with error recovery enabled: returns the
/// (possibly repaired) tree together with every syntax error recorded,
/// instead of failing on the first one. An `Err` still occurs for lexer
/// failures, for hard aborts (infinite loops, failed predicates), or
/// when more than `max_errors` errors are found.
///
/// # Errors
/// As [`parse_text`] for non-recoverable failures.
pub fn parse_text_recovering<H: Hooks>(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    source: &str,
    rule_name: &str,
    hooks: H,
    max_errors: usize,
) -> Result<(ParseTree, Vec<ParseError>, ParseStats), String> {
    let scanner = grammar.lexer.build().map_err(|e| e.to_string())?;
    let stream = lex_stream(&scanner, analysis, source)?;
    let mut parser = Parser::new(grammar, analysis, stream, hooks);
    parser.enable_recovery(max_errors);
    let tree = parser.parse_to_eof(rule_name).map_err(|e| e.to_string())?;
    let errors = parser.take_errors();
    Ok((tree, errors, parser.stats()))
}

/// [`parse_text_recovering`] with every runtime event streamed into
/// `sink` (recovery emits [`TraceEvent::Recover`]/[`TraceEvent::SyncSkip`]/
/// [`TraceEvent::TokenInserted`]/[`TraceEvent::TokenDeleted`]).
///
/// # Errors
/// As [`parse_text_recovering`].
pub fn parse_text_recovering_traced<H: Hooks>(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    source: &str,
    rule_name: &str,
    hooks: H,
    max_errors: usize,
    sink: &mut dyn TraceSink,
) -> Result<(ParseTree, Vec<ParseError>, ParseStats), String> {
    let scanner = grammar.lexer.build().map_err(|e| e.to_string())?;
    let stream = lex_stream(&scanner, analysis, source)?;
    let mut parser = Parser::new(grammar, analysis, stream, hooks);
    parser.enable_recovery(max_errors);
    parser.set_trace_sink(sink);
    let tree = parser.parse_to_eof(rule_name).map_err(|e| e.to_string())?;
    let errors = parser.take_errors();
    Ok((tree, errors, parser.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{MapHooks, NopHooks};
    use llstar_core::analyze;
    use llstar_grammar::{apply_peg_mode, parse_grammar};

    fn setup(src: &str) -> (Grammar, GrammarAnalysis) {
        let g = apply_peg_mode(parse_grammar(src).unwrap());
        let a = analyze(&g);
        (g, a)
    }

    fn parse_ok(src: &str, input: &str, rule: &str) -> (ParseTree, ParseStats) {
        let (g, a) = setup(src);
        parse_text(&g, &a, input, rule, NopHooks).unwrap()
    }

    fn parse_err(src: &str, input: &str, rule: &str) -> String {
        let (g, a) = setup(src);
        parse_text(&g, &a, input, rule, NopHooks).unwrap_err()
    }

    const FIG1: &str = r#"
        grammar F1;
        s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
        expr : INT ;
        ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
        INT : [0-9]+ ;
        WS : [ \t\r\n]+ -> skip ;
    "#;

    /// Figure 2's backtracking grammar: `- - x` and `- - 1` need
    /// speculation, a single `-` does not.
    const FIG2: &str = r#"
        grammar F2;
        options { backtrack = true; m = 1; }
        t : '-'* ID | expr ;
        expr : INT | '-' expr ;
        ID : [a-z]+ ;
        INT : [0-9]+ ;
        WS : [ ]+ -> skip ;
    "#;

    /// Fused classification (token-stamped classes) must drive prediction
    /// to the same trees and stats as the per-lookahead class-map probe.
    #[test]
    fn fused_classification_matches_mapped_prediction() {
        let (g, a) = setup(FIG1);
        let scanner = g.lexer.build().unwrap();
        let classes = a.tables.classes().expect("FIG1 lowers");
        for input in ["x", "x = 42", "unsigned unsigned int x", "unsigned T y", "T y"] {
            let plain = TokenStream::new(scanner.tokenize(input).unwrap());
            let fused = TokenStream::new_classified(
                scanner.tokenize_classified(input, classes.map()).unwrap(),
            );
            assert!(fused.is_classified() && !plain.is_classified());
            let mut p1 = Parser::new(&g, &a, plain, NopHooks);
            let t1 = p1.parse_to_eof("s").unwrap();
            let mut p2 = Parser::new(&g, &a, fused, NopHooks);
            let t2 = p2.parse_to_eof("s").unwrap();
            assert_eq!(format!("{t1:?}"), format!("{t2:?}"), "trees on {input:?}");
            assert_eq!(p1.stats(), p2.stats(), "stats on {input:?}");
        }
    }

    #[test]
    fn figure1_all_alternatives_parse() {
        for (input, expected_alt) in [
            ("x", 1),
            ("x = 42", 2),
            ("unsigned unsigned int x", 3),
            ("unsigned T y", 4),
            ("T y", 4),
            ("int x", 3),
        ] {
            let (g, a) = setup(FIG1);
            let (tree, _) = parse_text(&g, &a, input, "s", NopHooks).unwrap();
            match tree {
                ParseTree::Rule { alt, .. } => {
                    assert_eq!(alt, expected_alt, "input {input:?}")
                }
                _ => panic!("expected rule node"),
            }
        }
    }

    #[test]
    fn figure1_minimal_lookahead_per_input() {
        // `int x` must be decided with k = 1 (immediate alt 3).
        let (_, stats) = parse_ok(FIG1, "int x", "s");
        assert_eq!(stats.max_lookahead(), 1);
        // `T x` requires k = 2.
        let (_, stats) = parse_ok(FIG1, "T x", "s");
        assert_eq!(stats.max_lookahead(), 2);
        // `unsigned unsigned unsigned int x` scans past the unsigneds and
        // decides upon the distinguishing `int`, the 4th token: k = 4.
        let (_, stats) = parse_ok(FIG1, "unsigned unsigned unsigned int x", "s");
        assert_eq!(stats.max_lookahead(), 4);
    }

    #[test]
    fn figure2_backtracks_only_on_minus_minus() {
        // Single '-' prefix: no backtracking.
        let (_, stats) = parse_ok(FIG2, "- 5", "t");
        assert_eq!(stats.total_backtrack_events(), 0, "k<=2 decides without speculation");
        let (_, stats) = parse_ok(FIG2, "x", "t");
        assert_eq!(stats.total_backtrack_events(), 0);
        // '--' prefix forces a speculative parse.
        let (tree, stats) = parse_ok(FIG2, "- - x", "t");
        assert!(stats.total_backtrack_events() > 0, "'--' must trigger backtracking");
        match tree {
            ParseTree::Rule { alt, .. } => assert_eq!(alt, 1),
            _ => unreachable!(),
        }
        let (tree, _) = parse_ok(FIG2, "- - 7", "t");
        match tree {
            ParseTree::Rule { alt, .. } => assert_eq!(alt, 2),
            _ => unreachable!(),
        }
    }

    /// A failed speculation adds nothing to the speculation depth,
    /// whether it was computed or read back from the memo. `r` is entered
    /// twice at one position (its first call takes the empty
    /// alternative), so both of its predictions evaluate the same failing
    /// synpred there, and with memoization on the second one is a memo
    /// hit.
    #[test]
    fn failed_speculation_depth_is_the_same_with_and_without_memo() {
        let src = r#"
            grammar M;
            options { m = 1; }
            s : r r e C ;
            r : (e B)=> e B | ;
            e : A e | A ;
            A : 'a' ; B : 'b' ; C : 'c' ;
            WS : [ ]+ -> skip ;
        "#;
        let (g, a) = setup(src);
        let r = g.rule_id("r").unwrap();
        let d = a.atn.decisions.iter().find(|d| d.rule == r && !d.synthetic).unwrap().id;
        let scanner = g.lexer.build().unwrap();
        let run = |memoize: bool| {
            let tokens = TokenStream::new(scanner.tokenize("a a a c").unwrap());
            let mut parser = Parser::new(&g, &a, tokens, NopHooks);
            parser.set_memoize(memoize);
            parser.parse_to_eof("s").unwrap();
            let stats = parser.stats();
            (stats.decision(d).clone(), stats.memo_hits)
        };
        let ((memo, hits), (plain, _)) = (run(true), run(false));
        assert!(hits > 0, "the second prediction must hit the synpred memo");
        assert_eq!((memo.events, memo.backtracks), (2, 2), "{memo:?}");
        assert_eq!(memo.spec_sum, 0, "a failed speculation has depth 0");
        assert_eq!(memo, plain, "memoization changed the recorded depths");
    }

    #[test]
    fn cyclic_lookahead_parses_deep_input() {
        let src = "grammar C; a : b A+ X | c A+ Y ; b : ; c : ; A:'a'; X:'x'; Y:'y';";
        let (tree, stats) = parse_ok(src, "aaaaaaaay", "a");
        match tree {
            ParseTree::Rule { alt, .. } => assert_eq!(alt, 2),
            _ => unreachable!(),
        }
        assert_eq!(stats.max_lookahead(), 9, "scanned to the distinguishing y");
        assert_eq!(stats.total_backtrack_events(), 0, "cyclic DFA, no speculation");
    }

    #[test]
    fn ebnf_loops_and_options() {
        let src = "grammar E; s : A? B* C+ ; A:'a'; B:'b'; C:'c'; WS:[ ]+ -> skip;";
        let (tree, _) = parse_ok(src, "a b b c c c", "s");
        assert_eq!(tree.token_count(), 6);
        let (tree, _) = parse_ok(src, "c", "s");
        assert_eq!(tree.token_count(), 1);
        let err = parse_err(src, "a b", "s");
        assert!(err.contains("no viable alternative") || err.contains("expected"), "{err}");
    }

    #[test]
    fn nested_rules_build_trees() {
        let src = r#"
            grammar N;
            stat : ID '=' expr ';' ;
            expr : term ('+' term)* ;
            term : ID | INT ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
        "#;
        let (g, a) = setup(src);
        let (tree, _) = parse_text(&g, &a, "x = y + 1 ;", "stat", NopHooks).unwrap();
        let sexpr = tree.to_sexpr(&g, "x = y + 1 ;");
        assert_eq!(sexpr, "(stat \"x\" \"=\" (expr (term \"y\") \"+\" (term \"1\")) \";\")");
    }

    #[test]
    fn semantic_predicates_direct_the_parse() {
        // The paper's type-name predicate (Section 4.2).
        let src = r#"
            grammar T;
            s : {isTypeName}? ID ID ';' | ID '=' INT ';' ;
            ID : [a-zA-Z_]+ ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
        "#;
        let (g, a) = setup(src);
        // With the predicate true, `T x ;` is a declaration.
        let mut hooks = MapHooks::new();
        hooks.on_pred("isTypeName", |_| true);
        let (tree, _) = parse_text(&g, &a, "T x ;", "s", hooks).unwrap();
        match tree {
            ParseTree::Rule { alt, .. } => assert_eq!(alt, 1),
            _ => unreachable!(),
        }
        // With it false, alt 1 is not viable; `x = 3 ;` takes alt 2.
        let mut hooks = MapHooks::new();
        hooks.on_pred("isTypeName", |_| false);
        let (tree, _) = parse_text(&g, &a, "x = 3 ;", "s", hooks).unwrap();
        match tree {
            ParseTree::Rule { alt, .. } => assert_eq!(alt, 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn actions_run_in_order_but_not_while_speculating() {
        let src = r#"
            grammar A;
            options { backtrack = true; }
            s : x Y | x Z ;
            x : {regular}? {act} {{always}} X ;
            X : 'x' ; Y : 'y' ; Z : 'z' ;
            WS : [ ]+ -> skip ;
        "#;
        let (g, a) = setup(src);
        let scanner = g.lexer.build().unwrap();
        let toks = scanner.tokenize("x z").unwrap();
        let mut parser = Parser::new(&g, &a, TokenStream::new(toks), MapHooks::new());
        parser.parse_to_eof("s").unwrap();
        let log = &parser.hooks().action_log;
        // Decision s is LL(2) here (x Y vs x Z share only x), so whether
        // speculation happened depends on the DFA; the invariant we check:
        // {act} never runs more often than {{always}}, and both ran for
        // the real parse.
        let acts = log.iter().filter(|s| s.as_str() == "act").count();
        let always = log.iter().filter(|s| s.as_str() == "always").count();
        assert_eq!(acts, 1, "{log:?}");
        assert!(always >= acts, "{log:?}");
    }

    #[test]
    fn always_actions_run_during_speculation() {
        let src = r#"
            grammar AA;
            options { backtrack = true; m = 1; }
            t : '-'* x | expr ;
            x : {{spec_act}} ID ;
            expr : INT | '-' expr ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
        "#;
        let (g, a) = setup(src);
        let scanner = g.lexer.build().unwrap();
        let toks = scanner.tokenize("- - q").unwrap();
        let mut parser = Parser::new(&g, &a, TokenStream::new(toks), MapHooks::new());
        parser.parse_to_eof("t").unwrap();
        let always = parser.hooks().action_log.iter().filter(|s| s.as_str() == "spec_act").count();
        assert!(always >= 2, "once speculatively, once for real: {:?}", parser.hooks().action_log);
    }

    #[test]
    fn error_reports_deepest_token() {
        // Section 4.4: A → a+b | a+c on input "aaaaad" should complain
        // about 'd', not the first 'a'.
        let src = "grammar E; s : A+ B | A+ C ; A:'a'; B:'b'; C:'c'; D:'d';";
        let (g, a) = setup(src);
        let err = parse_text(&g, &a, "aaaaad", "s", NopHooks).unwrap_err();
        assert!(err.contains("1:6"), "error should point at the d (col 6): {err}");
    }

    /// An error raised inside a syntactic-predicate fragment names the
    /// rule the predicate belongs to. `stmt`'s decision is not LL(*)
    /// (`x` nests), so prediction speculates alternative 1; its fragment
    /// fails deepest, at the `(C | D)` block (token 4), while the
    /// predicted alternative 2 fails earlier, at token 3.
    #[test]
    fn fragment_errors_name_the_predicate_rule() {
        let src = r#"
            grammar Frag;
            options { backtrack = true; m = 1; }
            s : stmt EOF ;
            stmt : '(' x ')' (A | B) (C | D) ';' | '(' x ')' '!' ;
            x : '(' x ')' | ID ;
            A : 'A' ; B : 'B' ; C : 'C' ; D : 'D' ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        "#;
        let err = parse_err(src, "( a ) A ;", "s");
        assert!(err.contains("no viable alternative for rule stmt"), "{err}");
        assert!(err.contains("1:9"), "error should point at the ';' (col 9): {err}");
    }

    #[test]
    fn eof_required_by_parse_to_eof() {
        let src = "grammar P; s : A ; A : 'a' ;";
        let err = parse_err(src, "aa", "s");
        assert!(err.contains("expected EOF"), "{err}");
    }

    #[test]
    fn memoization_counts_hits() {
        // PEG mode with shared prefixes: speculation should hit the memo.
        let src = r#"
            grammar M;
            options { backtrack = true; }
            s : e '!' | e '?' | e ';' ;
            e : ID '(' e ')' | ID ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        "#;
        let (g, a) = setup(src);
        let scanner = g.lexer.build().unwrap();
        let input = "f ( g ( h ) ) ;";
        let toks = scanner.tokenize(input).unwrap();
        let mut parser = Parser::new(&g, &a, TokenStream::new(toks.clone()), NopHooks);
        parser.parse_to_eof("s").unwrap();
        let with_memo = parser.stats();
        assert!(with_memo.memo_hits > 0, "expected memo hits: {with_memo:?}");
    }

    #[test]
    fn stats_track_decision_coverage() {
        let (_, stats) = parse_ok(FIG1, "x = 1", "s");
        assert!(stats.decisions_covered() >= 1);
        assert!(stats.total_events() >= 1);
        assert!(stats.avg_lookahead() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown start rule")]
    fn unknown_start_rule_panics() {
        let (g, a) = setup("grammar U; s : A ; A:'a';");
        let scanner = g.lexer.build().unwrap();
        let toks = scanner.tokenize("a").unwrap();
        let mut parser = Parser::new(&g, &a, TokenStream::new(toks), NopHooks);
        let _ = parser.parse("nope");
    }

    /// A star loop over a nullable body must terminate cleanly (either
    /// by exiting the loop or with an explicit error), never hang.
    #[test]
    fn nullable_loop_body_terminates() {
        let src = "grammar Z; s : (A?)* B ; A:'a'; B:'b'; WS:[ ]+ -> skip;";
        let (g, a) = setup(src);
        for input in ["b", "a b", "a a b"] {
            match parse_text(&g, &a, input, "s", NopHooks) {
                Ok((tree, _)) => assert!(tree.token_count() >= 1, "{input}"),
                Err(e) => assert!(
                    e.contains("loop") || e.contains("viable") || e.contains("expected"),
                    "{input}: {e}"
                ),
            }
        }
    }

    /// Parsing twice from the same parser continues where the first
    /// parse stopped (statement-at-a-time usage).
    #[test]
    fn sequential_parses_share_the_stream() {
        let src = "grammar Q; stat : ID '=' INT ';' ; ID:[a-z]+; INT:[0-9]+; WS:[ ]+ -> skip;";
        let (g, a) = setup(src);
        let scanner = g.lexer.build().unwrap();
        let toks = scanner.tokenize("a = 1 ; b = 2 ;").unwrap();
        let mut parser = Parser::new(&g, &a, TokenStream::new(toks), NopHooks);
        let t1 = parser.parse("stat").unwrap();
        let t2 = parser.parse("stat").unwrap();
        assert_eq!(t1.token_count(), 4);
        assert_eq!(t2.token_count(), 4);
        assert!(parser.parse("stat").is_err(), "stream exhausted");
    }

    /// into_hooks returns embedder state after the parse.
    #[test]
    fn into_hooks_recovers_state() {
        let src = "grammar H; s : {note} A ; A:'a';";
        let (g, a) = setup(src);
        let scanner = g.lexer.build().unwrap();
        let toks = scanner.tokenize("a").unwrap();
        let mut parser = Parser::new(&g, &a, TokenStream::new(toks), MapHooks::new());
        parser.parse_to_eof("s").unwrap();
        let hooks = parser.into_hooks();
        assert_eq!(hooks.action_log, vec!["note"]);
    }

    /// The live counters that the event stream must agree with, in the
    /// order `(predictions, backtracked, spec depth, memo hits, memo
    /// writes, recoveries, inserted, deleted, skipped)`.
    type Tally = [u64; 9];

    fn stats_tally(s: &ParseStats) -> Tally {
        let spec: u64 = s.covered().map(|(_, d)| d.spec_sum).sum();
        [
            s.total_events(),
            s.total_backtrack_events(),
            spec,
            s.memo_hits,
            s.memo_entries,
            s.recoveries,
            s.tokens_inserted,
            s.tokens_deleted,
            s.tokens_skipped,
        ]
    }

    fn event_tally(events: &[TraceEvent]) -> Tally {
        let mut t = [0u64; 9];
        for event in events {
            match event {
                TraceEvent::PredictStop { backtracked, spec_depth, .. } => {
                    t[0] += 1;
                    t[1] += *backtracked as u64;
                    t[2] += spec_depth;
                }
                TraceEvent::MemoHit { .. } => t[3] += 1,
                TraceEvent::MemoWrite { .. } => t[4] += 1,
                TraceEvent::Recover { .. } => t[5] += 1,
                TraceEvent::TokenInserted { .. } => t[6] += 1,
                TraceEvent::TokenDeleted { .. } => t[7] += 1,
                TraceEvent::SyncSkip { skipped, .. } => t[8] += skipped,
                _ => {}
            }
        }
        t
    }

    #[test]
    fn trace_event_counts_agree_with_stats() {
        use crate::trace::RingSink;
        // The trace must carry predictions, backtrack enter/exit pairs,
        // and memo traffic.
        let (g, a) = setup(FIG2);
        let mut sink = RingSink::unbounded();
        let (_, stats) = parse_text_traced(&g, &a, "- - x", "t", NopHooks, &mut sink).unwrap();
        let events: Vec<_> = sink.into_events();
        assert!(events.iter().any(|e| matches!(e, TraceEvent::PredictStart { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::BacktrackEnter { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::BacktrackExit { .. })));
        // The counters bumped at the event sites agree with the stream.
        let tally = stats_tally(&stats);
        assert_eq!(event_tally(&events), tally);
        assert!(tally[1] > 0 && tally[2] > 0 && tally[4] > 0, "{tally:?}");
        // Enter/exit events pair up.
        let enters = events.iter().filter(|e| matches!(e, TraceEvent::BacktrackEnter { .. }));
        let exits = events.iter().filter(|e| matches!(e, TraceEvent::BacktrackExit { .. }));
        assert_eq!(enters.count(), exits.count());
    }

    /// Everything one parse produces, whichever observers watch it.
    type Outputs = (Result<ParseTree, ParseError>, Vec<ParseError>, ParseStats, MetricsSnapshot);

    /// What each attached observer recorded: trace events, span-tree
    /// JSON, coverage JSON.
    type Observed = (Option<Vec<TraceEvent>>, Option<String>, Option<String>);

    /// Parses with the observers in `mask` attached: bit 0 a trace
    /// sink, bit 1 span recording, bit 2 coverage, bit 3 decision
    /// timing.
    fn parse_observed(case: (&str, &str, &str), recovery: bool, mask: u8) -> (Outputs, Observed) {
        let (src, input, rule) = case;
        let (g, a) = setup(src);
        let scanner = g.lexer.build().unwrap();
        let mut sink = crate::trace::RingSink::unbounded();
        let mut parser = Parser::new(&g, &a, lex_stream(&scanner, &a, input).unwrap(), NopHooks);
        if recovery {
            parser.enable_recovery(100);
        }
        if mask & 1 != 0 {
            parser.set_trace_sink(&mut sink);
        }
        if mask & 2 != 0 {
            parser.enable_span_recording();
        }
        if mask & 4 != 0 {
            parser.enable_coverage();
        }
        if mask & 8 != 0 {
            parser.enable_decision_timing();
        }
        let tree = parser.parse_to_eof(rule);
        let timing = parser.decision_nanos().map(<[u64]>::len);
        assert_eq!(timing, (mask & 8 != 0).then_some(a.atn.decisions.len()), "mask {mask}");
        let spans = parser.span_tree().map(|tree| tree.to_json());
        let coverage = parser.take_coverage().map(|map| map.to_json());
        let outputs = (tree, parser.errors().to_vec(), parser.stats(), parser.metrics_snapshot());
        drop(parser);
        let events = (mask & 1 != 0).then(|| sink.into_events());
        (outputs, (events, spans, coverage))
    }

    /// Every subset of the four observers, with recovery on and off:
    /// the parse, its stats and its metrics equal the unobserved
    /// parse's, and each observer records the same whatever else is
    /// attached.
    #[test]
    fn skipping_events_changes_no_output() {
        // A backtracking, memoizing parse; an input that inserts,
        // deletes and records errors when recovering. `busy` is the
        // mode in which the parse gets far enough to predict.
        let cases = [
            (FIG2, "- - x", "t", false),
            (FIG2, "- - 1", "t", false),
            (STMTS, "a 1 ; b = ; c = x ; d = 4 ;", "s", true),
            (STMTS, "a = b ; c = 2 ;", "s", true),
        ];
        for (src, input, rule, busy) in cases {
            let case = (src, input, rule);
            for recovery in [false, true] {
                let (unobserved, _) = parse_observed(case, recovery, 0);
                if recovery == busy {
                    assert!(unobserved.2.total_events() > 0, "{input:?}");
                }
                let (_, (events, _, _)) = parse_observed(case, recovery, 1);
                let (_, (_, spans, _)) = parse_observed(case, recovery, 2);
                let (_, (_, _, coverage)) = parse_observed(case, recovery, 4);
                for mask in 0..16u8 {
                    let at = format!("{input:?}, recovery {recovery}, mask {mask}");
                    let (outputs, observed) = parse_observed(case, recovery, mask);
                    assert_eq!(outputs, unobserved, "{at}");
                    assert_eq!(observed.0, events.clone().filter(|_| mask & 1 != 0), "{at}");
                    assert_eq!(observed.1, spans.clone().filter(|_| mask & 2 != 0), "{at}");
                    assert_eq!(observed.2, coverage.clone().filter(|_| mask & 4 != 0), "{at}");
                }
            }
        }
    }

    /// Without a trace sink the span recorder takes a prediction that
    /// evaluates no predicate as one leaf record. Its tree must equal the
    /// fold of the full event stream, also wherever the log cap (8
    /// records per arena slot) cuts the stream; inputs of several lengths
    /// move the cuts across the stream.
    #[test]
    fn span_recording_matches_the_folded_trace_at_every_log_cap() {
        let cases = [
            (FIG2, "- x", "t", false),
            (FIG2, "- - x", "t", false),
            (FIG2, "- - - 7", "t", false),
            (FIG2, "- - - - x", "t", false),
            (FIG1, "unsigned unsigned int x", "s", false),
            (FIG1, "T x", "s", false),
            (STMTS, "a 1 ; b = ; c = x ; d = 4 ;", "s", true),
            (STMTS, "a = b ; c = 2 ;", "s", true),
            (STMTS, "a = = 1 ; b 2 ;", "s", true),
        ];
        for (src, input, rule, recovery) in cases {
            let (g, a) = setup(src);
            let scanner = g.lexer.build().unwrap();
            let run = |sink: Option<&mut dyn TraceSink>, capacity: usize| {
                let stream = lex_stream(&scanner, &a, input).unwrap();
                let mut parser = Parser::new(&g, &a, stream, NopHooks);
                if recovery {
                    parser.enable_recovery(100);
                }
                if let Some(sink) = sink {
                    parser.set_trace_sink(sink);
                }
                parser.observers().spans = Some(crate::span::SpanRecorder::with_capacity(capacity));
                let _ = parser.parse_to_eof(rule);
                parser.observers().spans.take().unwrap().tree(Vec::new(), Vec::new())
            };
            let mut sink = crate::trace::RingSink::unbounded();
            run(Some(&mut sink), 1);
            let events = sink.into_events();
            for capacity in 1..=events.len().div_ceil(8) + 1 {
                let mut folded = crate::span::SpanRecorder::with_capacity(capacity);
                for event in &events {
                    folded.apply(event);
                }
                let want = folded.tree(Vec::new(), Vec::new()).to_json();
                assert_eq!(run(None, capacity).to_json(), want, "{input:?}, capacity {capacity}");
            }
        }
    }

    #[test]
    fn trace_records_dfa_path_and_stats_match_untraced_run() {
        use crate::trace::RingSink;
        let (g, a) = setup(FIG1);
        let input = "unsigned unsigned int x";
        let mut sink = RingSink::unbounded();
        let (_, traced) = parse_text_traced(&g, &a, input, "s", NopHooks, &mut sink).unwrap();
        let (_, untraced) = parse_text(&g, &a, input, "s", NopHooks).unwrap();
        assert_eq!(traced, untraced, "tracing must not change the counters");
        let path = sink
            .events()
            .find_map(|e| match e {
                TraceEvent::PredictStop { path, .. } => Some(path.clone()),
                _ => None,
            })
            .expect("at least one prediction");
        assert_eq!(path[0], 0, "paths start at DFA state 0");
        assert!(path.len() >= 2, "the k=4 decision walks several states: {path:?}");
    }

    #[test]
    fn sempred_and_syntax_error_events_are_traced() {
        use crate::trace::RingSink;
        let src = r#"
            grammar TS;
            s : {isTypeName}? ID ID ';' | ID '=' INT ';' ;
            ID : [a-zA-Z_]+ ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
        "#;
        let (g, a) = setup(src);
        let mut hooks = MapHooks::new();
        hooks.on_pred("isTypeName", |_| true);
        let mut sink = RingSink::unbounded();
        parse_text_traced(&g, &a, "T x ;", "s", hooks, &mut sink).unwrap();
        assert!(
            sink.events().any(|e| matches!(e, TraceEvent::Sempred { outcome: true, .. })),
            "sempred evaluation must be traced"
        );

        let mut sink = RingSink::unbounded();
        let err = parse_text_traced(&g, &a, "x = ;", "s", NopHooks, &mut sink);
        assert!(err.is_err());
        assert!(
            sink.events().any(|e| matches!(e, TraceEvent::SyntaxError { .. })),
            "the failure must appear in the trace"
        );
    }

    /// Predicate hooks get the grammar's predicate text, from prediction
    /// (`isTypeName`, which decides between `stat`'s first two
    /// alternatives) and from a rule body (`bang`, mid-sequence), at the
    /// same positions whether or not anything listens; each traced
    /// `Sempred` event carries that text, position and outcome.
    #[test]
    fn sempred_hooks_and_trace_see_the_predicate_text() {
        use crate::trace::RingSink;
        use std::{cell::RefCell, rc::Rc};
        let src = r#"
            grammar SP;
            s : stat+ ;
            stat : {isTypeName}? ID ID ';' | ID ID ';' | '!' {bang}? ID ';' ;
            ID : [a-zA-Z_]+ ;
            WS : [ ]+ -> skip ;
        "#;
        let (g, a) = setup(src);
        let input = "T x ; ! y ; z w ;";
        let outcome = |text: &str, at: usize| text == "bang" || at < 5;
        let run = |sink: Option<&mut RingSink>| {
            let calls = Rc::new(RefCell::new(Vec::new()));
            let mut hooks = MapHooks::new();
            for text in ["isTypeName", "bang"] {
                let calls = Rc::clone(&calls);
                hooks.on_pred(text, move |ctx| {
                    calls.borrow_mut().push((text.to_string(), ctx.token_index));
                    outcome(text, ctx.token_index)
                });
            }
            let scanner = g.lexer.build().unwrap();
            let mut parser = Parser::new(&g, &a, lex_stream(&scanner, &a, input).unwrap(), hooks);
            if let Some(sink) = sink {
                parser.set_trace_sink(sink);
            }
            let tree = parser.parse_to_eof("s").unwrap();
            let calls = calls.borrow().clone();
            (tree, calls)
        };
        let (plain_tree, plain_calls) = run(None);
        let mut sink = RingSink::unbounded();
        let (traced_tree, traced_calls) = run(Some(&mut sink));
        assert_eq!(plain_tree, traced_tree);
        assert_eq!(plain_calls, traced_calls, "listening changed the hook calls");
        // `s`'s loop decision and `stat`'s both evaluate `isTypeName` at
        // token 0; `bang` runs after the `!` is matched.
        let calls: Vec<(&str, usize)> =
            plain_calls.iter().map(|(t, at)| (t.as_str(), *at)).collect();
        assert_eq!(calls, [("isTypeName", 0), ("isTypeName", 0), ("bang", 4), ("isTypeName", 6)]);
        let events: Vec<(String, usize, bool)> = sink
            .events()
            .filter_map(|e| match e {
                TraceEvent::Sempred { pred, token_index, outcome } => {
                    Some((pred.clone(), *token_index, *outcome))
                }
                _ => None,
            })
            .collect();
        let want: Vec<(String, usize, bool)> = plain_calls
            .into_iter()
            .map(|(text, at)| (text.clone(), at, outcome(&text, at)))
            .collect();
        assert_eq!(events, want);
    }

    #[test]
    fn lexer_error_propagates() {
        let (g, a) = setup("grammar L; s : A ; A:'a';");
        let err = parse_text(&g, &a, "%", "s", NopHooks).unwrap_err();
        assert!(err.contains("no lexer rule"), "{err}");
    }

    const STMTS: &str = r#"
        grammar R;
        s : stat+ ;
        stat : ID '=' expr ';' ;
        expr : INT ;
        ID : [a-z]+ ;
        INT : [0-9]+ ;
        WS : [ ]+ -> skip ;
    "#;

    fn recover(src: &str, input: &str, rule: &str) -> (ParseTree, Vec<ParseError>, ParseStats) {
        let (g, a) = setup(src);
        parse_text_recovering(&g, &a, input, rule, NopHooks, 100).unwrap()
    }

    #[test]
    fn recovery_inserts_missing_token() {
        // `a 1 ;` — the `=` is missing; INT can follow it, so recovery
        // synthesizes the `=` without consuming input.
        let (g, a) = setup(STMTS);
        let (tree, errors, stats) =
            parse_text_recovering(&g, &a, "a 1 ; b = 2 ;", "s", NopHooks, 100).unwrap();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(stats.tokens_inserted, 1);
        assert_eq!(tree.error_node_count(), 1);
        let sexpr = tree.to_sexpr(&g, "a 1 ; b = 2 ;");
        assert!(sexpr.contains("<missing '='>"), "{sexpr}");
        // The second statement parses normally after recovery.
        assert!(sexpr.contains("\"b\""), "{sexpr}");
    }

    #[test]
    fn recovery_deletes_extraneous_token() {
        // `a = = 1 ;` — the second `=` is extraneous; la(2) is the INT
        // the parser wants, so recovery deletes one token.
        let (tree, errors, stats) = recover(STMTS, "a = = 1 ;", "s");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(stats.tokens_deleted, 1);
        assert_eq!(tree.error_node_count(), 1);
        assert!(errors[0].to_string().contains("expected"), "{}", errors[0]);
    }

    #[test]
    fn recovery_syncs_to_follow_set() {
        // `+ +` after `=` can be neither deleted (la(2) is another `+`)
        // nor bridged by a single insertion; recovery skips to expr's
        // dynamic follow (`;`) and returns a partial expr.
        let src = r#"
            grammar RS;
            s : stat+ ;
            stat : ID '=' expr ';' ;
            expr : INT ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            PLUS : '+' ;
            WS : [ ]+ -> skip ;
        "#;
        let (tree, errors, stats) = recover(src, "a = + + 1 ; c = 2 ;", "s");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(stats.tokens_skipped, 3, "`+ + 1` all land in the error node");
        assert_eq!(tree.error_node_count(), 1);
        // The trailing statement still parses.
        assert_eq!(tree.token_count(), 3 + 4, "a = ; plus c = 2 ;");
    }

    #[test]
    fn recovery_cascade_is_suppressed() {
        // `a = b ;` — `b` is in the resync set (an ID can start the next
        // stat), so expr returns empty, and the follow-up mismatch at `;`
        // silently deletes `b`: one reported error, not a cascade.
        let (tree, errors, stats) = recover(STMTS, "a = b ; c = 2 ;", "s");
        assert_eq!(errors.len(), 1, "cascades collapse to one report: {errors:?}");
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.tokens_deleted, 1, "`b` is silently deleted");
        assert_eq!(tree.token_count(), 3 + 4);
    }

    #[test]
    fn recovery_collects_multiple_errors_in_one_pass() {
        let input = "a 1 ; b = ; c = x ; d = 4 ;";
        let (g, a) = setup(STMTS);
        let (tree, errors, stats) =
            parse_text_recovering(&g, &a, input, "s", NopHooks, 100).unwrap();
        assert_eq!(errors.len(), 3, "{errors:?}");
        // Two insertions, plus a sync-return and a silent deletion for
        // the third corruption site.
        assert_eq!(tree.error_node_count(), 4);
        assert_eq!(stats.recoveries, 3);
        // Errors arrive in input order with correct positions.
        let cols: Vec<u32> = errors.iter().map(|e| e.token.col).collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted, "errors must be reported in input order");
        // The last statement is intact.
        let sexpr = tree.to_sexpr(&g, input);
        assert!(sexpr.contains("\"d\""), "{sexpr}");
    }

    #[test]
    fn clean_input_identical_with_recovery_enabled() {
        let input = "a = 1 ; b = 2 ;";
        let (g, a) = setup(STMTS);
        let (strict_tree, strict_stats) = parse_text(&g, &a, input, "s", NopHooks).unwrap();
        let (tree, errors, stats) =
            parse_text_recovering(&g, &a, input, "s", NopHooks, 100).unwrap();
        assert!(errors.is_empty());
        assert_eq!(tree, strict_tree, "recovery must not perturb clean parses");
        assert_eq!(stats, strict_stats, "recovery must not perturb clean stats");
    }

    #[test]
    fn recovery_caps_at_max_errors() {
        let input = "a 1 ; b = ; c = x ; d = 4 ;";
        let (g, a) = setup(STMTS);
        let err = parse_text_recovering(&g, &a, input, "s", NopHooks, 1).unwrap_err();
        assert!(err.contains("expected"), "{err}");
        // max_errors = 0 behaves like the strict engine.
        assert!(parse_text_recovering(&g, &a, input, "s", NopHooks, 0).is_err());
    }

    #[test]
    fn no_viable_recovery_skips_to_viable_token() {
        let src = r#"
            grammar NV;
            s : stat+ ;
            stat : ID '=' INT ';' | '!' ID ';' ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
        "#;
        // `= 1 ;` matches no alternative of stat; recovery consumes up to
        // the `!` (which can start a stat) and retries the decision.
        let (tree, errors, _) = recover(src, "= 1 ; ! x ;", "s");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            matches!(&errors[0].kind, ParseErrorKind::NoViableAlternative { expected, .. }
                if !expected.is_empty()),
            "{errors:?}"
        );
        // The skipped tokens land in an error node inside the retried
        // stat, which then matches `! x ;` normally.
        assert_eq!(tree.error_node_count(), 1);
        assert_eq!(tree.token_count(), 3, "! x ; survives");
    }

    #[test]
    fn eof_trailing_junk_recovered() {
        let (tree, errors, stats) = recover("grammar P; s : A ; A : 'a' ;", "aa", "s");
        assert_eq!(errors.len(), 1);
        assert!(
            matches!(&errors[0].kind, ParseErrorKind::Mismatch { expected_names, .. }
                if expected_names == &["EOF".to_string()]),
            "{errors:?}"
        );
        assert_eq!(tree.error_node_count(), 1, "trailing junk lands in an error node");
        assert_eq!(stats.tokens_skipped, 1);
    }

    #[test]
    fn recovery_never_engages_during_speculation() {
        let (g, a) = setup(FIG2);
        let (strict_tree, _) = parse_text(&g, &a, "- - x", "t", NopHooks).unwrap();
        let (tree, errors, stats) =
            parse_text_recovering(&g, &a, "- - x", "t", NopHooks, 100).unwrap();
        assert!(errors.is_empty(), "speculative failures are not user errors: {errors:?}");
        assert_eq!(tree, strict_tree);
        assert!(stats.total_backtrack_events() > 0, "the input still backtracks");
        assert_eq!(stats.recoveries, 0);
    }

    #[test]
    fn recovery_trace_event_counts_agree_with_stats() {
        use crate::trace::RingSink;
        let (g, a) = setup(STMTS);
        let input = "a 1 ; b = ; c = x ; d = 4 ;";
        let mut sink = RingSink::unbounded();
        let (_, errors, stats) =
            parse_text_recovering_traced(&g, &a, input, "s", NopHooks, 100, &mut sink).unwrap();
        let events: Vec<_> = sink.into_events();
        assert_eq!(
            events.iter().filter(|e| matches!(e, TraceEvent::Recover { .. })).count(),
            errors.len()
        );
        let tally = stats_tally(&stats);
        assert_eq!(event_tally(&events), tally, "recovery tally agrees with the stream");
        assert!(tally[5] > 0 && tally[6] > 0 && tally[7] > 0, "{tally:?}");
    }

    #[test]
    fn recovered_errors_render_diagnostics() {
        use crate::diagnostics::{diagnostics_jsonl, Diagnostic};
        let (g, a) = setup(STMTS);
        let input = "a 1 ; b = ; c = x ; d = 4 ;";
        let (_, errors, _) = parse_text_recovering(&g, &a, input, "s", NopHooks, 100).unwrap();
        let diags = Diagnostic::from_errors(&g, &errors);
        assert_eq!(diags.len(), 3);
        let jsonl = diagnostics_jsonl(&diags);
        assert_eq!(jsonl.lines().count(), 4, "schema header + one line per diagnostic");
        for line in jsonl.lines().skip(1) {
            assert!(line.starts_with("{\"type\":\"diagnostic\",\"kind\":"), "{line}");
        }
        let rendered = diags[0].render(input, "input.txt");
        assert!(rendered.contains("--> input.txt:1:"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn memo_slots_round_trip_and_oversized_stops_stay_vacant() {
        let mut table = MemoTable::new(2);
        let last = (u32::MAX - MEMO_SUCCESS_BASE) as usize;
        for (pos, entry) in [
            MemoEntry::Failure,
            MemoEntry::Success(0),
            MemoEntry::Success(7),
            MemoEntry::Success(last),
        ]
        .into_iter()
        .enumerate()
        {
            table.set(1, pos, entry);
            assert_eq!(table.get(1, pos), entry);
        }
        assert_eq!(table.get(1, 99), MemoEntry::Vacant, "past the row's end");
        assert_eq!(table.get(0, 0), MemoEntry::Vacant, "untouched row");
        for stop in [last + 1, u32::MAX as usize, usize::MAX] {
            table.set(0, 3, MemoEntry::Success(stop));
            assert_eq!(table.get(0, 3), MemoEntry::Vacant, "stop {stop} is not memoized");
        }
    }

    /// Parses `input` with a fresh parser; returns the tree and stats.
    fn fresh_parse(g: &Grammar, a: &GrammarAnalysis, input: &str) -> (String, ParseStats) {
        let scanner = g.lexer.build().unwrap();
        let mut parser =
            Parser::new(g, a, TokenStream::new(scanner.tokenize(input).unwrap()), NopHooks);
        let tree = parser.parse_to_eof("t").unwrap();
        (format!("{tree:?}"), parser.stats())
    }

    #[test]
    fn reset_to_a_shorter_input_hits_no_stale_memo_entry() {
        let (g, a) = setup(FIG2);
        let scanner = g.lexer.build().unwrap();
        // The long input memoizes the `'-'* ID` predicate failing at
        // token 0; the short one needs it to succeed there.
        let long = "- - - - - - - - 7";
        let short = "- - x";
        let mut parser =
            Parser::new(&g, &a, TokenStream::new(scanner.tokenize(long).unwrap()), NopHooks);
        parser.parse_to_eof("t").unwrap();
        assert!(parser.stats().memo_entries > 0, "the long parse memoizes");
        parser.reset(TokenStream::new(scanner.tokenize(short).unwrap()));
        for table in [&parser.memo_rules, &parser.memo_preds] {
            for row in 0..table.rows.len() {
                for pos in 0..long.len() {
                    assert_eq!(table.get(row, pos), MemoEntry::Vacant, "stale ({row}, {pos})");
                }
            }
        }
        let tree = parser.parse_to_eof("t").unwrap();
        assert_eq!((format!("{tree:?}"), parser.stats()), fresh_parse(&g, &a, short));
    }

    #[test]
    fn stops_past_the_slot_range_are_not_memoized_and_leave_the_parse_unchanged() {
        // `t`'s decision is not LL(*) (`x` nests), so prediction
        // speculates `x ';'`, then `x '!'`, at token 0: the second
        // speculation reads `x` back from the memo.
        let src = r#"
            grammar Nest;
            options { backtrack = true; m = 1; }
            t : x ';' | x '!' | x '?' ;
            x : '(' x ')' | ID ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        "#;
        let (g, a) = setup(src);
        let scanner = g.lexer.build().unwrap();
        let input = "( a ) ?";
        let mut parser =
            Parser::new(&g, &a, TokenStream::new(scanner.tokenize(input).unwrap()), NopHooks);
        // Offer every slot a stop one past what a `u32` slot can encode;
        // none may be stored, so the parse must run as if untouched.
        let oversized = MemoEntry::Success((u32::MAX - MEMO_SUCCESS_BASE) as usize + 1);
        for table in [&mut parser.memo_rules, &mut parser.memo_preds] {
            for row in 0..table.rows.len() {
                for pos in 0..=input.len() {
                    table.set(row, pos, oversized);
                    assert_eq!(table.get(row, pos), MemoEntry::Vacant);
                }
            }
        }
        let tree = parser.parse_to_eof("t").unwrap();
        let (fresh_tree, fresh_stats) = fresh_parse(&g, &a, input);
        assert!(fresh_stats.memo_hits > 0, "the input exercises the memo table");
        assert_eq!((format!("{tree:?}"), parser.stats()), (fresh_tree, fresh_stats));
    }
}
