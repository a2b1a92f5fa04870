//! Re-entrant parse sessions: build the scanner and parser once, then
//! parse many inputs back to back. [`ParseSession`] keeps the lexer
//! DFA, the parser's memo-table allocations, and all configuration
//! (memoization, recovery, trace sink) warm across
//! inputs via [`Parser::reset`] — the entry point the gauntlet's
//! differential oracle and the bench harness drive when they walk a
//! corpus through one engine configuration.

use crate::error::ParseError;
use crate::hooks::Hooks;
use crate::metrics::{MetricsSnapshot, ParseMetrics};
use crate::parser::Parser;
use crate::stats::ParseStats;
use crate::stream::TokenStream;
use crate::tree::ParseTree;
use llstar_core::GrammarAnalysis;
use llstar_grammar::Grammar;
use llstar_lexer::{LexBuildError, LexError, Scanner, Token};
use std::fmt;

/// A lex or parse failure from [`ParseSession::parse_to_eof`].
#[derive(Debug)]
pub enum SessionError {
    /// The input failed to tokenize.
    Lex(LexError),
    /// The token stream failed to parse (or had trailing input).
    Parse(ParseError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Lex(e) => write!(f, "lex error: {e}"),
            SessionError::Parse(e) => write!(f, "parse error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A long-lived parsing pipeline for one `(grammar, start rule)` pair:
/// scanner built once, parser state recycled between inputs.
pub struct ParseSession<'g, H: Hooks> {
    scanner: Scanner,
    parser: Parser<'g, H>,
    start_rule: String,
    /// Parser token-class map (indexed by token type) when the analysis
    /// lowered its prediction tables; each input is then tokenized with
    /// fused classification so prediction skips the class-map probe.
    class_map: Option<Vec<u8>>,
    parses: u64,
    /// Metric counters accumulated across every input this session has
    /// parsed (the per-parse counters in the parser reset each input;
    /// this is where they add up), plus wall-clock parse latency.
    metrics: ParseMetrics,
}

impl<'g, H: Hooks> ParseSession<'g, H> {
    /// Builds the scanner and parser for `start_rule`.
    ///
    /// # Errors
    /// Returns the lexer-construction error if the grammar's lexer
    /// cannot be built.
    ///
    /// # Panics
    /// Panics if `start_rule` is not a rule of the grammar (a caller
    /// bug, matching [`Parser::parse`]).
    pub fn new(
        grammar: &'g Grammar,
        analysis: &'g GrammarAnalysis,
        start_rule: &str,
        hooks: H,
    ) -> Result<Self, LexBuildError> {
        let scanner = grammar.lexer.build()?;
        Ok(Self::with_scanner(grammar, analysis, start_rule, scanner, hooks))
    }

    /// [`ParseSession::new`] over a scanner the caller already built from
    /// `grammar.lexer` (a daemon builds each grammar's scanner once and
    /// hands every session a clone).
    ///
    /// # Panics
    /// Panics if `start_rule` is not a rule of the grammar.
    pub fn with_scanner(
        grammar: &'g Grammar,
        analysis: &'g GrammarAnalysis,
        start_rule: &str,
        scanner: Scanner,
        hooks: H,
    ) -> Self {
        assert!(grammar.rule_by_name(start_rule).is_some(), "unknown start rule {start_rule:?}");
        let parser =
            Parser::new(grammar, analysis, TokenStream::new(vec![Token::eof(0, 1, 1)]), hooks);
        let metrics = ParseMetrics::new(analysis.atn.decisions.len());
        let class_map = analysis.tables.classes().map(|c| c.map().to_vec());
        ParseSession {
            scanner,
            parser,
            start_rule: start_rule.to_string(),
            class_map,
            parses: 0,
            metrics,
        }
    }

    /// Lexes `source` and parses it to EOF, recycling the parser state
    /// from the previous input. The recorded latency covers lexing and
    /// parsing, as a daemon's request latency does; an input that fails
    /// to lex counts as no parse and records no latency.
    ///
    /// # Errors
    /// Returns [`SessionError::Lex`] when tokenization fails and
    /// [`SessionError::Parse`] when parsing does.
    pub fn parse_to_eof(&mut self, source: &str) -> Result<ParseTree, SessionError> {
        let started = std::time::Instant::now();
        let stream = match &self.class_map {
            Some(map) => TokenStream::new_classified(
                self.scanner.tokenize_classified(source, map).map_err(SessionError::Lex)?,
            ),
            None => TokenStream::new(self.scanner.tokenize(source).map_err(SessionError::Lex)?),
        };
        self.parser.reset(stream);
        self.parses += 1;
        let start = self.start_rule.clone();
        let result = self.parser.parse_to_eof(&start).map_err(SessionError::Parse);
        let micros = started.elapsed().as_micros() as u64;
        if self.parser.metrics().enabled() {
            self.metrics.merge(self.parser.metrics());
            self.metrics.record_latency(micros);
        }
        result
    }

    /// The underlying parser, for configuration (memoization, recovery,
    /// trace sink) and post-parse inspection.
    pub fn parser(&mut self) -> &mut Parser<'g, H> {
        &mut self.parser
    }

    /// Caps interpreter steps per input; `None` lifts the cap. A parse
    /// that exhausts the budget fails with a clean
    /// [`crate::ParseErrorKind::ResourceLimit`] error and the session
    /// stays usable for the next input. The cap persists across inputs.
    pub fn set_fuel_limit(&mut self, limit: Option<u64>) {
        self.parser.set_fuel_limit(limit);
    }

    /// Caps wall-clock per input; `None` lifts the cap. The deadline
    /// re-arms at the start of each parse and trips with
    /// `resource: Timeout`, leaving the session usable like fuel
    /// exhaustion does.
    pub fn set_timeout(&mut self, timeout: Option<std::time::Duration>) {
        self.parser.set_timeout(timeout);
    }

    /// Statistics from the most recent parse (see [`Parser::stats`]).
    pub fn stats(&self) -> ParseStats {
        self.parser.stats()
    }

    /// How many inputs this session has parsed.
    pub fn parses(&self) -> u64 {
        self.parses
    }

    /// Metric counters accumulated over every input parsed so far,
    /// labelled on each call (per-parse counters from
    /// [`Parser::metrics`] reset each input; the session adds them up
    /// as [`ParseMetrics`], with wall-clock latency recorded per parse,
    /// and attaches the fingerprint and rule names only here).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.parser.label_metrics(&self.metrics)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NopHooks;
    use llstar_core::analyze;
    use llstar_grammar::{apply_peg_mode, parse_grammar};

    const DEMO: &str = r#"
    grammar Demo;
    s : stmt* EOF ;
    stmt : ID '=' expr ';' ;
    expr : term ('+' term)* ;
    term : ID | INT ;
    ID : [a-z]+ ;
    INT : [0-9]+ ;
    WS : [ \t\r\n]+ -> skip ;
    "#;

    fn setup() -> (Grammar, GrammarAnalysis) {
        let g = apply_peg_mode(parse_grammar(DEMO).expect("grammar"));
        let a = analyze(&g);
        (g, a)
    }

    fn fresh_parse(g: &Grammar, a: &GrammarAnalysis, input: &str) -> ParseTree {
        let scanner = g.lexer.build().expect("lexer");
        let tokens = TokenStream::new(scanner.tokenize(input).expect("lexes"));
        let mut parser = Parser::new(g, a, tokens, NopHooks);
        parser.parse_to_eof("s").expect("parses")
    }

    #[test]
    fn reparses_match_fresh_parsers() {
        let (g, a) = setup();
        let mut session = ParseSession::new(&g, &a, "s", NopHooks).expect("session");
        for input in ["a = 1;", "b = a + 2;\nc = b + b + 3;", "", "x = y;"] {
            let via_session = session.parse_to_eof(input).expect("session parses");
            let fresh = fresh_parse(&g, &a, input);
            assert_eq!(
                format!("{via_session:?}"),
                format!("{fresh:?}"),
                "session tree differs from fresh parser on {input:?}"
            );
        }
        assert_eq!(session.parses(), 4);
    }

    #[test]
    fn stats_reflect_only_latest_parse() {
        let (g, a) = setup();
        let mut session = ParseSession::new(&g, &a, "s", NopHooks).expect("session");
        session.parse_to_eof("a = 1; b = 2; c = 3;").expect("parses");
        let big: u64 = session.stats().total_events();
        session.parse_to_eof("a = 1;").expect("parses");
        let small = session.stats().total_events();
        assert!(small < big, "stats must reset between parses: {small} !< {big}");
    }

    #[test]
    fn reuse_fully_resets_per_parse_state() {
        // Regression guard for [`Parser::reset`]: every per-parse
        // observability surface — stats, trace stream, metric counters —
        // must come out of a recycled session identical to a fresh
        // parser's, with zero carry-over between inputs.
        let (g, a) = setup();
        let input = "a = b + 1;\nc = a + a + 2;";

        // Reference: one fresh parser over `input`.
        let scanner = g.lexer.build().expect("lexer");
        let mut fresh_sink = crate::trace::RingSink::unbounded();
        let tokens = TokenStream::new(scanner.tokenize(input).expect("lexes"));
        let mut fresh = Parser::new(&g, &a, tokens, NopHooks);
        fresh.set_trace_sink(&mut fresh_sink);
        fresh.parse_to_eof("s").expect("fresh parses");
        let fresh_events = fresh.stats().total_events();
        let fresh_counters = fresh.metrics().clone();
        let fresh_json = fresh.metrics_snapshot().to_json("session", false);
        drop(fresh);
        let fresh_trace = fresh_sink.into_events();

        // Session: the same input parsed twice through recycled state.
        let mut session_sink = crate::trace::RingSink::unbounded();
        let mut session = ParseSession::new(&g, &a, "s", NopHooks).expect("session");
        session.parser().set_trace_sink(&mut session_sink);
        let mut per_parse = Vec::new();
        for round in 0..2 {
            session.parse_to_eof(input).unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(
                session.stats().total_events(),
                fresh_events,
                "round {round}: stats carried over from the previous parse"
            );
            per_parse.push(session.parser().metrics_snapshot().to_json("session", false));
        }
        assert_eq!(per_parse[0], fresh_json, "first session parse differs from a fresh parser");
        assert_eq!(per_parse[0], per_parse[1], "metric counters carried over between inputs");

        // The session-level accumulator is the one place totals are
        // allowed to grow: exactly the fresh counters folded in twice.
        let mut doubled = ParseMetrics::new(a.atn.decisions.len());
        doubled.merge(&fresh_counters);
        doubled.merge(&fresh_counters);
        assert_eq!(
            session.metrics().to_json("session", false),
            session.parser().label_metrics(&doubled).to_json("session", false),
            "session accumulator is not the sum of its parses"
        );

        // Both trace windows must replay the fresh parser's stream
        // exactly.
        drop(session);
        let events = session_sink.into_events();
        assert_eq!(events.len(), fresh_trace.len() * 2, "trace stream length diverged");
        assert_eq!(&events[..fresh_trace.len()], &fresh_trace[..], "first trace window diverged");
        assert_eq!(&events[fresh_trace.len()..], &fresh_trace[..], "trace state carried over");
    }

    #[test]
    fn session_and_registry_sums_agree() {
        // The same parses added up by a session and by a registry slot
        // give the same counters, and both count every parse's latency.
        let (g, a) = setup();
        let registry = crate::metrics::MetricsRegistry::new();
        let (_, rules) = crate::span::labels(&g, &a);
        let handle = registry.handle(a.fingerprint, "session", &rules);
        let mut session = ParseSession::new(&g, &a, "s", NopHooks).expect("session");
        let inputs = ["a = 1;", "b = a + 2;\nc = b + b + 3;", "", "x = y;"];
        for input in inputs {
            session.parse_to_eof(input).expect("parses");
            handle.record(session.parser().metrics(), 0);
        }
        let (by_session, by_registry) = (session.metrics(), handle.snapshot());
        assert_eq!(by_session.to_json("sum", false), by_registry.to_json("sum", false));
        let count = |s: &MetricsSnapshot| s.latency_hist.iter().sum::<u64>();
        assert_eq!(count(&by_session), inputs.len() as u64);
        assert_eq!(count(&by_registry), inputs.len() as u64);
    }

    #[test]
    fn fuel_cap_aborts_cleanly_and_session_stays_usable() {
        use crate::error::{ParseErrorKind, ResourceKind};
        let (g, a) = setup();
        let mut session = ParseSession::new(&g, &a, "s", NopHooks).expect("session");
        let long: String = "a = b + 1;\n".repeat(64);

        session.set_fuel_limit(Some(50));
        let err = session.parse_to_eof(&long).expect_err("50 steps cannot parse 64 statements");
        match err {
            SessionError::Parse(e) => {
                assert_eq!(
                    e.kind,
                    ParseErrorKind::ResourceLimit { resource: ResourceKind::Fuel, limit: 50 },
                    "{e}"
                );
            }
            SessionError::Lex(e) => panic!("expected a parse abort, got lex error {e}"),
        }

        // The cap persists but the budget re-arms per input: a small
        // input fits, and lifting the cap parses the long one.
        session.parse_to_eof("a = 1;").expect("small input fits in 50 steps");
        session.set_fuel_limit(None);
        let tree = session.parse_to_eof(&long).expect("uncapped parse succeeds");
        // The capped run left no residue: the tree matches a fresh parser's.
        assert_eq!(format!("{tree:?}"), format!("{:?}", fresh_parse(&g, &a, &long)));
    }

    #[test]
    fn capped_runs_are_deterministic() {
        use crate::error::{ParseErrorKind, ResourceKind};
        let (g, a) = setup();
        let long: String = "a = b + 1;\n".repeat(64);
        let errs: Vec<String> = (0..2)
            .map(|_| {
                let mut session = ParseSession::new(&g, &a, "s", NopHooks).expect("session");
                session.set_fuel_limit(Some(200));
                match session.parse_to_eof(&long) {
                    Err(SessionError::Parse(e)) => {
                        assert!(matches!(
                            e.kind,
                            ParseErrorKind::ResourceLimit { resource: ResourceKind::Fuel, .. }
                        ));
                        format!("{e} @ token {}", e.token_index)
                    }
                    other => panic!("expected fuel abort, got {other:?}"),
                }
            })
            .collect();
        assert_eq!(errs[0], errs[1], "fuel aborts must be reproducible");
    }

    #[test]
    fn timeout_aborts_long_parses() {
        use crate::error::{ParseErrorKind, ResourceKind};
        let (g, a) = setup();
        let mut session = ParseSession::new(&g, &a, "s", NopHooks).expect("session");
        session.set_timeout(Some(std::time::Duration::ZERO));
        // The deadline is polled every 4096 interpreter steps, so the
        // input must be big enough to reach the first poll.
        let long: String = "a = b + 1;\n".repeat(2048);
        let err = session.parse_to_eof(&long).expect_err("a zero deadline must trip");
        match err {
            SessionError::Parse(e) => assert!(
                matches!(
                    e.kind,
                    ParseErrorKind::ResourceLimit { resource: ResourceKind::Timeout, .. }
                ),
                "{e}"
            ),
            SessionError::Lex(e) => panic!("expected a parse abort, got lex error {e}"),
        }
        session.set_timeout(None);
        session.parse_to_eof("a = 1;").expect("session stays usable after a timeout");
    }

    #[test]
    fn lex_and_parse_errors_are_distinguished() {
        let (g, a) = setup();
        let mut session = ParseSession::new(&g, &a, "s", NopHooks).expect("session");
        assert!(matches!(session.parse_to_eof("a = ?;"), Err(SessionError::Lex(_))));
        assert!(matches!(session.parse_to_eof("a = ;"), Err(SessionError::Parse(_))));
        // The session stays usable after both failure modes.
        session.parse_to_eof("a = 1;").expect("recovers");
    }

    #[test]
    fn lex_errors_record_no_parse_and_no_latency() {
        let (g, a) = setup();
        let mut session = ParseSession::new(&g, &a, "s", NopHooks).expect("session");
        session.parse_to_eof("a = 1;").expect("parses");
        let samples = |s: &ParseSession<'_, NopHooks>| s.metrics().latency_hist.iter().sum::<u64>();
        let (parses, latencies) = (session.parses(), samples(&session));
        assert_eq!((parses, latencies), (1, 1));
        assert!(matches!(session.parse_to_eof("a = ?;"), Err(SessionError::Lex(_))));
        assert_eq!(session.parses(), parses, "a lex failure counted as a parse");
        assert_eq!(samples(&session), latencies, "a lex failure recorded a latency sample");
    }

    #[test]
    fn sessions_over_a_shared_scanner_parse_like_fresh_ones() {
        let (g, a) = setup();
        let scanner = g.lexer.build().expect("lexer");
        let mut shared = ParseSession::with_scanner(&g, &a, "s", scanner.clone(), NopHooks);
        let mut own = ParseSession::new(&g, &a, "s", NopHooks).expect("session");
        for input in ["a = 1;", "b = a + 2;\nc = b + b + 3;"] {
            let (x, y) = (shared.parse_to_eof(input).expect("parses"), own.parse_to_eof(input));
            assert_eq!(format!("{x:?}"), format!("{:?}", y.expect("parses")));
        }
    }
}
