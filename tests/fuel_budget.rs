//! Per-request budget regression: the fuel cap must contain the
//! pathological backtracking the gauntlet's PEG-mode Java grammar
//! exhibits when packrat memoization is off. Nested lambda-block
//! assignments force a statement-level synpred at every nesting level;
//! memoized speculation stays near-linear, unmemoized speculation
//! re-parses each nested body at every level. The cap must turn that
//! blow-up into a clean, structured [`ResourceLimit`] error — and the
//! session must stay usable afterwards.
//!
//! [`ResourceLimit`]: llstar::runtime::ParseErrorKind::ResourceLimit

use llstar::core::analyze;
use llstar::grammar::{apply_peg_mode, parse_grammar};
use llstar::runtime::{NopHooks, ParseErrorKind, ParseSession, ResourceKind, SessionError};
use llstar_suite::gauntlet::{all, by_name, corpus, Tier};
use std::time::Duration;

/// `class C { void m() { f = () -> { f = () -> { … y = 1; … }; }; } }`
/// — each level nests a lambda block whose statement re-triggers the
/// statement synpred.
fn nested_lambda_input(depth: usize) -> String {
    let mut body = "y = 1;".to_string();
    for _ in 0..depth {
        body = format!("f = () -> {{ {body} }};");
    }
    format!("class C {{ void m() {{ {body} }} }}")
}

#[test]
fn fuel_cap_contains_unmemoized_backtracking() {
    let entry = by_name("java8").expect("gauntlet grammar");
    let grammar = entry.load();
    let analysis = analyze(&grammar);
    let input = nested_lambda_input(8);

    // Baseline: memoized speculation parses this comfortably.
    let mut memoized =
        ParseSession::new(&grammar, &analysis, entry.start_rule, NopHooks).expect("lexer builds");
    memoized.parse_to_eof(&input).expect("memoized parse succeeds");
    let memo_fuel = memoized.parser().fuel_used();
    assert!(memo_fuel > 0, "fuel accounting is live");

    // The serve-style cap: a 16× headroom over the memoized cost is
    // generous for legitimate traffic, yet the unmemoized blow-up still
    // exhausts it — which both proves the blow-up is super-linear and
    // keeps this test's runtime bounded by the cap instead of by the
    // (astronomical) uncapped re-parse cost.
    let cap = memo_fuel * 16;
    let mut capped =
        ParseSession::new(&grammar, &analysis, entry.start_rule, NopHooks).expect("lexer builds");
    capped.parser().set_memoize(false);
    capped.set_fuel_limit(Some(cap));
    match capped.parse_to_eof(&input) {
        Err(SessionError::Parse(e)) => {
            assert_eq!(
                e.kind,
                ParseErrorKind::ResourceLimit { resource: ResourceKind::Fuel, limit: cap },
                "budget abort must not be masked by a speculation error: {e}"
            );
        }
        other => panic!("capped unmemoized parse must exhaust fuel, got {other:?}"),
    }

    // Partial failure is clean: the same session still parses small
    // inputs under the same cap.
    capped
        .parse_to_eof("class C { void m() { y = 1; } }")
        .expect("session usable after a budget abort");
}

/// The smoke corpus seed (the gauntlet oracle's).
const SMOKE_SEED: u64 = 0x11_57a2_2011;

/// Interpreter steps per smoke-tier gauntlet file, as the ATN-walking
/// interpreter counted them one state at a time. The op-table
/// interpreter charges each collapsed ε move as one step, so fuel caps
/// keep their meaning.
const SMOKE_FUEL: [(&str, [u64; 3]); 3] =
    [("java8", [18790, 18524, 15684]), ("sql", [7875, 7721, 7939]), ("json", [3164, 3321, 3025])];

#[test]
fn fuel_used_per_smoke_file_is_pinned() {
    for entry in all() {
        let (_, want) = SMOKE_FUEL.iter().find(|(name, _)| *name == entry.name).expect("pinned");
        let grammar = entry.load();
        let analysis = analyze(&grammar);
        let mut session = ParseSession::new(&grammar, &analysis, entry.start_rule, NopHooks)
            .expect("lexer builds");
        let files = corpus(&entry, Tier::Smoke, SMOKE_SEED);
        assert_eq!(files.len(), want.len(), "{}", entry.name);
        for ((label, text), &fuel) in files.iter().zip(want) {
            session.parse_to_eof(text).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(session.parser().fuel_used(), fuel, "{label}");
        }
    }
}

/// `stat`'s `((ID))` leaves a two-move ε run after its `ID`, and every
/// rule's last element an ε run into its stop state.
const EPS_RUNS: &str = r#"
    grammar Eps;
    s : stat+ ;
    stat : ((ID)) '=' expr ';' | ';' ;
    expr : term ('+' term)* ;
    term : ((INT)) | ID ;
    ID : [a-z]+ ;
    INT : [0-9]+ ;
    WS : [ ]+ -> skip ;
"#;

/// Every fuel cap below the parse's cost, including those that run out
/// inside a collapsed ε run, aborts at the token the one-state-at-a-time
/// interpreter stopped at, with the same fuel burned.
#[test]
fn fuel_caps_inside_epsilon_runs_abort_where_single_steps_did() {
    // Token index of the abort for caps 0, 1, …, 60.
    const ABORT_TOKEN: [usize; 61] = [
        0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 6, 6,
        6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 8, 8, 8, 9, 9, 9, 9, 9, 10, 10, 10, 10, 10, 10, 10, 11,
        11, 11, 11,
    ];
    let grammar = apply_peg_mode(parse_grammar(EPS_RUNS).expect("grammar parses"));
    let analysis = analyze(&grammar);
    assert!(analysis.atn.ops.iter().any(|op| op.eps >= 2), "the grammar has multi-move ε runs");
    let input = "x = 1 + y ; ; z = 2 ;";
    for (cap, &token_index) in ABORT_TOKEN.iter().enumerate() {
        let cap = cap as u64;
        let mut session =
            ParseSession::new(&grammar, &analysis, "s", NopHooks).expect("lexer builds");
        session.set_fuel_limit(Some(cap));
        match session.parse_to_eof(input) {
            Err(SessionError::Parse(e)) => {
                let kind =
                    ParseErrorKind::ResourceLimit { resource: ResourceKind::Fuel, limit: cap };
                assert_eq!((e.kind, e.token_index), (kind, token_index), "cap {cap}");
            }
            other => panic!("cap {cap} must abort, got {other:?}"),
        }
        assert_eq!(session.parser().fuel_used(), cap + 1, "cap {cap}");
    }
    let mut session = ParseSession::new(&grammar, &analysis, "s", NopHooks).expect("lexer builds");
    session.set_fuel_limit(Some(ABORT_TOKEN.len() as u64));
    session.parse_to_eof(input).expect("the parse costs exactly 61 steps");
}

/// A deadline already passed trips at the first poll, step 4096, at the
/// token the one-state-at-a-time interpreter stopped at.
#[test]
fn an_expired_deadline_trips_at_the_first_poll() {
    for (name, token_index) in [("java8", 234), ("sql", 527)] {
        let entry = by_name(name).expect("gauntlet grammar");
        let grammar = entry.load();
        let analysis = analyze(&grammar);
        let mut session = ParseSession::new(&grammar, &analysis, entry.start_rule, NopHooks)
            .expect("lexer builds");
        session.set_timeout(Some(Duration::ZERO));
        let (_, text) = &corpus(&entry, Tier::Smoke, SMOKE_SEED)[0];
        match session.parse_to_eof(text) {
            Err(SessionError::Parse(e)) => {
                let kind =
                    ParseErrorKind::ResourceLimit { resource: ResourceKind::Timeout, limit: 0 };
                assert_eq!((e.kind, e.token_index), (kind, token_index), "{name}");
            }
            other => panic!("{name}: an expired deadline must abort, got {other:?}"),
        }
        assert_eq!(session.parser().fuel_used(), 4096, "{name}");
    }
}

/// A loop whose body can match nothing passes validation (with an
/// ambiguity warning) and is predicted into forever; the idle watchdog
/// stops it at the token where it spins, after the same steps as the
/// one-state-at-a-time interpreter.
#[test]
fn the_idle_watchdog_stops_a_loop_that_consumes_nothing() {
    let grammar = apply_peg_mode(
        parse_grammar("grammar Z; s : (A?)* B ; A:'a'; B:'b'; WS:[ ]+ -> skip;")
            .expect("grammar parses"),
    );
    let analysis = analyze(&grammar);
    for (input, token_index, fuel) in [("b", 0, 94), ("a b", 1, 100), ("a a b", 2, 106)] {
        let mut session =
            ParseSession::new(&grammar, &analysis, "s", NopHooks).expect("lexer builds");
        match session.parse_to_eof(input) {
            Err(SessionError::Parse(e)) => {
                let kind = ParseErrorKind::InfiniteLoop { rule: "s".to_string() };
                assert_eq!((e.kind, e.token_index), (kind, token_index), "{input:?}");
            }
            other => panic!("{input:?}: the watchdog must stop the loop, got {other:?}"),
        }
        assert_eq!(session.parser().fuel_used(), fuel, "{input:?}");
    }
}
