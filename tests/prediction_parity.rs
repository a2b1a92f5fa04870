//! Compiled-table prediction parity: routing the interpreter through the
//! dense [`CompiledTables`] dispatch must be **byte identical** to the
//! linear `DfaState::edges` scan (reached through an analysis whose
//! tables are disabled) — same parse trees, same `TraceEvent` JSONL
//! stream (DFA paths included), same coverage JSON — over every suite
//! grammar and its full corpus. Plus property tests: randomly generated
//! DFAs round-trip through the lowering (the compiled tables agree with
//! the linear scan on accept/default/pred behavior over random token
//! strings).
//!
//! [`CompiledTables`]: llstar::core::CompiledTables

use llstar::core::{CompiledDfa, TokenClasses, NO_TARGET};
use llstar::runtime::{NopHooks, Parser, TokenStream};
use llstar_core::dfa::{DfaState, LookaheadDfa};
use llstar_core::{DecisionId, PredSource};
use llstar_grammar::SynPredId;
use llstar_lexer::TokenType;
use llstar_rng::Rng64;

mod common;
use common::{input_files, interp_corpus, linear, load_grammar, read_inputs, SUITE_STEMS};

#[test]
fn compiled_dispatch_is_byte_identical_over_the_corpus() {
    for stem in SUITE_STEMS {
        let (g, a) = load_grammar(stem);
        assert!(a.tables.enabled(), "{stem}: suite grammars must lower");
        let inputs = read_inputs(&input_files(stem));
        let c = interp_corpus(&g, &a, &inputs);
        let l = interp_corpus(&g, &linear(&a), &inputs);
        assert_eq!(c.trees, l.trees, "{stem}: parse trees diverged");
        assert_eq!(c.trace, l.trace, "{stem}: trace streams diverged");
        assert_eq!(c.coverage, l.coverage, "{stem}: coverage JSON diverged");
        assert!(!c.trace.is_empty() && c.trace.contains("predict-stop"));
    }
}

#[test]
fn error_positions_match_across_dispatch_modes() {
    // No-viable paths exercise the pred/default fallback ordering; the
    // reported errors must match exactly too.
    for (stem, junk) in
        [("calculator", "1 + + 2"), ("json", "{\"a\": }"), ("config", "[section\nkey =")]
    {
        let (g, compiled) = load_grammar(stem);
        let start = g.start_rule().name.clone();
        let scanner = g.lexer.build().expect("lexer builds");
        let Ok(tokens) = scanner.tokenize(junk) else { continue };
        let mut errors = Vec::new();
        for a in [&compiled, &linear(&compiled)] {
            let mut parser = Parser::new(&g, a, TokenStream::new(tokens.clone()), NopHooks);
            let err = parser.parse_to_eof(&start).expect_err("junk input must fail");
            errors.push(format!("{err:?}"));
        }
        assert_eq!(errors[0], errors[1], "{stem}: errors diverged on {junk:?}");
    }
}

// ---------------------------------------------------------------------
// Random-DFA lowering round-trip properties
// ---------------------------------------------------------------------

/// A random, structurally valid lookahead DFA: every state gets random
/// token edges (deduplicated per token), and terminal shapes — accept,
/// predicates, default — are sprinkled in.
fn random_dfa(rng: &mut Rng64, vocab: usize) -> LookaheadDfa {
    let num_states = rng.gen_range(1usize..=24);
    let mut dfa = LookaheadDfa::new(DecisionId(0));
    dfa.states.resize_with(num_states, DfaState::default);
    for s in 0..num_states {
        if rng.gen_bool(0.25) {
            dfa.states[s].accept = Some(rng.gen_range(1u16..=4));
            continue; // accept states need no edges
        }
        let fanout = rng.gen_range(0usize..=vocab.min(6));
        for _ in 0..fanout {
            let tok = TokenType(rng.gen_range(0u32..vocab as u32));
            let target = rng.gen_range(0usize..num_states);
            if dfa.states[s].edges.iter().all(|&(t, _)| t != tok) {
                dfa.states[s].edges.push((tok, target));
            }
        }
        if rng.gen_bool(0.2) {
            let n_preds = rng.gen_range(1usize..=2);
            for _ in 0..n_preds {
                let alt = rng.gen_range(1u16..=4);
                let sp = SynPredId(rng.gen_range(0u32..3));
                let pred =
                    if rng.gen_bool(0.5) { PredSource::Syn(sp) } else { PredSource::NotSyn(sp) };
                dfa.states[s].preds.push((pred, alt));
            }
        }
        if rng.gen_bool(0.3) {
            dfa.states[s].default_alt = Some(rng.gen_range(1u16..=4));
        }
    }
    dfa
}

/// Asserts `compiled` agrees with the linear scan of `dfa` at every
/// state: accept/default/pred side tables, and the transition function
/// over the whole vocabulary.
fn assert_lowering_matches(dfa: &LookaheadDfa, classes: &TokenClasses, compiled: &CompiledDfa) {
    for (s, st) in dfa.states.iter().enumerate() {
        assert_eq!(compiled.accept_alt(s), st.accept, "accept of s{s}");
        assert_eq!(compiled.default_of(s), st.default_alt, "default of s{s}");
        assert_eq!(compiled.preds_of(s), st.preds.as_slice(), "preds of s{s}");
        for t in 0..classes.map().len() as u32 {
            let token = TokenType(t);
            let linear = st.target(token).map(|x| x as u32).unwrap_or(NO_TARGET);
            let lowered = compiled.next(s, classes.class_of(token));
            assert_eq!(lowered, linear, "transition s{s} --t{t}-->");
        }
    }
}

/// Walks a random token string through the DFA with both dispatches and
/// asserts the state sequences and terminal outcomes agree.
fn walk_both(dfa: &LookaheadDfa, classes: &TokenClasses, compiled: &CompiledDfa, rng: &mut Rng64) {
    let vocab = classes.map().len() as u32;
    let mut cur = 0usize;
    for _ in 0..64 {
        let tok = TokenType(rng.gen_range(0u32..vocab));
        let linear = dfa.states[cur].target(tok);
        let lowered = match compiled.next(cur, classes.class_of(tok)) {
            NO_TARGET => None,
            t => Some(t as usize),
        };
        assert_eq!(lowered, linear, "walk diverged at s{cur} on t{}", tok.0);
        match linear {
            Some(next) if compiled.accept_alt(next).is_none() => cur = next,
            Some(next) => {
                assert_eq!(compiled.accept_alt(next), dfa.states[next].accept);
                cur = 0; // restart at accept, like repeated predictions
            }
            None => cur = 0, // restart on a dead token
        }
    }
}

#[test]
fn random_dfas_round_trip_through_lowering() {
    let mut rng = Rng64::seed_from_u64(0xD15BA7C4);
    for round in 0..200 {
        let vocab = rng.gen_range(2usize..=40);
        let dfa = random_dfa(&mut rng, vocab);
        let classes = TokenClasses::compute(vocab, std::iter::once(&dfa))
            .unwrap_or_else(|| panic!("round {round}: partition overflow"));
        assert!(classes.num_classes() <= vocab.max(1));
        let compiled = CompiledDfa::lower(&dfa, &classes);
        assert_lowering_matches(&dfa, &classes, &compiled);
        walk_both(&dfa, &classes, &compiled, &mut rng);
    }
}

#[test]
fn lowering_is_deterministic() {
    let mut rng = Rng64::seed_from_u64(42);
    let dfa = random_dfa(&mut rng, 16);
    let classes = TokenClasses::compute(16, std::iter::once(&dfa)).expect("partition fits");
    let a = CompiledDfa::lower(&dfa, &classes);
    let b = CompiledDfa::lower(&dfa, &classes);
    assert_eq!(a.next, b.next);
    assert_eq!(a.accept, b.accept);
    assert_eq!(a.default_alt, b.default_alt);
    assert_eq!(a.preds, b.preds);
    assert_eq!(TokenClasses::compute(16, std::iter::once(&dfa)).expect("partition fits"), classes);
}
