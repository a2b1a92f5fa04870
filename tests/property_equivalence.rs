//! Cross-engine property tests: sentences produced by random derivation
//! of a grammar must be accepted by the LL(*) engine, by generated
//! parsers' prediction machinery (indirectly, via the same DFAs), and —
//! for PEG-compatible grammars — by the packrat baseline.

mod common;

use llstar::core::{analyze, analyze_cached};
use llstar::grammar::{apply_peg_mode, parse_grammar, rewrite_left_recursion, Grammar};
use llstar::packrat::PackratParser;
use llstar::runtime::{parse_text, NopHooks};
use llstar_suite::sample_sentence;

/// Mini-grammars exercising distinct analysis regimes. Each is written
/// so PEG ordered choice and LL(*) order-based ambiguity resolution
/// agree (no alternative's language is a strict prefix trap).
const MINI_GRAMMARS: &[(&str, &str, &str)] = &[
    (
        "ll1",
        "s",
        "grammar M; s : 'a' x 'z' | 'b' x ; x : C* ; C : 'c' ; WS : [ ]+ -> skip ;",
    ),
    (
        "llk",
        "s",
        "grammar M; s : A B C | A B D | A C ; A:'a'; B:'b'; C:'c'; D:'d'; WS : [ ]+ -> skip ;",
    ),
    (
        "cyclic",
        "s",
        "grammar M; s : A* X Y | A* X Z ; A:'a'; X:'x'; Y:'y'; Z:'z'; WS : [ ]+ -> skip ;",
    ),
    (
        "recursive",
        "e",
        "grammar M; e : '(' e ')' | '[' e ']' | INT ; INT : [0-9]+ ; WS : [ ]+ -> skip ;",
    ),
    (
        "peggy",
        "s",
        "grammar M; options { backtrack = true; } s : x '!' | x '?' ; x : '(' x ')' | ID ; ID : [a-z]+ ; WS : [ ]+ -> skip ;",
    ),
    (
        "stmtish",
        "p",
        r#"grammar M;
           p : st+ ;
           st : 'if' e 'then' st 'else' st 'end'
              | 'print' e ';'
              | ID '=' e ';'
              ;
           e : t ('+' t)* ;
           t : ID | INT | '(' e ')' ;
           ID : [a-z]+ ;
           INT : [0-9]+ ;
           WS : [ \t\r\n]+ -> skip ;"#,
    ),
];

fn load(src: &str) -> Grammar {
    apply_peg_mode(parse_grammar(src).expect("mini grammar parses"))
}

#[test]
fn sampled_sentences_parse_with_llstar() {
    for (name, start, src) in MINI_GRAMMARS {
        let g = load(src);
        let a = analyze(&g);
        let mut produced = 0;
        for seed in 0..60u64 {
            let Some(sentence) = sample_sentence(&g, start, seed, 8) else {
                continue;
            };
            produced += 1;
            let result = parse_text(&g, &a, &sentence, start, NopHooks);
            assert!(
                result.is_ok(),
                "{name}: derived sentence rejected: {sentence:?}: {}",
                result.unwrap_err()
            );
            // The tree must cover every token.
            let scanner = g.lexer.build().unwrap();
            let n_tokens = scanner.tokenize(&sentence).unwrap().len() - 1;
            let (tree, _) = parse_text(&g, &a, &sentence, start, NopHooks).unwrap();
            let covered = tree.token_count();
            assert!(
                covered == n_tokens || covered == n_tokens + 1,
                "{name}: {sentence:?}: tree covers {covered}/{n_tokens}"
            );
        }
        assert!(produced >= 20, "{name}: only {produced} sentences sampled");
    }
}

#[test]
fn llstar_and_packrat_agree_on_mini_grammars() {
    for (name, start, src) in MINI_GRAMMARS {
        let g = load(src);
        let a = analyze(&g);
        let scanner = g.lexer.build().unwrap();
        for seed in 0..40u64 {
            let Some(sentence) = sample_sentence(&g, start, seed, 8) else {
                continue;
            };
            // Valid sentences: both engines accept.
            let ll = parse_text(&g, &a, &sentence, start, NopHooks).is_ok();
            let tokens = scanner.tokenize(&sentence).unwrap();
            let mut packrat = PackratParser::new(&g, tokens);
            let pk = packrat.recognize(start).is_ok();
            assert!(ll, "{name}: LL(*) rejected {sentence:?}");
            assert!(pk, "{name}: packrat rejected {sentence:?}");

            // Mutated sentences: engines must agree on accept/reject.
            for cut in [sentence.len() / 2, sentence.len().saturating_sub(2)] {
                let mutated: String = sentence.chars().take(cut).collect();
                let Ok(tokens) = scanner.tokenize(&mutated) else {
                    continue;
                };
                let ll = parse_text(&g, &a, &mutated, start, NopHooks).is_ok();
                let mut packrat = PackratParser::new(&g, tokens);
                let pk = packrat.recognize(start).is_ok();
                assert_eq!(ll, pk, "{name}: engines disagree on mutated input {mutated:?}");
            }
        }
    }
}

#[test]
fn suite_sentences_parse_with_llstar() {
    for entry in llstar_suite::all() {
        let g = entry.load();
        let a = analyze(&g);
        let mut produced = 0;
        for seed in 0..15u64 {
            let Some(sentence) = sample_sentence(&g, entry.start_rule, seed, 9) else {
                continue;
            };
            produced += 1;
            // The RatsC typedef predicate defaults to true under NopHooks,
            // which can genuinely reject sentences whose IDs were derived
            // as plain identifiers; skip RatsC sempred interference by
            // accepting either outcome there.
            let result = parse_text(&g, &a, &sentence, entry.start_rule, NopHooks);
            if entry.name == "RatsC" {
                continue;
            }
            assert!(
                result.is_ok(),
                "{}: derived sentence rejected: {sentence:?}: {}",
                entry.name,
                result.unwrap_err()
            );
        }
        assert!(produced >= 5, "{}: only {produced} sentences sampled", entry.name);
    }
}

#[test]
fn cache_loaded_analysis_parses_identically() {
    // A parse driven by a cache-loaded analysis must be observationally
    // identical to one driven by a fresh analysis: same tree, same
    // ParseStats — lookahead depths, backtrack counts, memo traffic and
    // all. The serialized DFAs are the *whole* analysis as far as the
    // runtime is concerned.
    let dir = common::test_dir("llstar_prop_cache");
    for (name, start, src) in MINI_GRAMMARS {
        let g = load(src);
        let fresh = analyze(&g);
        // All mini-grammars share the name "M", so `cache_path` would
        // alias their slots; key the file by test label instead.
        let path = dir.join(format!("{name}.dfa"));
        let _ = std::fs::remove_file(&path);
        let (_, status) = analyze_cached(&g, &path).expect("prime cache");
        assert!(!status.is_hit(), "{name}: cache pre-populated?");
        let (cached, status) = analyze_cached(&g, &path).expect("load cache");
        assert!(status.is_hit(), "{name}: {status}");
        assert!(cached.from_cache);

        for seed in 0..40u64 {
            let Some(sentence) = sample_sentence(&g, start, seed, 8) else {
                continue;
            };
            let (fresh_tree, fresh_stats) =
                parse_text(&g, &fresh, &sentence, start, NopHooks).expect("fresh parse");
            let (cached_tree, cached_stats) =
                parse_text(&g, &cached, &sentence, start, NopHooks).expect("cached parse");
            assert_eq!(
                fresh_tree.to_sexpr(&g, &sentence),
                cached_tree.to_sexpr(&g, &sentence),
                "{name}: trees differ on {sentence:?}"
            );
            assert_eq!(fresh_stats, cached_stats, "{name}: ParseStats differ on {sentence:?}");
        }
    }
}

#[test]
fn left_recursion_rewrite_preserves_the_language() {
    // The rewritten grammar must accept exactly the classic expression
    // strings; compare against a hand-written right-recursive equivalent
    // on both positive (derived) and negative (mutated) inputs.
    let original = parse_grammar(
        "grammar L; e : e ('*'|'/') e | e ('+'|'-') e | '(' e ')' | INT ; INT : [0-9]+ ; WS : [ ]+ -> skip ;",
    )
    .unwrap();
    let rewritten = rewrite_left_recursion(original).unwrap();
    let reference = parse_grammar(
        "grammar R; e : t (('+'|'-') t)* ; t : f (('*'|'/') f)* ; f : '(' e ')' | INT ; INT : [0-9]+ ; WS : [ ]+ -> skip ;",
    )
    .unwrap();
    let ra = analyze(&rewritten);
    let fa = analyze(&reference);
    for seed in 0..80u64 {
        let Some(sentence) = sample_sentence(&reference, "e", seed, 8) else {
            continue;
        };
        let rw = parse_text(&rewritten, &ra, &sentence, "e", NopHooks).is_ok();
        assert!(rw, "rewritten grammar rejected {sentence:?}");
        for cut in [1, sentence.len() / 2] {
            let mutated: String = sentence.chars().skip(cut).collect();
            let rw = parse_text(&rewritten, &ra, &mutated, "e", NopHooks).is_ok();
            let rf = parse_text(&reference, &fa, &mutated, "e", NopHooks).is_ok();
            assert_eq!(rw, rf, "disagree on {mutated:?}");
        }
    }
}
