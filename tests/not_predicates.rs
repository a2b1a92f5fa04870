//! PEG not-predicates (Section 4.1): `!(α)=>` gates a production on the
//! upcoming input *not* matching the fragment — implemented, as the paper
//! suggests via Ford, by flipping the result of the speculative `synpred`
//! call. Exercised through the interpreter, the packrat baseline, and
//! the code generator.

use llstar::core::analyze;
use llstar::grammar::{parse_grammar, Element};
use llstar::packrat::PackratParser;
use llstar::runtime::{parse_text, NopHooks, ParseTree};

/// A classic PEG idiom: a "word" alternative that must not be a keyword.
const SRC: &str = r#"
grammar NotPred;
s : stmt+ EOF ;
stmt
    : 'end' ';'
    | !('end')=> ID ';'
    ;
ID : [a-z]+ ;
WS : [ ]+ -> skip ;
"#;

/// Dangling-modifier flavour: alternative 1 only when NOT followed by
/// an assignment.
const SRC2: &str = r#"
grammar NotAssign;
s : !(ID '=')=> ID ';' | ID '=' ID ';' ;
ID : [a-z]+ ;
WS : [ ]+ -> skip ;
"#;

#[test]
fn meta_language_parses_negated_predicates() {
    let g = parse_grammar(SRC).unwrap();
    let stmt = g.rule_by_name("stmt").unwrap();
    assert!(matches!(stmt.alts[1].elements[0], Element::NotSynPred(_)));
    assert_eq!(g.synpreds.len(), 1);
    // Display round-trips the `!(…)=>` syntax.
    let text = llstar::grammar::grammar_to_string(&g);
    assert!(text.contains("!('end')=>"), "{text}");
}

#[test]
fn interpreter_honors_not_predicates() {
    let g = parse_grammar(SRC2).unwrap();
    let a = analyze(&g);
    // `x ;` — not an assignment, alternative 1 fires.
    let (tree, _) = parse_text(&g, &a, "x ;", "s", NopHooks).unwrap();
    match tree {
        ParseTree::Rule { alt, .. } => assert_eq!(alt, 1),
        _ => unreachable!(),
    }
    // `x = y ;` — the not-predicate rejects alternative 1.
    let (tree, _) = parse_text(&g, &a, "x = y ;", "s", NopHooks).unwrap();
    match tree {
        ParseTree::Rule { alt, .. } => assert_eq!(alt, 2),
        _ => unreachable!(),
    }
}

#[test]
fn packrat_agrees_on_not_predicates() {
    let g = parse_grammar(SRC2).unwrap();
    let a = analyze(&g);
    let scanner = g.lexer.build().unwrap();
    for (input, expect_ok) in [("x ;", true), ("x = y ;", true), ("x = ;", false), ("; x", false)] {
        let Ok(tokens) = scanner.tokenize(input) else { continue };
        let ll = parse_text(&g, &a, input, "s", NopHooks).is_ok();
        let mut p = PackratParser::new(&g, tokens);
        let pk = p.recognize("s").is_ok();
        assert_eq!(ll, expect_ok, "LL(*) on {input:?}");
        assert_eq!(pk, expect_ok, "packrat on {input:?}");
    }
}

#[test]
fn keyword_exclusion_idiom_works() {
    let g = parse_grammar(SRC).unwrap();
    let a = analyze(&g);
    let (tree, _) = parse_text(&g, &a, "alpha ; end ; beta ;", "s", NopHooks).unwrap();
    // Three statements: ID, 'end', ID.
    assert_eq!(tree.token_count(), 7, "6 tokens + EOF");
}

/// A not-predicate that stays a gate in a rule body: `stmt` has a
/// single alternative, so no prediction evaluates it.
const SRC3: &str = r#"
grammar NotGate;
s : stmt+ EOF ;
stmt : !('end')=> ID ';' ;
ID : [a-z]+ ;
WS : [ ]+ -> skip ;
"#;

#[test]
fn generated_code_flips_the_synpred() {
    let g = parse_grammar(SRC3).unwrap();
    let a = analyze(&g);
    let code = llstar::codegen::generate(&g, &a).unwrap();
    assert!(
        code.contains("if self.synpred_0() {") || code.contains("if !self.synpred_0()"),
        "{code}"
    );
    // The gate in `stmt`'s body must be the negated form.
    assert!(code.contains("negated syntactic predicate"), "{code}");
    // SRC2's not-predicate starts an alternative of a two-alternative
    // rule: it belongs to prediction, which LL(2) lookahead resolves, so
    // no gate is emitted for it.
    let g = parse_grammar(SRC2).unwrap();
    let code = llstar::codegen::generate(&g, &analyze(&g)).unwrap();
    assert!(!code.contains("negated syntactic predicate"), "{code}");
}
