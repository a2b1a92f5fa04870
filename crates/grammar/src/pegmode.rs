//! PEG mode: automatic insertion of syntactic predicates.
//!
//! With `options { backtrack = true; }` ANTLR "auto-inserts syntactic
//! predicates into every production, which we call PEG mode because it
//! mimics the behavior of PEG parsers" (Section 2). The analysis then
//! statically strips the predicates from every decision it can resolve
//! with pure lookahead, so only genuinely ambiguous decisions backtrack.
//!
//! This module performs the insertion as a grammar-to-grammar transform:
//! each production `A → α` of a multi-alternative decision becomes
//! `A → (α)=> α`. The *last* alternative of each decision is left
//! unpredicated (PEG semantics: the final ordered choice needs no guard —
//! if the input reaches it, it must match or the whole decision fails).
//!
//! Every predicate inserted here is the first element of an alternative
//! of a multi-alternative rule or block, so it is a prediction-time
//! construct: the decision's lookahead DFA either evaluates it or was
//! proved not to need it. Neither engine re-checks it when the parse
//! walks the chosen alternative, so each predicted alternative is
//! parsed once. A predicate written anywhere else (mid-sequence, or in a
//! single-alternative rule or block) stays a gate in the body.

use crate::ast::{Alt, Block, Element, Grammar, RuleId};

/// Applies PEG mode to every multi-alternative decision in `grammar`
/// (rule decisions and nested block decisions alike) if the grammar's
/// `backtrack` option is set; otherwise returns the grammar unchanged.
pub fn apply_peg_mode(mut grammar: Grammar) -> Grammar {
    if !grammar.options.backtrack {
        return grammar;
    }
    let mut rules = std::mem::take(&mut grammar.rules);
    for rule in &mut rules {
        let multi = rule.alts.len() > 1;
        let n = rule.alts.len();
        for (i, alt) in rule.alts.iter_mut().enumerate() {
            // Recurse into blocks first so inner decisions get predicated
            // before the outer fragment is captured.
            predicate_blocks(&mut grammar, rule.id, &mut alt.elements);
            if multi && i + 1 < n {
                predicate_alt(&mut grammar, rule.id, alt);
            }
        }
    }
    grammar.rules = rules;
    grammar
}

/// Prefixes `alt` (an alternative of rule `rule`) with a syntactic
/// predicate matching `alt` itself, unless it already starts with one
/// (manually specified).
fn predicate_alt(grammar: &mut Grammar, rule: RuleId, alt: &mut Alt) {
    if matches!(alt.elements.first(), Some(Element::SynPred(_))) {
        return;
    }
    let fragment = strip_for_fragment(alt);
    let id = grammar.add_synpred(fragment, rule);
    alt.elements.insert(0, Element::SynPred(id));
}

/// The speculation fragment for an alternative: the same elements minus
/// actions and nested syntactic predicates (speculation re-evaluates
/// semantic predicates but must not duplicate side-effects).
fn strip_for_fragment(alt: &Alt) -> Alt {
    fn strip_elements(elements: &[Element]) -> Vec<Element> {
        elements
            .iter()
            .filter_map(|e| match e {
                Element::Action { .. } => None,
                Element::Block(b) => Some(Element::Block(Block {
                    alts: b.alts.iter().map(|a| Alt::new(strip_elements(&a.elements))).collect(),
                    ebnf: b.ebnf,
                })),
                other => Some(other.clone()),
            })
            .collect()
    }
    Alt::new(strip_elements(&alt.elements))
}

fn predicate_blocks(grammar: &mut Grammar, rule: RuleId, elements: &mut [Element]) {
    for elem in elements {
        if let Element::Block(b) = elem {
            let multi = b.alts.len() > 1;
            let n = b.alts.len();
            for (i, alt) in b.alts.iter_mut().enumerate() {
                predicate_blocks(grammar, rule, &mut alt.elements);
                if multi && i + 1 < n {
                    predicate_alt(grammar, rule, alt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::parse_grammar;

    #[test]
    fn inserts_synpreds_on_all_but_last_alt() {
        let g = parse_grammar(
            "grammar P; options { backtrack = true; } s : A B | A C | A D ; A:'a'; B:'b'; C:'c'; D:'d';",
        )
        .unwrap();
        let g = apply_peg_mode(g);
        let s = g.rule_by_name("s").unwrap();
        assert!(matches!(s.alts[0].elements[0], Element::SynPred(_)));
        assert!(matches!(s.alts[1].elements[0], Element::SynPred(_)));
        assert!(
            !matches!(s.alts[2].elements[0], Element::SynPred(_)),
            "last alternative stays unpredicated"
        );
        assert_eq!(g.synpreds.len(), 2);
    }

    #[test]
    fn no_op_without_backtrack_option() {
        let g = parse_grammar("grammar P; s : A | B ; A:'a'; B:'b';").unwrap();
        let g = apply_peg_mode(g);
        assert!(g.synpreds.is_empty());
    }

    #[test]
    fn single_alt_rules_untouched() {
        let g = parse_grammar("grammar P; options { backtrack = true; } s : A B ; A:'a'; B:'b';")
            .unwrap();
        let g = apply_peg_mode(g);
        assert!(g.synpreds.is_empty());
    }

    #[test]
    fn nested_blocks_get_predicated() {
        let g = parse_grammar(
            "grammar P; options { backtrack = true; } s : (A B | A C) D ; A:'a'; B:'b'; C:'c'; D:'d';",
        )
        .unwrap();
        let g = apply_peg_mode(g);
        let s = g.rule_by_name("s").unwrap();
        match &s.alts[0].elements[0] {
            Element::Block(b) => {
                assert!(matches!(b.alts[0].elements[0], Element::SynPred(_)));
                assert!(!matches!(b.alts[1].elements[0], Element::SynPred(_)));
            }
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn manual_synpred_not_duplicated() {
        let g = parse_grammar(
            "grammar P; options { backtrack = true; } s : (A)=> A B | C ; A:'a'; B:'b'; C:'c';",
        )
        .unwrap();
        let before = g.synpreds.len();
        let g = apply_peg_mode(g);
        assert_eq!(g.synpreds.len(), before, "existing predicate kept as-is");
    }

    #[test]
    fn synpreds_record_their_rule() {
        let g = parse_grammar(
            "grammar P; options { backtrack = true; } s : A B | (C)=> C ; t : (A | B) C | D ; \
             A:'a'; B:'b'; C:'c'; D:'d';",
        )
        .unwrap();
        let g = apply_peg_mode(g);
        let (s, t) = (g.rule_id("s").unwrap(), g.rule_id("t").unwrap());
        // The manual `(C)=>` of `s` first, then the PEG predicates of
        // `s`, of the block inside `t`, and of `t`.
        assert_eq!(g.synpred_rules, vec![s, s, t, t]);
    }

    #[test]
    fn fragments_exclude_actions() {
        let g = parse_grammar(
            "grammar P; options { backtrack = true; } s : {act()} A | B ; A:'a'; B:'b';",
        )
        .unwrap();
        let g = apply_peg_mode(g);
        let frag = &g.synpreds[0];
        assert!(
            !frag.elements.iter().any(|e| matches!(e, Element::Action { .. })),
            "speculation fragment must not contain actions: {frag:?}"
        );
    }
}
