//! Regenerates the paper's worked figures: the lookahead DFA of Figure 1,
//! the mixed lookahead/backtracking DFA of Figure 2, the cyclic DFA from
//! the end of Section 2, and the ATN of Figure 6.

use llstar_core::{analyze, Atn, DecisionAnalysis, DecisionKind, GrammarAnalysis};
use llstar_grammar::{apply_peg_mode, parse_grammar, Grammar};

/// The Section 2 grammar whose rule `s` yields Figure 1's DFA.
pub const FIGURE1_GRAMMAR: &str = r#"
grammar Figure1;
s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
expr : INT ;
ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"#;

/// The Section 2 grammar whose rule `t` yields Figure 2's DFA
/// (PEG mode, m = 1).
pub const FIGURE2_GRAMMAR: &str = r#"
grammar Figure2;
options { backtrack = true; m = 1; }
t : '-'* ID | expr ;
expr : INT | '-' expr ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ ]+ -> skip ;
"#;

/// The `a : b A+ X | c A+ Y` grammar that is LL(*) but not LR(k)
/// (Section 2's LPG anecdote), yielding a cyclic DFA.
pub const CYCLIC_GRAMMAR: &str = r#"
grammar Cyclic;
a : b A+ X | c A+ Y ;
b : ;
c : ;
A : 'a' ;
X : 'x' ;
Y : 'y' ;
"#;

/// Figure 6's grammar: S → Ac | Ad, A → aA | b.
pub const FIGURE6_GRAMMAR: &str = r#"
grammar Figure6;
s : a C | a D ;
a : A a | B ;
A : 'a' ;
B : 'b' ;
C : 'c' ;
D : 'd' ;
"#;

/// A prepared figure: grammar + analysis + rendered artifact.
pub struct Figure {
    /// Which figure this is.
    pub title: &'static str,
    /// The grammar.
    pub grammar: Grammar,
    /// Its analysis.
    pub analysis: GrammarAnalysis,
    /// The textual rendering (DFA transitions or dot).
    pub rendering: String,
}

/// The analysis of the decision among `rule`'s productions.
pub(crate) fn rule_decision<'a>(
    grammar: &Grammar,
    analysis: &'a GrammarAnalysis,
    rule: &str,
) -> &'a DecisionAnalysis {
    let rid = grammar.rule_id(rule).expect("figure rule exists");
    let d = analysis
        .atn
        .decisions
        .iter()
        .find(|d| d.rule == rid && d.kind == DecisionKind::RuleAlts)
        .expect("figure rule has a decision");
    analysis.decision(d.id)
}

fn rule_decision_dfa(grammar: &Grammar, analysis: &GrammarAnalysis, rule: &str) -> String {
    rule_decision(grammar, analysis, rule).dfa.to_pretty(grammar)
}

/// Builds Figure 1: the LL(*) lookahead DFA for rule `s`.
pub fn figure1() -> Figure {
    let grammar = apply_peg_mode(parse_grammar(FIGURE1_GRAMMAR).expect("figure grammar"));
    let analysis = analyze(&grammar);
    let rendering = rule_decision_dfa(&grammar, &analysis, "s");
    Figure { title: "Figure 1: LL(*) lookahead DFA for rule s", grammar, analysis, rendering }
}

/// Builds Figure 2: the mixed k=3/backtracking DFA for rule `t`.
pub fn figure2() -> Figure {
    let grammar = apply_peg_mode(parse_grammar(FIGURE2_GRAMMAR).expect("figure grammar"));
    let analysis = analyze(&grammar);
    let rendering = rule_decision_dfa(&grammar, &analysis, "t");
    Figure {
        title: "Figure 2: mixed lookahead/backtracking DFA for rule t (m=1)",
        grammar,
        analysis,
        rendering,
    }
}

/// Builds the cyclic DFA for `a : b A+ X | c A+ Y`.
pub fn cyclic_figure() -> Figure {
    let grammar = apply_peg_mode(parse_grammar(CYCLIC_GRAMMAR).expect("figure grammar"));
    let analysis = analyze(&grammar);
    let rendering = rule_decision_dfa(&grammar, &analysis, "a");
    Figure {
        title: "Section 2: cyclic DFA for a : b A+ X | c A+ Y (LL(*) but not LR(k))",
        grammar,
        analysis,
        rendering,
    }
}

/// Builds Figure 6: the ATN for S → Ac|Ad, A → aA|b, rendered as dot.
pub fn figure6() -> Figure {
    let grammar = parse_grammar(FIGURE6_GRAMMAR).expect("figure grammar");
    let atn = Atn::from_grammar(&grammar);
    let rendering = atn.to_dot(&grammar);
    let analysis = analyze(&grammar);
    Figure { title: "Figure 6: ATN for S -> Ac|Ad, A -> aA|b", grammar, analysis, rendering }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_renders_cyclic_dfa() {
        let f = figure1();
        assert!(f.rendering.contains("'unsigned'"), "{}", f.rendering);
        assert!(f.rendering.contains("predict alt 3"), "{}", f.rendering);
        assert!(f.rendering.contains("predict alt 4"), "{}", f.rendering);
    }

    #[test]
    fn figure2_renders_predicate_failover() {
        let f = figure2();
        assert!(f.rendering.contains("synpred"), "{}", f.rendering);
        assert!(f.rendering.contains("else"), "{}", f.rendering);
    }

    #[test]
    fn cyclic_figure_loops() {
        let f = cyclic_figure();
        // A self-loop on A shows up as a transition from a state to itself.
        assert!(f.rendering.contains("-A->"), "{}", f.rendering);
    }

    #[test]
    fn figure6_is_dot() {
        let f = figure6();
        assert!(f.rendering.starts_with("digraph atn"));
        assert!(f.rendering.contains("doublecircle"));
    }
}
