//! Left-edge syntactic predicates are prediction-time constructs (the
//! paper's Section 2 PEG mode): a decision that lookahead resolves never
//! speculates, and a decision that needs its predicates evaluates them
//! once, in prediction, never again in the chosen alternative's body.
//! Checked on the interpreter and on the generated parser, whose metric
//! snapshots must agree byte for byte.

use llstar::codegen::{generate_with, CodegenOptions};
use llstar::core::GrammarAnalysis;
use llstar::grammar::Grammar;
use llstar::runtime::{MetricsSnapshot, NopHooks, ParseMetrics, Parser, TokenStream};
use std::path::PathBuf;
use std::process::Command;

mod common;
use common::{compile_generated, load_grammar_source, test_dir};

/// PEG mode over decisions that LL(2) lookahead resolves: the analysis
/// strips every inserted predicate.
const LL_K: &str = r#"
grammar PegLlk;
options { backtrack = true; }
s : stmt+ EOF ;
stmt : ID '=' expr ';' | ID '(' ')' ';' | 'return' expr ';' | ';' ;
expr : ID | INT | '(' expr ')' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \n]+ -> skip ;
"#;

/// PEG mode over a decision that is not LL(*): `item`'s alternatives
/// share the recursive prefix `x`, so prediction must backtrack.
const NESTED: &str = r#"
grammar PegNested;
options { backtrack = true; m = 1; }
s : item+ EOF ;
item : x ';' | x '!' | x '?' ;
x : '(' x ')' | ID ;
ID : [a-z]+ ;
WS : [ \n]+ -> skip ;
"#;

/// Interpreter trees (s-expressions, one per input) and the merged
/// deterministic metric snapshot.
fn interpret(g: &Grammar, a: &GrammarAnalysis, inputs: &[&str]) -> (Vec<String>, MetricsSnapshot) {
    let scanner = g.lexer.build().expect("lexer builds");
    let mut acc = ParseMetrics::new(a.atn.decisions.len());
    let mut trees = Vec::new();
    for input in inputs {
        let tokens = scanner.tokenize(input).expect("input lexes");
        let mut parser = Parser::new(g, a, TokenStream::new(tokens), NopHooks);
        let tree = parser.parse_to_eof("s").unwrap_or_else(|e| panic!("{input:?}: {e}"));
        trees.push(tree.to_sexpr(g, input));
        acc.merge(parser.metrics());
    }
    (trees, acc.snapshot(a.fingerprint, |d| g.rule(a.atn.decisions[d].rule).name.clone()))
}

/// The generated parser's trees and merged metric JSON over `inputs`.
fn generate(tag: &str, g: &Grammar, a: &GrammarAnalysis, inputs: &[&str]) -> (Vec<String>, String) {
    let code = generate_with(g, a, CodegenOptions { metrics: true, ..Default::default() })
        .expect("generation succeeds");
    let driver = r#"
fn main() {
    let mut met = Metrics::new();
    for path in std::env::args().skip(1) {
        let input = std::fs::read_to_string(&path).expect("input readable");
        let tokens = tokenize(&input).expect("lexes");
        let mut hooks = NopHooks;
        let mut parser = Parser::new(tokens, &mut hooks);
        let tree = parser.parse_s().unwrap_or_else(|e| panic!("{path}: {e}"));
        println!("{}", tree.to_sexpr(&input));
        parser.met.finish_parse(parser.pos as u64);
        met.merge(&parser.met);
    }
    println!("{}", met.to_json("gates"));
}
"#;
    let exe = compile_generated(tag, &code, driver);
    let dir = test_dir(&format!("llstar_gates_{tag}"));
    let files: Vec<PathBuf> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let path = dir.join(format!("input-{i}.txt"));
            std::fs::write(&path, input).expect("write input");
            path
        })
        .collect();
    let out = Command::new(&exe).args(&files).output().expect("generated parser runs");
    assert!(
        out.status.success(),
        "generated parser failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<String> =
        String::from_utf8(out.stdout).expect("utf8").lines().map(str::to_string).collect();
    let metrics = lines.pop().expect("metrics line");
    (lines, metrics)
}

fn backtracks(m: &MetricsSnapshot) -> u64 {
    m.decisions.iter().map(|d| d.counters.backtracks).sum()
}

#[test]
fn lookahead_resolved_peg_grammar_neither_backtracks_nor_memoizes() {
    let (g, a) = load_grammar_source(LL_K);
    assert!(!g.synpreds.is_empty(), "PEG mode inserted predicates");
    let inputs = ["a = b ; f ( ) ; return ( ( 1 ) ) ; ;", "x = ( y ) ;\nreturn 7 ;"];
    let (trees, metrics) = interpret(&g, &a, &inputs);
    assert!(metrics.decisions.iter().any(|d| d.counters.events > 0), "{metrics:?}");
    assert_eq!(backtracks(&metrics), 0, "{metrics:?}");
    assert_eq!((metrics.memo_entries, metrics.memo_hits), (0, 0), "{metrics:?}");
    let (gen_trees, gen_metrics) = generate("gates_llk", &g, &a, &inputs);
    assert_eq!(gen_trees, trees);
    assert_eq!(gen_metrics, metrics.to_json("gates", false).trim_end());
}

#[test]
fn non_ll_star_peg_decision_still_backtracks_with_identical_trees() {
    let (g, a) = load_grammar_source(NESTED);
    let inputs = ["( ( a ) ) ? b ; ( c ) !", "a ! ( b ) ;"];
    let (trees, metrics) = interpret(&g, &a, &inputs);
    assert!(backtracks(&metrics) > 0, "{metrics:?}");
    assert!(metrics.memo_entries > 0 && metrics.memo_hits > 0, "{metrics:?}");
    // Every speculation ran inside a prediction: `item` is the only
    // backtracking decision.
    for d in metrics.decisions.iter().filter(|d| d.counters.backtracks > 0) {
        assert_eq!(d.rule, "item", "{metrics:?}");
    }
    assert_eq!(
        trees[0],
        r#"(s (item (x "(" (x "(" (x "a") ")") ")") "?") (item (x "b") ";") (item (x "(" (x "c") ")") "!") "")"#
    );
    let (gen_trees, gen_metrics) = generate("gates_nested", &g, &a, &inputs);
    assert_eq!(gen_trees, trees);
    assert_eq!(gen_metrics, metrics.to_json("gates", false).trim_end());
}
