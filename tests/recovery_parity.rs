//! Interpreted/generated recovery parity: for the same corrupted input,
//! both engines must repair identically — same trees (s-expressions,
//! error nodes included) and **byte-identical diagnostic JSONL**.

use llstar::codegen::generate;
use llstar::runtime::{diagnostics_jsonl, parse_text_recovering, Diagnostic};
use std::path::PathBuf;
use std::process::Command;

mod common;
use common::{compile_generated, load_grammar_source, test_dir};

const STMTS: &str = r#"
grammar Stmts;
s : stat+ ;
stat : ID '=' expr ';' | '!' ID ';' ;
expr : INT ;
ID : [a-z]+ ;
INT : [0-9]+ ;
PLUS : '+' ;
WS : [ ]+ -> skip ;
"#;

/// A driver that parses with recovery and prints the s-expression, the
/// diagnostic JSONL, and the error-node count, so every recovery-visible
/// artifact is compared.
const DRIVER: &str = r#"
fn main() {
    let input = std::env::args().nth(1).expect("input argument");
    match parse_recovering(&input, 100) {
        Ok((tree, diags)) => {
            println!("{}", tree.to_sexpr(&input));
            println!("{}", tree.error_node_count());
            print!("{}", diagnostics_jsonl(&diags));
        }
        Err(e) => {
            println!("ERROR {e}");
            std::process::exit(1);
        }
    }
}
"#;

fn build_generated(name: &str, grammar_src: &str) -> PathBuf {
    let (g, a) = load_grammar_source(grammar_src);
    let code = generate(&g, &a).expect("generation succeeds");
    compile_generated(&format!("recovery_{name}"), &code, DRIVER)
}

#[test]
fn generated_recovery_diagnostics_are_byte_identical() {
    let (g, a) = load_grammar_source(STMTS);
    let exe = build_generated("stmts", STMTS);

    // One input per repair shape: clean, missing token (insertion),
    // extraneous token (deletion), out-of-follow junk (sync-and-return),
    // cascades, multiple independent errors, a failed prediction
    // (no-viable), and trailing junk after the start rule.
    let inputs = [
        "a = 1 ; b = 2 ;",
        "a 1 ; b = 2 ;",
        "a = = 1 ;",
        "a = + + 1 ; c = 2 ;",
        "a = b ; c = 2 ;",
        "a 1 ; b = ; c = + 3 ; d = 4 ;",
        "= 1 ; ! x ;",
        "a = 1 ; +",
    ];
    for input in inputs {
        let (tree, errors, _) =
            parse_text_recovering(&g, &a, input, "s", llstar::runtime::NopHooks, 100)
                .unwrap_or_else(|e| panic!("interpreter failed on {input:?}: {e}"));
        let jsonl = diagnostics_jsonl(&Diagnostic::from_errors(&g, &errors));
        let expected =
            format!("{}\n{}\n{}", tree.to_sexpr(&g, input), tree.error_node_count(), jsonl);

        let out = Command::new(&exe).arg(input).output().expect("generated parser runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "generated parser aborted on {input:?}: {stdout}");
        assert_eq!(stdout, expected, "engines diverged on {input:?}");
    }
}

#[test]
fn generated_recovery_respects_max_errors_cap() {
    let (g, a) = load_grammar_source(STMTS);
    let code = generate(&g, &a).expect("generation succeeds");

    let driver = r#"
fn main() {
    let input = std::env::args().nth(1).expect("input argument");
    match parse_recovering(&input, 1) {
        Ok((_, diags)) => println!("OK {}", diags.len()),
        Err(e) => {
            println!("ERROR {e}");
            std::process::exit(1);
        }
    }
}
"#;
    let dir = test_dir("llstar_recovery_cap");
    let src_path = dir.join("parser_main.rs");
    std::fs::write(&src_path, format!("{code}\n{driver}\n")).expect("write");
    let exe = dir.join("parser_main");
    let out = Command::new("rustc")
        .args(["--edition", "2021", "-O", "-o"])
        .arg(&exe)
        .arg(&src_path)
        .output()
        .expect("rustc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Two corruption sites, cap of one: like the interpreter, the
    // generated parser aborts at the second.
    let out = Command::new(&exe).arg("a 1 ; b = ; c = 3 ;").output().expect("runs");
    assert!(!out.status.success(), "cap must abort the parse");
    // A single error fits under the cap.
    let out = Command::new(&exe).arg("a 1 ; b = 2 ;").output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(stdout.trim(), "OK 1");
}

/// PEG mode predicates every non-last alternative. Those left-edge
/// predicates belong to prediction, so on these inputs the engines
/// repair mismatches inside the predicted alternatives. The third
/// alternative's mid-sequence `(B C)=>` stays a gate in the *rule body*:
/// when it fails outside speculation, both engines must repair it
/// identically — report a `predicate` diagnostic, consume at least one
/// token, resync, and return from the rule.
const PEGGY: &str = r#"
grammar Peggy;
options { backtrack = true; }
s : item+ ;
item : A B C SEMI | X B SEMI | Y (B C)=> B C SEMI ;
A : 'a' ;
B : 'b' ;
C : 'c' ;
X : 'x' ;
Y : 'y' ;
SEMI : ';' ;
WS : [ ]+ -> skip ;
"#;

#[test]
fn generated_gate_recovery_diagnostics_are_byte_identical() {
    let (g, a) = load_grammar_source(PEGGY);
    let exe = build_generated("peggy", PEGGY);

    let inputs = [
        "a b c ; x b ;",
        "a b x ; x b ;",
        "a b c ; a b ;",
        "a b ; x ;",
        "a a a ;",
        "y b c ; y c ; x b ;",
        "y b x ; a b c ;",
    ];
    let mut predicate_diags = 0usize;
    for input in inputs {
        let (tree, errors, _) =
            parse_text_recovering(&g, &a, input, "s", llstar::runtime::NopHooks, 100)
                .unwrap_or_else(|e| panic!("interpreter failed on {input:?}: {e}"));
        let jsonl = diagnostics_jsonl(&Diagnostic::from_errors(&g, &errors));
        predicate_diags += jsonl.matches("\"kind\":\"predicate\"").count();
        let expected =
            format!("{}\n{}\n{}", tree.to_sexpr(&g, input), tree.error_node_count(), jsonl);

        let out = Command::new(&exe).arg(input).output().expect("generated parser runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "generated parser aborted on {input:?}: {stdout}");
        assert_eq!(stdout, expected, "engines diverged on {input:?}");
    }
    assert!(predicate_diags > 0, "no input exercised the body-gate (predicate) recovery path");
}
