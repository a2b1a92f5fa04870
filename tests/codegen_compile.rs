//! Compiles and runs generated parsers: the generated code must be
//! accepted by `rustc` standalone and agree with the interpreter.

mod common;

use llstar::codegen::generate;
use llstar::core::analyze;
use llstar::grammar::{apply_peg_mode, parse_grammar};
use llstar::runtime::{parse_text, NopHooks};
use std::path::PathBuf;
use std::process::Command;

const CALC: &str = r#"
grammar Calc;
expr : term (('+' | '-') term)* ;
term : factor (('*' | '/') factor)* ;
factor : INT | '(' expr ')' | '-' factor ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"#;

const STAT: &str = r#"
grammar Stat;
options { backtrack = true; }
prog : stat* EOF ;
stat : typ ID '=' e ';' | ID '=' e ';' | e ';' ;
typ : 'int' | 'bool' ;
e : ID | INT ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ ]+ -> skip ;
"#;

/// Generates, writes, and compiles a parser plus a driver `main`;
/// returns the executable path.
fn build_generated(name: &str, grammar_src: &str, driver: &str) -> PathBuf {
    let g = apply_peg_mode(parse_grammar(grammar_src).expect("test grammar parses"));
    let a = analyze(&g);
    let code = generate(&g, &a).expect("generation succeeds");

    let dir = common::test_dir(&format!("llstar_codegen_{name}"));
    let src_path = dir.join("parser_main.rs");
    let full = format!("{code}\n{driver}\n");
    std::fs::write(&src_path, full).expect("write generated source");

    let exe = dir.join("parser_main");
    let out = Command::new("rustc")
        .args(["--edition", "2021", "-O", "-o"])
        .arg(&exe)
        .arg(&src_path)
        .output()
        .expect("rustc runs");
    assert!(
        out.status.success(),
        "generated code failed to compile:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    exe
}

fn run_generated(exe: &PathBuf, input: &str) -> (bool, String) {
    let out = Command::new(exe).arg(input).output().expect("generated parser runs");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).trim().to_string())
}

const DRIVER: &str = r#"
fn main() {
    let input = std::env::args().nth(1).expect("input argument");
    match parse(&input) {
        Ok(tree) => {
            println!("{}", tree.to_sexpr(&input));
        }
        Err(e) => {
            println!("ERROR {e}");
            std::process::exit(1);
        }
    }
}
"#;

#[test]
fn generated_calculator_compiles_and_parses() {
    let exe = build_generated("calc", CALC, DRIVER);
    let (ok, sexpr) = run_generated(&exe, "1 + 2 * (3 - 4)");
    assert!(ok, "{sexpr}");
    assert_eq!(
        sexpr,
        r#"(expr (term (factor "1")) "+" (term (factor "2") "*" (factor "(" (expr (term (factor "3")) "-" (term (factor "4"))) ")")))"#
    );

    // Errors are reported with positions.
    let (ok, msg) = run_generated(&exe, "1 + + 2");
    assert!(!ok);
    assert!(msg.starts_with("ERROR line 1:"), "{msg}");
}

#[test]
fn generated_parser_agrees_with_interpreter() {
    let g = apply_peg_mode(parse_grammar(CALC).expect("grammar"));
    let a = analyze(&g);
    let exe = build_generated("agree", CALC, DRIVER);
    for input in ["42", "1+2+3", "2 * 3 + 4 * 5", "((((7))))", "-1 - -2", "1 +", ")(", "1 * * 2"] {
        let interp = parse_text(&g, &a, input, "expr", NopHooks);
        let (gen_ok, gen_out) = run_generated(&exe, input);
        assert_eq!(
            interp.is_ok(),
            gen_ok,
            "disagreement on {input:?}: interpreter {interp:?} vs generated {gen_out:?}"
        );
        if let Ok((tree, _)) = interp {
            assert_eq!(tree.to_sexpr(&g, input), gen_out, "tree mismatch on {input:?}");
        }
    }
}

#[test]
fn generated_backtracking_parser_works() {
    let exe = build_generated("stat", STAT, DRIVER);
    // `int x = 1;` is a declaration; `x = 1;` an assignment; `x;` an
    // expression statement — the PEG-mode decision resolves each.
    let (ok, sexpr) = run_generated(&exe, "int x = 1; x = 2; x;");
    assert!(ok, "{sexpr}");
    assert!(sexpr.contains("(typ \"int\")"), "{sexpr}");
    let (ok, _) = run_generated(&exe, "int = 1;");
    assert!(!ok, "missing identifier must fail");
}

#[test]
fn generated_java_parser_handles_generated_programs() {
    // Generate the full suite Java parser, compile it, and check it
    // accepts programs from the Java input generator (and agrees with
    // the interpreter's s-expression output).
    let entry = llstar_suite::by_name("Java").expect("suite grammar");
    let g = entry.load();
    let a = analyze(&g);
    let code = generate(&g, &a).expect("generation succeeds");

    let driver = r#"
fn main() {
    let path = std::env::args().nth(1).expect("input file");
    let input = std::fs::read_to_string(&path).expect("readable");
    match parse(&input) {
        Ok(tree) => println!("{}", tree.token_count()),
        Err(e) => {
            println!("ERROR {e}");
            std::process::exit(1);
        }
    }
}
"#;
    let dir = common::test_dir("llstar_codegen_java");
    let src_path = dir.join("java_parser.rs");
    std::fs::write(&src_path, format!("{code}\n{driver}\n")).expect("write");
    let exe = dir.join("java_parser");
    let out = Command::new("rustc")
        .args(["--edition", "2021", "-O", "-o"])
        .arg(&exe)
        .arg(&src_path)
        .output()
        .expect("rustc runs");
    assert!(
        out.status.success(),
        "generated Java parser failed to compile:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for seed in [1u64, 7, 99] {
        let program = (entry.generate)(60, seed);
        let input_path = dir.join(format!("prog_{seed}.java"));
        std::fs::write(&input_path, &program).expect("write input");
        let out = Command::new(&exe).arg(&input_path).output().expect("parser runs");
        let stdout = String::from_utf8_lossy(&out.stdout).trim().to_string();
        assert!(out.status.success(), "seed {seed}: generated parser rejected:\n{stdout}");
        // Token counts agree with the interpreter.
        let (tree, _) = llstar::runtime::parse_text(
            &g,
            &a,
            &program,
            entry.start_rule,
            llstar::runtime::NopHooks,
        )
        .expect("interpreter parses");
        assert_eq!(stdout, tree.token_count().to_string(), "seed {seed}: token counts differ");
    }
}

/// A grammar whose one `stmt` decision tells 300 keywords apart. Its
/// token partition needs more than 256 classes, so no compiled tables
/// are lowered, and the interpreter's linear `predict` walk and the
/// generated parser's unrolled per-state `match` are the paths that run.
fn keyword_grammar() -> String {
    let alts: Vec<String> = (0..300).map(|i| format!("'kw{i}' ID ';'")).collect();
    format!(
        "grammar Keywords;\n\
         prog : stmt+ ;\n\
         stmt : {} | ID '=' INT ';' | ID ';' ;\n\
         ID : [a-z]+ ;\n\
         INT : [0-9]+ ;\n\
         WS : [ \\t\\r\\n]+ -> skip ;\n",
        alts.join(" | ")
    )
}

#[test]
fn grammar_over_256_token_classes_parses_without_tables() {
    let src = keyword_grammar();
    let g = apply_peg_mode(parse_grammar(&src).expect("grammar"));
    let a = analyze(&g);
    assert!(!a.tables.enabled(), "300 keywords must overflow the u8 class map");
    let exe = build_generated("keywords", &src, DRIVER);
    let input = "kw0 a ; kw299 b ; x = 1 ; kw150 c ; y ; kw7 d ;";
    let (tree, _) = parse_text(&g, &a, input, "prog", NopHooks).expect("interpreter parses");
    let (ok, sexpr) = run_generated(&exe, input);
    assert!(ok, "{sexpr}");
    assert_eq!(tree.to_sexpr(&g, input), sexpr, "generated tree differs from the interpreter's");
    assert!(sexpr.contains("(stmt \"kw299\" \"b\" \";\")"), "{sexpr}");
}
