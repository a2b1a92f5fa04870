//! Differential test for the scanner's execution paths: the scalar
//! char-loop reference, the lowered byte-class table walk, and the
//! fused-classification front end must produce byte-identical token
//! streams — over the suite grammars, the gauntlet corpora, UTF-8
//! multibyte inputs, and single-class runs of every length from 1 to
//! 40 bytes, ending at end of input or one byte before it. The
//! generated-code lexer is held to the same streams via a compiled
//! token-dumping driver.

mod common;

use llstar::core::analyze;
use llstar::grammar::{apply_peg_mode, parse_grammar, Grammar};
use llstar::lexer::{LexPath, Scanner, Token};
use llstar_suite::gauntlet::{self, Tier};

/// Tokenizes `input` through every path and asserts all streams equal
/// the scalar reference; returns that reference.
fn assert_paths_agree(
    scanner: &Scanner,
    grammar: &Grammar,
    input: &str,
    label: &str,
) -> Vec<Token> {
    let scalar = scanner
        .tokenize_path(input, LexPath::Scalar)
        .unwrap_or_else(|e| panic!("{label}: scalar path failed: {e}"));
    let table = scanner
        .tokenize_path(input, LexPath::Table)
        .unwrap_or_else(|e| panic!("{label}: table path failed: {e}"));
    assert_eq!(table, scalar, "{label}: table path diverged");
    // The fused path must not perturb the stream either (Token equality
    // ignores the derived `class` field by design).
    let analysis = analyze(grammar);
    if let Some(classes) = analysis.tables.classes() {
        let fused = scanner
            .tokenize_classified(input, classes.map())
            .unwrap_or_else(|e| panic!("{label}: fused path failed: {e}"));
        assert_eq!(fused, scalar, "{label}: fused path diverged");
    }
    scalar
}

#[test]
fn suite_grammars_lex_identically_across_paths() {
    for entry in llstar_suite::all() {
        let grammar = entry.load();
        let scanner = grammar.lexer.build().expect("suite lexer builds");
        assert!(
            scanner.tables().is_some(),
            "{}: suite scanner unexpectedly refused lowering",
            entry.name
        );
        for seed in [1u64, 0xBEEF] {
            let input = (entry.generate)(40, seed);
            let toks =
                assert_paths_agree(&scanner, &grammar, &input, &format!("{}/{seed}", entry.name));
            assert!(!toks.is_empty(), "{}: generator produced nothing", entry.name);
        }
    }
}

#[test]
fn gauntlet_corpora_lex_identically_across_paths() {
    let tier = Tier::from_env();
    for entry in gauntlet::all() {
        let grammar = entry.load();
        let scanner = grammar.lexer.build().expect("gauntlet lexer builds");
        for (name, text) in gauntlet::corpus(&entry, tier, 0x1e_f00d) {
            assert_paths_agree(&scanner, &grammar, &text, &name);
        }
    }
}

#[test]
fn multibyte_utf8_terminates_and_participates_in_runs() {
    // α-ω identifiers force the wide-class fallback *inside* a match;
    // ASCII identifiers make a multibyte char *end* a token mid-input.
    let g = apply_peg_mode(
        parse_grammar(
            r#"
            grammar Uni;
            s : (GID | ID | INT)* ;
            GID : [α-ω]+ ;
            ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
            INT : [0-9]+ ;
            WS : [ \t\r\n]+ -> skip ;
            "#,
        )
        .expect("grammar parses"),
    );
    let scanner = g.lexer.build().expect("lexer builds");
    for input in [
        "αβγδ",
        "abcαβ xyz",          // ASCII run ended by a multibyte char
        "αβ abc123 γ",        // interleaved scripts
        "x\u{3b1}",           // run of one, then Greek
        "    αω    ",         // runs on both sides of wide chars
        "abcdefgh\u{3b1}",    // non-ASCII right after 8 ASCII bytes
        "abcdefghijklmnopα",  // non-ASCII right after 16 ASCII bytes
        "ident_with_under  ", // trailing run hits end of input
    ] {
        assert_paths_agree(&scanner, &g, input, &format!("uni {input:?}"));
    }
}

#[test]
fn runs_ending_at_every_word_boundary_stay_identical() {
    // Sweep identifier/whitespace run lengths from 1 to 40 bytes, with
    // the input ending either exactly at the run's last byte (EOF
    // boundary) or one byte after, so the table walk's end-of-input and
    // accept bookkeeping is checked against scalar at every length.
    let g = apply_peg_mode(
        parse_grammar(
            r#"
            grammar Runs;
            s : (ID | INT)* ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
            "#,
        )
        .expect("grammar parses"),
    );
    let scanner = g.lexer.build().expect("lexer builds");
    for len in 1..=40usize {
        let ident = "a".repeat(len);
        let spaces = " ".repeat(len);
        for input in [
            ident.clone(),              // run ends at EOF
            format!("{ident}7"),        // run ends one byte before EOF
            format!("{ident} {ident}"), // run, break, run
            format!("{spaces}z"),       // whitespace run then a token
            format!("7{ident}"),        // run starts after a 1-byte token
        ] {
            assert_paths_agree(&scanner, &g, &input, &format!("runs len={len} {input:?}"));
        }
    }
}

#[test]
fn generated_lexer_matches_runtime_streams() {
    // Compile the generated JSON lexer standalone and dump its token
    // stream (ttype/start/end/line/col/class per token); it must match
    // the runtime scanner's fused stream field for field.
    use std::process::Command;

    let entry = gauntlet::by_name("json").expect("gauntlet json");
    let grammar = entry.load();
    let analysis = analyze(&grammar);
    let code = llstar::codegen::generate(&grammar, &analysis).expect("generation succeeds");

    let driver = r#"
fn main() {
    let path = std::env::args().nth(1).expect("input file");
    let input = std::fs::read_to_string(&path).expect("readable");
    match tokenize(&input) {
        Ok(tokens) => {
            for t in tokens {
                println!("{} {} {} {} {} {}", t.ttype, t.start, t.end, t.line, t.col, t.class);
            }
        }
        Err(e) => {
            println!("ERROR {e}");
            std::process::exit(1);
        }
    }
}
"#;
    let dir = common::test_dir("llstar_lexpaths");
    let src = dir.join("lexer_main.rs");
    std::fs::write(&src, format!("{code}\n{driver}\n")).expect("write generated source");
    let exe = dir.join("lexer_main");
    let out = Command::new("rustc")
        .args(["--edition", "2021", "-O", "-o"])
        .arg(&exe)
        .arg(&src)
        .output()
        .expect("rustc runs");
    assert!(
        out.status.success(),
        "generated code failed to compile:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let scanner = grammar.lexer.build().expect("lexer builds");
    let class_map: Vec<u8> =
        analysis.tables.classes().map(|c| c.map().to_vec()).unwrap_or_default();
    for (name, text) in gauntlet::corpus(&entry, Tier::Smoke, 0x9e2d) {
        let input_path = dir.join("input.txt");
        std::fs::write(&input_path, &text).expect("write corpus file");
        let run = Command::new(&exe).arg(&input_path).output().expect("generated lexer runs");
        assert!(run.status.success(), "{name}: generated lexer failed");
        let want: Vec<String> = scanner
            .tokenize_classified(&text, &class_map)
            .expect("runtime lexes corpus")
            .iter()
            .map(|t| {
                format!(
                    "{} {} {} {} {} {}",
                    t.ttype.index(),
                    t.span.start,
                    t.span.end,
                    t.line,
                    t.col,
                    t.class
                )
            })
            .collect();
        let got: Vec<String> =
            String::from_utf8_lossy(&run.stdout).trim().lines().map(str::to_string).collect();
        assert_eq!(got, want, "{name}: generated token stream diverged from the runtime");
    }
}
