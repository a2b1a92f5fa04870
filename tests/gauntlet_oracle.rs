//! The gauntlet differential oracle: every `(grammar, input)` cell of
//! the generated corpora runs through the full engine matrix —
//! interpreter with linear and compiled dispatch, a re-entrant
//! [`ParseSession`] over the whole corpus, the coverage-instrumented
//! generated parser, and the memoized packrat baseline — and every
//! engine must agree: byte-identical parse trees (s-expressions),
//! byte-identical trace streams (FNV-fingerprinted at MB scale),
//! byte-identical coverage JSON, and matching accept verdicts.
//!
//! Corpus size is picked by `LLSTAR_GAUNTLET_TIER` (`smoke` ≈ 10 KB,
//! `1mb` — the default acceptance tier, `10mb` for nightly stress); the
//! corpora are deterministic functions of `(grammar, tier, ORACLE_SEED)`
//! and are never checked in.
//!
//! [`ParseSession`]: llstar::runtime::ParseSession

use llstar::codegen::{generate_with, CodegenOptions};
use llstar::core::GrammarAnalysis;
use llstar::grammar::Grammar;
use llstar::packrat::PackratParser;
use llstar::runtime::{NopHooks, ParseSession};
use llstar_suite::gauntlet::{by_name, corpus, GauntletEntry, Tier};
use std::path::PathBuf;
use std::process::Command;

mod common;
use common::{compile_generated, fingerprint, linear, load_grammar_source, oracle_interp_run};

/// Fixed corpus seed: the oracle must be reproducible run to run.
const ORACLE_SEED: u64 = 0x11_57a2_2011;

/// Compiles the coverage-instrumented generated parser with a driver
/// that parses every argv path, prints one FNV tree fingerprint per
/// input, then the merged coverage JSON. Fingerprints (not the full
/// s-expressions) cross the pipe: at the 10 MB tier a rendered tree is
/// several times the input size.
fn build_generated(entry: &GauntletEntry, g: &Grammar, a: &GrammarAnalysis) -> PathBuf {
    let code = generate_with(g, a, CodegenOptions { coverage: true, ..Default::default() })
        .expect("generation succeeds");
    let start = entry.start_rule;
    let driver = format!(
        r#"
fn fnv(bytes: &[u8]) -> String {{
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {{
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }}
    format!("fnv={{hash:016x}}:len={{}}", bytes.len())
}}

fn main() {{
    let mut cov = Coverage::new();
    for path in std::env::args().skip(1) {{
        let input = std::fs::read_to_string(&path).expect("corpus file readable");
        let tokens = tokenize(&input).expect("lexes");
        let mut hooks = NopHooks;
        let mut parser = Parser::new(tokens, &mut hooks);
        let tree = parser.parse_{start}().unwrap_or_else(|e| panic!("{{path}}: {{e}}"));
        assert!(parser.la(1) == 0, "trailing input in {{path}}");
        println!("{{}}", fnv(tree.to_sexpr(&input).as_bytes()));
        cov.merge(&parser.cov);
        cov.files += 1;
    }}
    println!("{{}}", cov.to_json());
}}
"#
    );
    compile_generated(&format!("gauntlet_{}", entry.name), &code, &driver)
}

/// Runs the full engine matrix for one gauntlet grammar at the
/// environment-selected tier.
fn oracle(name: &str) {
    let entry = by_name(name).unwrap_or_else(|| panic!("unknown gauntlet grammar {name}"));
    let tier = Tier::from_env();
    let inputs = corpus(&entry, tier, ORACLE_SEED);
    let (g, a) = load_grammar_source(entry.source);
    let start = entry.start_rule;
    // At the smoke tier compare full s-expressions (better failure
    // messages); above it, FNV fingerprints.
    let full = tier == Tier::Smoke;

    // Interpreter, linear vs compiled dispatch: trees, trace stream, and
    // coverage map must all be byte-identical.
    let linear = oracle_interp_run(&g, &linear(&a), start, &inputs, full);
    let compiled = oracle_interp_run(&g, &a, start, &inputs, full);
    for (i, (label, _)) in inputs.iter().enumerate() {
        assert_eq!(
            linear.trees[i], compiled.trees[i],
            "{label}: linear vs compiled dispatch built different trees"
        );
    }
    assert_eq!(
        linear.trace_fp,
        compiled.trace_fp,
        "{name}/{}: dispatch modes emitted different trace streams",
        tier.label()
    );
    assert_eq!(
        linear.coverage,
        compiled.coverage,
        "{name}/{}: dispatch modes folded different coverage maps",
        tier.label()
    );

    // Re-entrant session: one scanner + parser recycled across the whole
    // corpus must reproduce the fresh-parser trees exactly.
    let mut session = ParseSession::new(&g, &a, start, NopHooks).expect("session builds");
    for (i, (label, text)) in inputs.iter().enumerate() {
        let tree = session.parse_to_eof(text).unwrap_or_else(|e| panic!("{label}: session: {e}"));
        let sexpr = tree.to_sexpr(&g, text);
        let got = if full { sexpr } else { fingerprint(sexpr.as_bytes()) };
        assert_eq!(got, linear.trees[i], "{label}: re-entrant session tree diverged");
    }
    assert_eq!(session.parses() as usize, inputs.len());

    // Generated parser: tree fingerprints per input plus the merged
    // coverage JSON, both against the interpreter.
    let exe = build_generated(&entry, &g, &a);
    let dir = common::test_dir(&format!("llstar_gauntlet_corpus_{}", entry.name));
    let files: Vec<PathBuf> = inputs
        .iter()
        .enumerate()
        .map(|(i, (_, text))| {
            let path = dir.join(format!("input-{i:02}.txt"));
            std::fs::write(&path, text).expect("write corpus file");
            path
        })
        .collect();
    let out = Command::new(&exe).args(&files).output().expect("generated parser runs");
    assert!(
        out.status.success(),
        "{name}: generated parser aborted:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");
    let mut lines = stdout.lines();
    for (i, (label, _)) in inputs.iter().enumerate() {
        let got = lines.next().unwrap_or_else(|| panic!("{label}: missing generated output"));
        let want =
            if full { fingerprint(linear.trees[i].as_bytes()) } else { linear.trees[i].clone() };
        assert_eq!(got, want, "{label}: generated parser tree diverged from interpreter");
    }
    let gen_cov = lines.next().expect("generated coverage JSON");
    assert_eq!(
        gen_cov,
        linear.coverage,
        "{name}/{}: generated coverage diverged from interpreter fold",
        tier.label()
    );

    // Packrat baseline (memoized): acceptance must agree — every corpus
    // input is in the language, so the recognizer must accept it. (The
    // packrat engine builds no trees; tree equality is out of scope.)
    let scanner = g.lexer.build().expect("lexer builds");
    for (label, text) in &inputs {
        let tokens = scanner.tokenize(text).expect("lexes");
        let mut packrat = PackratParser::new(&g, tokens);
        packrat.set_memoize(true);
        packrat
            .recognize(start)
            .unwrap_or_else(|e| panic!("{label}: packrat rejected a corpus input: {e}"));
    }
}

#[test]
fn java8_engine_matrix_agrees() {
    oracle("java8");
}

#[test]
fn sql_engine_matrix_agrees() {
    oracle("sql");
}

#[test]
fn json_engine_matrix_agrees() {
    oracle("json");
}
