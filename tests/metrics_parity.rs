//! Cross-engine metric parity: the always-on counters must agree to the
//! byte across every execution path. For each suite grammar the
//! interpreter (linear and compiled dispatch), a re-entrant
//! [`ParseSession`], and a metrics-instrumented generated parser walk
//! the same corpus, and their deterministic snapshot JSON
//! (`MetricsSnapshot::to_json(engine, false)` vs the generated
//! `Metrics::to_json(engine)`) must be identical — same prediction
//! event counts, lookahead sums/maxima/histograms, backtrack and
//! speculation attribution, memo traffic, and token totals.
//!
//! [`ParseSession`]: llstar::runtime::ParseSession

use llstar::codegen::{generate_with, CodegenOptions};
use llstar::core::GrammarAnalysis;
use llstar::grammar::Grammar;
use llstar::runtime::{NopHooks, ParseMetrics, ParseSession, Parser, TokenStream};
use std::path::{Path, PathBuf};
use std::process::Command;

mod common;
use common::{compile_generated, corpus_files, load_grammar, smoke_file, SUITE_STEMS};

/// Parses a corpus with fresh interpreter instances (one per file,
/// matching the generated driver's lifecycle), merges each parse's
/// counters into one accumulator, and labels the sum once.
fn interpreter_metrics(g: &Grammar, a: &GrammarAnalysis, files: &[PathBuf]) -> String {
    let start = g.start_rule().name.clone();
    let scanner = g.lexer.build().expect("lexer builds");
    let mut acc = ParseMetrics::new(a.atn.decisions.len());
    for file in files {
        let input = std::fs::read_to_string(file).expect("corpus file readable");
        let tokens = scanner.tokenize(&input).expect("corpus input lexes");
        let mut parser = Parser::new(g, a, TokenStream::new(tokens), NopHooks);
        parser
            .parse_to_eof(&start)
            .unwrap_or_else(|e| panic!("interpreter failed on {file:?}: {e}"));
        acc.merge(parser.metrics());
    }
    acc.snapshot(a.fingerprint, |d| g.rule(a.atn.decisions[d].rule).name.clone())
        .to_json("parity", false)
}

/// Parses the corpus through one recycled [`ParseSession`] and renders
/// its accumulated metrics without the timing tier (latency histograms
/// are wall-clock and can never be parity-compared).
fn session_metrics(g: &Grammar, a: &GrammarAnalysis, files: &[PathBuf]) -> String {
    let start = g.start_rule().name.clone();
    let mut session = ParseSession::new(g, a, &start, NopHooks).expect("session builds");
    for file in files {
        let input = std::fs::read_to_string(file).expect("corpus file readable");
        session.parse_to_eof(&input).unwrap_or_else(|e| panic!("session failed on {file:?}: {e}"));
    }
    session.metrics().to_json("parity", false)
}

/// Compiles a metrics-instrumented generated parser plus a driver that
/// parses every argv path and prints the merged metric JSON. The driver
/// calls `finish_parse` itself after the EOF check — the generated
/// entry points return trees and leave parse-level accounting to the
/// embedder, mirroring how the runtime's `parse_to_eof` wraps `parse`.
fn build_generated(
    tag: &str,
    g: &Grammar,
    a: &GrammarAnalysis,
    options: CodegenOptions,
) -> PathBuf {
    let code = generate_with(g, a, options).expect("generation succeeds");
    let start = &g.start_rule().name;
    let driver = format!(
        r#"
fn main() {{
    let mut met = Metrics::new();
    for path in std::env::args().skip(1) {{
        let input = std::fs::read_to_string(&path).expect("corpus file readable");
        let tokens = tokenize(&input).expect("lexes");
        let mut hooks = NopHooks;
        let mut parser = Parser::new(tokens, &mut hooks);
        let tree = parser.parse_{start}().expect("parses");
        assert!(parser.la(1) == 0, "trailing input in {{path}}");
        let _ = tree;
        parser.met.finish_parse(parser.pos as u64);
        met.merge(&parser.met);
    }}
    println!("{{}}", met.to_json("parity"));
}}
"#
    );
    compile_generated(tag, &code, &driver)
}

fn generated_metrics(exe: &Path, files: &[PathBuf]) -> String {
    let out = Command::new(exe).args(files).output().expect("generated parser runs");
    assert!(
        out.status.success(),
        "generated parser aborted: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output").trim_end().to_string()
}

#[test]
fn metric_snapshots_are_byte_identical_across_engines() {
    for stem in SUITE_STEMS {
        let (g, a) = load_grammar(stem);
        // Coverage + metrics together exercises the chained predictor
        // instrumentation (`met_stop` wrapping `cov_stop`), the shape
        // the gauntlet and CI smoke builds use.
        let exe = build_generated(
            &format!("metrics_{stem}"),
            &g,
            &a,
            CodegenOptions { coverage: true, metrics: true, ..Default::default() },
        );

        for files in [corpus_files(stem), vec![smoke_file(stem)]] {
            let linear = interpreter_metrics(&g, &common::linear(&a), &files);
            let compiled = interpreter_metrics(&g, &a, &files);
            assert_eq!(
                linear, compiled,
                "{stem}: linear vs compiled dispatch metric snapshots diverged"
            );
            let session = session_metrics(&g, &a, &files);
            assert_eq!(linear, session, "{stem}: re-entrant session metrics diverged");
            let generated = generated_metrics(&exe, &files);
            assert_eq!(linear, generated, "{stem}: generated parser metrics diverged");
        }
    }
}

#[test]
fn metrics_only_codegen_compiles_and_agrees() {
    // Without coverage the generated parser still tracks speculation
    // widths (the shared `last_spec` plumbing) and must own the
    // fingerprint constant itself.
    let stem = SUITE_STEMS[0];
    let (g, a) = load_grammar(stem);
    let exe = build_generated(
        &format!("metrics_only_{stem}"),
        &g,
        &a,
        CodegenOptions { metrics: true, ..Default::default() },
    );
    let files = corpus_files(stem);
    let expected = interpreter_metrics(&g, &common::linear(&a), &files);
    let got = generated_metrics(&exe, &files);
    assert_eq!(got, expected, "{stem}: metrics-only generated parser diverged");
}
