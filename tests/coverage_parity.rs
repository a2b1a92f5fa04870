//! Interpreted/generated coverage parity: the interpreter's coverage
//! recorder and a coverage-instrumented generated parser run over the
//! same corpus must produce **byte-identical coverage JSON** — same
//! rule-alternative hit counts, DFA state/edge traversals, lookahead
//! histograms, and backtrack/memo attribution. The interpreter's live
//! recording must also equal `llstar coverage` replaying the trace of
//! the same parse.

use llstar::codegen::{generate_with, CodegenOptions};
use llstar::core::{CoverageMap, GrammarAnalysis, Json};
use llstar::grammar::Grammar;
use llstar::runtime::{NopHooks, ParseSession};
use std::path::{Path, PathBuf};
use std::process::Command;

mod common;
use common::{
    compile_generated, corpus_files, load_grammar, repo_path, smoke_file, test_dir, SUITE_STEMS,
};
use llstar_suite::gauntlet::{by_name, corpus, Tier};

/// Records the interpreter's coverage JSON across a corpus (the
/// reference side of the parity check).
fn interpreter_coverage(g: &Grammar, a: &GrammarAnalysis, files: &[PathBuf]) -> String {
    let start = g.start_rule().name.clone();
    let mut session = ParseSession::new(g, a, &start, NopHooks).expect("lexer builds");
    session.parser().enable_coverage();
    for file in files {
        let input = std::fs::read_to_string(file).expect("corpus file readable");
        session
            .parse_to_eof(&input)
            .unwrap_or_else(|e| panic!("interpreter failed on {file:?}: {e}"));
    }
    let mut map = session.parser().take_coverage().expect("coverage was enabled");
    map.files = files.len() as u64;
    map.to_json()
}

/// Compiles a coverage-instrumented generated parser plus a driver that
/// parses every argv path and prints the merged coverage JSON.
fn build_generated(stem: &str, g: &Grammar, a: &GrammarAnalysis) -> PathBuf {
    let code = generate_with(g, a, CodegenOptions { coverage: true, ..Default::default() })
        .expect("generation succeeds");
    let start = &g.start_rule().name;
    let driver = format!(
        r#"
fn main() {{
    let mut cov = Coverage::new();
    for path in std::env::args().skip(1) {{
        let input = std::fs::read_to_string(&path).expect("corpus file readable");
        let tokens = tokenize(&input).expect("lexes");
        let mut hooks = NopHooks;
        let mut parser = Parser::new(tokens, &mut hooks);
        let tree = parser.parse_{start}().expect("parses");
        assert!(parser.la(1) == 0, "trailing input in {{path}}");
        let _ = tree;
        cov.merge(&parser.cov);
        cov.files += 1;
    }}
    println!("{{}}", cov.to_json());
}}
"#
    );
    compile_generated(&format!("coverage_{stem}"), &code, &driver)
}

fn generated_coverage(exe: &Path, files: &[PathBuf]) -> String {
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
fn coverage_json_is_byte_identical_across_engines() {
    for stem in SUITE_STEMS {
        let (g, a) = load_grammar(stem);
        let exe = build_generated(stem, &g, &a);

        // Corpus-dir fold (several files merged).
        let files = corpus_files(stem);
        let expected = interpreter_coverage(&g, &a, &files);
        let got = generated_coverage(&exe, &files);
        assert_eq!(got, expected, "{stem}: engines diverged over grammars/corpus/{stem}/");

        // Single smoke input (the per-file shape, files = 1).
        let smoke = vec![smoke_file(stem)];
        let expected = interpreter_coverage(&g, &a, &smoke);
        let got = generated_coverage(&exe, &smoke);
        assert_eq!(got, expected, "{stem}: engines diverged over grammars/smoke/{stem}.txt");
    }
}

#[test]
fn corpus_covers_every_alternative() {
    // The shipped corpora are full-coverage fixtures: the CI smoke step
    // runs `llstar coverage --fail-uncovered` over them, so regressions
    // here should fail loudly with the rule/alt that lost coverage.
    for stem in SUITE_STEMS {
        let (g, a) = load_grammar(stem);
        let files = corpus_files(stem);
        let json = interpreter_coverage(&g, &a, &files);
        let map = llstar::core::CoverageMap::from_json(
            &llstar::core::json::Json::parse(&json).expect("coverage json parses"),
        )
        .expect("coverage json round-trips");
        let uncovered = map.uncovered_alts();
        assert!(
            uncovered.is_empty(),
            "{stem}: uncovered alternatives {uncovered:?} (rule index, alt index)"
        );
    }
}

/// Runs the `llstar` binary, panicking with its stderr on failure.
fn llstar(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_llstar")).args(args).output().expect("llstar runs");
    assert!(out.status.success(), "llstar {args:?}: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn live_coverage_equals_replay_of_the_profile_stream() {
    let dir = test_dir("coverage_replay");
    // java8 is PEG mode with memo traffic; sql is LL(*) with predicates.
    for name in ["java8", "sql"] {
        let entry = by_name(name).expect("gauntlet grammar");
        let grammar = repo_path(&format!("grammars/gauntlet/{name}.g")).display().to_string();
        let rule = entry.start_rule;
        let mut memo_traffic = 0;
        for (i, (_, text)) in corpus(&entry, Tier::Smoke, 0xC0DE).iter().enumerate() {
            let file = |ext: &str| dir.join(format!("{name}-{i}.{ext}")).display().to_string();
            let (input, profile) = (file("txt"), file("jsonl"));
            let (live, replayed) = (file("live.json"), file("replayed.json"));
            std::fs::write(&input, text).unwrap();
            llstar(&["profile", &grammar, &input, "--rule", rule, "--json", &profile]);
            llstar(&["coverage", &grammar, &input, "--rule", rule, "--json", &live]);
            llstar(&["coverage", &grammar, &profile, "--json", &replayed]);
            let live = std::fs::read_to_string(&live).unwrap();
            assert_eq!(live, std::fs::read_to_string(&replayed).unwrap(), "{name} input {i}");
            let map = CoverageMap::from_json(&Json::parse(&live).unwrap()).unwrap();
            memo_traffic += map.unattributed_memo_hits + map.unattributed_memo_misses;
            memo_traffic += map.decisions.iter().map(|d| d.memo_hits + d.memo_misses).sum::<u64>();
        }
        if name == "java8" {
            assert!(memo_traffic > 0, "the java8 smoke corpus must exercise the memo sites");
        }
    }
}
