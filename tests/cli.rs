//! End-to-end tests of the `llstar` command-line tool (the ANTLR-tool
//! experience): check, dfa, atn, generate, compile, and parse, including
//! the compile-once/parse-with-precomputed-DFAs workflow.

mod common;

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const GRAMMAR: &str = r#"
grammar CliDemo;
s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
expr : INT ;
ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"#;

/// This test's own directory: tests run in parallel, and each writes
/// `demo.g` while its `llstar` children read it.
fn workdir() -> PathBuf {
    common::test_dir("llstar_cli")
}

fn llstar(args: &[&str]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_llstar");
    let out = Command::new(exe).args(args).output().expect("llstar runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

fn grammar_path() -> String {
    let path = workdir().join("demo.g");
    std::fs::write(&path, GRAMMAR).expect("write grammar");
    path.to_string_lossy().to_string()
}

#[test]
fn check_reports_decision_classes() {
    let g = grammar_path();
    let (ok, stdout, _) = llstar(&["check", &g]);
    assert!(ok);
    assert!(stdout.contains("grammar CliDemo"), "{stdout}");
    assert!(stdout.contains("cyclic"), "{stdout}");
}

#[test]
fn dfa_dumps_rule_machines() {
    let g = grammar_path();
    let (ok, stdout, _) = llstar(&["dfa", &g, "s"]);
    assert!(ok);
    assert!(stdout.contains("-'unsigned'->"), "{stdout}");
    assert!(stdout.contains("predict alt 3"), "{stdout}");
}

#[test]
fn atn_emits_dot() {
    let g = grammar_path();
    let (ok, stdout, _) = llstar(&["atn", &g]);
    assert!(ok);
    assert!(stdout.starts_with("digraph atn"), "{stdout}");
}

#[test]
fn generate_emits_rust() {
    let g = grammar_path();
    let (ok, stdout, _) = llstar(&["generate", &g]);
    assert!(ok);
    assert!(stdout.contains("pub fn parse_s"), "{stdout}");
}

#[test]
fn compile_then_parse_with_dfa_file() {
    let g = grammar_path();
    let dfa = workdir().join("demo.dfa").to_string_lossy().to_string();
    let (ok, _, stderr) = llstar(&["compile", &g, &dfa]);
    assert!(ok, "{stderr}");
    assert!(std::fs::read_to_string(&dfa).unwrap().starts_with("llstar-analysis v2"));

    let input = workdir().join("input.txt");
    std::fs::write(&input, "unsigned unsigned int counter").unwrap();
    let input = input.to_string_lossy().to_string();

    let (ok, plain, _) = llstar(&["parse", &g, "s", &input]);
    assert!(ok);
    let (ok, with_dfa, _) = llstar(&["parse", &g, "s", &input, "--dfa", &dfa]);
    assert!(ok);
    assert_eq!(plain, with_dfa, "precompiled DFAs must parse identically");
    assert!(plain.contains("\"counter\""), "{plain}");
}

#[test]
fn parse_failure_exits_nonzero_with_position() {
    let g = grammar_path();
    let input = workdir().join("bad.txt");
    std::fs::write(&input, "unsigned unsigned = ").unwrap();
    let (ok, _, stderr) = llstar(&["parse", &g, "s", &input.to_string_lossy()]);
    assert!(!ok);
    assert!(stderr.contains("error: line 1:"), "{stderr}");
}

#[test]
fn left_recursive_grammar_is_rejected_with_diagnostics() {
    let path = workdir().join("leftrec.g");
    std::fs::write(&path, "grammar L; e : e '+' INT | INT ; INT : [0-9]+ ;").unwrap();
    let (ok, _, stderr) = llstar(&["check", &path.to_string_lossy()]);
    assert!(!ok);
    assert!(stderr.contains("left recursion: e -> e"), "{stderr}");
}

#[test]
fn no_arguments_prints_usage() {
    let (ok, _, stderr) = llstar(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn shipped_grammar_files_check_clean() {
    let root = env!("CARGO_MANIFEST_DIR");
    for name in ["calculator.g", "json.g", "paper_section2.g", "config.g"] {
        let path = format!("{root}/grammars/{name}");
        let (ok, stdout, stderr) = llstar(&["check", &path]);
        assert!(ok, "{name}: {stderr}");
        assert!(stdout.contains("decision classes"), "{name}: {stdout}");
        assert!(
            !stdout.contains("DeadAlternative") && !stdout.contains("Ambiguity"),
            "{name} has warnings: {stdout}"
        );
    }
}

#[test]
fn check_with_cache_hits_on_second_run() {
    let g = grammar_path();
    let cache = workdir().join("cache_hit_dir");
    let _ = std::fs::remove_dir_all(&cache);
    let cache = cache.to_string_lossy().to_string();

    // Cold run: a miss that populates the cache and reports timing.
    let (ok, stdout, stderr) = llstar(&["check", &g, "--cache", &cache, "--jobs", "2"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("analysis cache: miss (no cache file)"), "{stderr}");
    assert!(stdout.contains("slowest decision:"), "{stdout}");

    // Warm run: reported as a hit, DFA construction skipped.
    let (ok, stdout, stderr) = llstar(&["check", &g, "--cache", &cache]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("analysis cache: hit"), "{stderr}");
    assert!(stdout.contains("analysis loaded from cache; DFA construction skipped"), "{stdout}");
    assert!(stdout.contains("decision classes"), "{stdout}");
}

#[test]
fn profile_prints_analysis_and_runtime_columns() {
    let g = grammar_path();
    let input = workdir().join("profile_input.txt");
    std::fs::write(&input, "unsigned unsigned int counter").unwrap();

    let (ok, stdout, stderr) = llstar(&["profile", &g, &input.to_string_lossy()]);
    assert!(ok, "{stderr}");
    // Static analysis columns…
    for col in ["closures", "configs", "states", "edges", "fallback"] {
        assert!(stdout.contains(col), "missing column {col:?}: {stdout}");
    }
    // …runtime columns fed by the trace…
    for col in ["events", "avg-k", "max-k"] {
        assert!(stdout.contains(col), "missing column {col:?}: {stdout}");
    }
    // …one row per decision-bearing rule plus the totals row.
    assert!(stdout.contains(" s "), "{stdout}");
    assert!(stdout.contains("total"), "{stdout}");
    assert!(stderr.contains("trace events"), "{stderr}");

    // Without an input the analysis half still prints, runtime shows "-".
    let (ok, stdout, stderr) = llstar(&["profile", &g]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("closures"), "{stdout}");
}

#[test]
fn profile_json_round_trips_and_is_deterministic() {
    use llstar::core::{AnalysisRecord, Json};
    use llstar::runtime::TraceEvent;

    let g = grammar_path();
    let input = workdir().join("profile_rt.txt");
    std::fs::write(&input, "unsigned unsigned int counter").unwrap();
    let input = input.to_string_lossy().to_string();
    let json_a = workdir().join("profile_a.jsonl").to_string_lossy().to_string();
    let json_b = workdir().join("profile_b.jsonl").to_string_lossy().to_string();

    let (ok, _, stderr) = llstar(&["profile", &g, &input, "--json", &json_a, "--jobs", "2"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("JSONL"), "{stderr}");
    let (ok, _, stderr) = llstar(&["profile", &g, &input, "--json", &json_b, "--jobs", "2"]);
    assert!(ok, "{stderr}");

    let a = std::fs::read_to_string(&json_a).unwrap();
    let b = std::fs::read_to_string(&json_b).unwrap();
    assert_eq!(a, b, "profile --json must be byte-deterministic across runs");

    // Every line parses back through the public APIs: analysis records
    // via AnalysisRecord::from_json, trace events via TraceEvent.
    let mut lines = a.lines();
    assert_eq!(
        lines.next(),
        Some("{\"type\":\"schema\",\"stream\":\"profile\",\"version\":1}"),
        "profile --json must start with its schema header"
    );
    let mut analysis_lines = 0usize;
    let mut event_lines = 0usize;
    for (i, line) in lines.enumerate() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        if v.get("type").and_then(Json::as_str) == Some("analysis") {
            let rec =
                AnalysisRecord::from_json(&v).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
            assert!(!rec.rule.is_empty());
            analysis_lines += 1;
        } else {
            let ev = TraceEvent::from_json(&v).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
            assert_eq!(ev.to_json(), line, "line {}: event does not re-serialize", i + 1);
            event_lines += 1;
        }
    }
    assert!(analysis_lines > 0, "no analysis records exported");
    assert!(event_lines > 0, "no trace events exported");
}

#[test]
fn verbose_check_reports_cache_metrics() {
    let g = grammar_path();
    let cache = workdir().join("cache_metrics_dir");
    let _ = std::fs::remove_dir_all(&cache);
    let cache = cache.to_string_lossy().to_string();

    let (ok, _, stderr) = llstar(&["check", &g, "--cache", &cache, "-v"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("cache metrics:"), "{stderr}");
    assert!(stderr.contains("1 lookups"), "{stderr}");
    assert!(stderr.contains("1 absent"), "{stderr}");

    let (ok, _, stderr) = llstar(&["check", &g, "--cache", &cache, "--verbose"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("1 hits"), "{stderr}");
}

#[test]
fn jobs_flag_does_not_change_compiled_dfas() {
    let g = grammar_path();
    let dir = workdir();
    let seq = dir.join("seq.dfa");
    let par = dir.join("par.dfa");
    let (ok, _, stderr) = llstar(&["compile", &g, &seq.to_string_lossy(), "--jobs", "1"]);
    assert!(ok, "{stderr}");
    let (ok, _, stderr) = llstar(&["compile", &g, &par.to_string_lossy(), "--jobs", "8"]);
    assert!(ok, "{stderr}");
    let seq = std::fs::read_to_string(seq).unwrap();
    let par = std::fs::read_to_string(par).unwrap();
    assert_eq!(seq, par, "--jobs changed the serialized analysis");
}

#[test]
fn bad_jobs_value_is_a_usage_error() {
    let g = grammar_path();
    let (ok, _, stderr) = llstar(&["check", &g, "--jobs", "lots"]);
    assert!(!ok);
    assert!(stderr.contains("--jobs"), "{stderr}");
}

#[test]
fn check_diagnostics_recovers_and_exports_jsonl() {
    let g = grammar_path();
    let dir = workdir();
    let input = dir.join("broken.txt");
    // Two corruption sites: a missing '=' and trailing junk.
    std::fs::write(&input, "a 1\n").expect("write input");
    let jsonl = dir.join("diag.jsonl");
    let (ok, stdout, stderr) = llstar(&[
        "check",
        &g,
        &input.to_string_lossy(),
        "--diagnostics",
        "--max-errors",
        "10",
        "--json",
        &jsonl.to_string_lossy(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("error:"), "{stdout}");
    assert!(stdout.contains("syntax error"), "{stdout}");
    assert!(stdout.contains("recovered"), "{stdout}");
    let exported = std::fs::read_to_string(&jsonl).expect("jsonl written");
    let mut lines = exported.lines();
    assert_eq!(
        lines.next(),
        Some("{\"type\":\"schema\",\"stream\":\"diagnostics\",\"version\":1}"),
        "diagnostics JSONL must start with its schema header"
    );
    let mut diagnostics = 0;
    for line in lines {
        assert!(line.starts_with("{\"type\":\"diagnostic\""), "{line}");
        diagnostics += 1;
    }
    assert!(diagnostics > 0, "diagnostics JSONL must not be empty");
}

#[test]
fn check_without_diagnostics_stays_strict() {
    let g = grammar_path();
    let dir = workdir();
    let input = dir.join("broken_strict.txt");
    std::fs::write(&input, "a 1\n").expect("write input");
    let (ok, _, stderr) = llstar(&["check", &g, &input.to_string_lossy()]);
    assert!(!ok, "strict check must fail on a syntax error");
    assert!(!stderr.is_empty());

    let clean = dir.join("clean.txt");
    std::fs::write(&clean, "a = 1\n").expect("write input");
    let (ok, stdout, stderr) = llstar(&["check", &g, &clean.to_string_lossy()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("parse ok"), "{stdout}");
}

#[test]
fn profile_with_diagnostics_reports_recovery_counters() {
    let g = grammar_path();
    let dir = workdir();
    let input = dir.join("broken_profile.txt");
    std::fs::write(&input, "a 1\n").expect("write input");
    let (ok, stdout, stderr) = llstar(&["profile", &g, &input.to_string_lossy(), "--diagnostics"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("recovery:"), "{stdout}");
    assert!(stdout.contains("diagnostics"), "{stdout}");
}

/// A corpus exercising only the first two alternatives of `s` — the
/// `'unsigned'* 'int' ID` / `'unsigned'* ID ID` declaration alts stay
/// deliberately uncovered.
fn partial_corpus() -> String {
    let dir = workdir().join("cov_partial");
    std::fs::create_dir_all(&dir).expect("corpus dir");
    std::fs::write(dir.join("a_ref.txt"), "counter").expect("write corpus");
    std::fs::write(dir.join("b_assign.txt"), "counter = 42").expect("write corpus");
    dir.to_string_lossy().to_string()
}

#[test]
fn coverage_reports_uncovered_alternatives() {
    let g = grammar_path();
    let corpus = partial_corpus();
    let (ok, stdout, stderr) = llstar(&["coverage", &g, &corpus]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("2/4 alternatives covered") || stdout.contains("UNCOVERED"),
        "{stdout}"
    );
    assert!(stdout.contains("// UNCOVERED"), "{stdout}");
    assert!(stdout.contains("decision"), "hotspot table missing:\n{stdout}");

    // The same corpus under --fail-uncovered is a CI failure that names
    // the dead alternatives.
    let (ok, _, stderr) = llstar(&["coverage", &g, &corpus, "--fail-uncovered"]);
    assert!(!ok, "--fail-uncovered must exit non-zero");
    assert!(stderr.contains("uncovered alternative"), "{stderr}");
    assert!(stderr.contains("s alt 3"), "{stderr}");
}

#[test]
fn coverage_json_is_versioned_and_round_trips() {
    use llstar::core::{CoverageMap, Json};

    let g = grammar_path();
    let corpus = partial_corpus();
    let json = workdir().join("cov_map.json").to_string_lossy().to_string();
    let (ok, _, stderr) = llstar(&["coverage", &g, &corpus, "--json", &json]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&json).unwrap();
    assert!(text.starts_with("{\"type\":\"coverage\",\"schema\":1,"), "{text}");
    let map = CoverageMap::from_json(&Json::parse(&text).expect("valid json"))
        .expect("coverage JSON round-trips");
    assert_eq!(map.files, 2);
    assert_eq!(map.uncovered_alts().len(), 2, "two declaration alts stay uncovered");

    // A future schema version is rejected with a clear error.
    let bumped = text.replacen("\"schema\":1", "\"schema\":99", 1);
    let err = CoverageMap::from_json(&Json::parse(&bumped).unwrap()).unwrap_err();
    assert!(err.contains("version 99"), "{err}");
}

#[test]
fn coverage_chrome_trace_has_valid_shape() {
    use llstar::core::Json;

    let g = grammar_path();
    let corpus = partial_corpus();
    let trace = workdir().join("cov_trace.json").to_string_lossy().to_string();
    let (ok, _, stderr) = llstar(&["coverage", &g, &corpus, "--chrome-trace", &trace]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = Json::parse(&text).expect("chrome trace is valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert!(!events.is_empty(), "chrome trace must not be empty");
    let (mut begins, mut ends) = (0usize, 0usize);
    for e in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "event missing {key:?}: {text}");
        }
        match e.get("ph").and_then(Json::as_str) {
            Some("B") => begins += 1,
            Some("E") => ends += 1,
            Some("i") => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(begins, ends, "span begin/end events must balance");
}

#[test]
fn coverage_replays_recorded_jsonl() {
    let g = grammar_path();
    let dir = workdir();
    let input = dir.join("cov_replay_input.txt");
    std::fs::write(&input, "unsigned unsigned int counter").unwrap();
    let jsonl = dir.join("cov_replay.jsonl").to_string_lossy().to_string();
    let (ok, _, stderr) = llstar(&["profile", &g, &input.to_string_lossy(), "--json", &jsonl]);
    assert!(ok, "{stderr}");

    // Replaying the profile stream folds the recorded events; no live
    // parse happens, so timing columns degrade to "-".
    let (ok, stdout, stderr) = llstar(&["coverage", &g, &jsonl]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("replayed"), "{stderr}");
    assert!(stdout.contains("alternatives covered"), "{stdout}");

    // A stream stamped by a future writer is rejected, not mis-folded.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let bumped_path = dir.join("cov_replay_v99.jsonl");
    std::fs::write(&bumped_path, text.replacen("\"version\":1", "\"version\":99", 1)).unwrap();
    let (ok, _, stderr) = llstar(&["coverage", &g, &bumped_path.to_string_lossy()]);
    assert!(!ok, "future schema versions must be rejected");
    assert!(stderr.contains("version 99"), "{stderr}");
}

#[test]
fn metrics_reports_hot_decisions_table() {
    let g = grammar_path();
    let corpus = partial_corpus();
    let (ok, stdout, stderr) = llstar(&["metrics", &g, &corpus]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("parsed 2 corpus file(s)"), "{stderr}");
    assert!(stdout.contains("2 parses"), "{stdout}");
    assert!(stdout.contains("rule"), "hot-decision table missing:\n{stdout}");
    assert!(stdout.contains("p99-k"), "{stdout}");
    assert!(stdout.contains(" s"), "decision rows must name the rule:\n{stdout}");
}

#[test]
fn metrics_prometheus_output_validates() {
    let g = grammar_path();
    let corpus = partial_corpus();
    let (ok, stdout, stderr) = llstar(&["metrics", &g, &corpus, "--prometheus"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("# TYPE llstar_parses_total counter"), "{stdout}");
    assert!(stdout.contains("llstar_parses_total{"), "{stdout}");
    assert!(stdout.contains("engine=\"session\""), "{stdout}");

    // The tool's own exposition passes the tool's own validator.
    let path = workdir().join("metrics.prom");
    std::fs::write(&path, &stdout).unwrap();
    let (ok, stdout, stderr) = llstar(&["metrics", "--validate", &path.to_string_lossy()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("valid Prometheus exposition"), "{stdout}");

    // A corrupted exposition is rejected with the offending line.
    let broken = workdir().join("metrics_broken.prom");
    std::fs::write(&broken, "llstar_undeclared_total{x=\"1\"} 5\n").unwrap();
    let (ok, _, stderr) = llstar(&["metrics", "--validate", &broken.to_string_lossy()]);
    assert!(!ok, "invalid exposition must fail validation");
    assert!(stderr.contains("line 1"), "{stderr}");
}

#[test]
fn metrics_json_stream_feeds_watch() {
    let g = grammar_path();
    let corpus = partial_corpus();
    let jsonl = workdir().join("metrics_stream.jsonl").to_string_lossy().to_string();
    let (ok, _, stderr) = llstar(&["metrics", &g, &corpus, "--json", &jsonl]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&jsonl).unwrap();
    assert!(
        text.starts_with("{\"type\":\"schema\",\"stream\":\"metrics\",\"version\":1}"),
        "{text}"
    );
    assert!(text.contains("\"type\":\"metrics\""), "{text}");
    assert!(text.contains("\"latency-hist\""), "the CLI stream carries the timing tier: {text}");

    // One dashboard frame over the stream.
    let (ok, stdout, stderr) = llstar(&["watch", &jsonl, "--once", "--top", "3"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("llstar watch"), "{stdout}");
    assert!(stdout.contains("2 parses"), "{stdout}");
    assert!(stdout.contains("p99-k"), "{stdout}");

    // A stream stamped by a future writer is rejected, not mis-rendered.
    let bumped = workdir().join("metrics_stream_v99.jsonl");
    std::fs::write(&bumped, text.replacen("\"version\":1", "\"version\":99", 1)).unwrap();
    let (ok, _, stderr) = llstar(&["watch", &bumped.to_string_lossy(), "--once"]);
    assert!(!ok, "future schema versions must be rejected");
    assert!(stderr.contains("version 99"), "{stderr}");
}

#[test]
fn watch_once_fails_on_missing_file() {
    let missing = workdir().join("no_such_stream.jsonl");
    let (ok, _, stderr) = llstar(&["watch", &missing.to_string_lossy(), "--once"]);
    assert!(!ok, "missing stream must fail under --once");
    assert!(stderr.contains("no_such_stream"), "{stderr}");
}

#[test]
fn profile_sample_thins_the_trace() {
    let g = grammar_path();
    let dir = workdir();
    let input = dir.join("sample_input.txt");
    std::fs::write(&input, "unsigned unsigned int counter").unwrap();
    let input = input.to_string_lossy().to_string();

    let full = dir.join("profile_full.jsonl").to_string_lossy().to_string();
    let (ok, _, stderr) = llstar(&["profile", &g, &input, "--json", &full]);
    assert!(ok, "{stderr}");
    let sampled = dir.join("profile_sampled.jsonl").to_string_lossy().to_string();
    let (ok, _, stderr) = llstar(&["profile", &g, &input, "--json", &sampled, "--sample", "4"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("1 in 4 windows"), "{stderr}");

    let count = |path: &str| {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter(|l| l.contains("\"predict-start\""))
            .count()
    };
    let (full_n, sampled_n) = (count(&full), count(&sampled));
    assert!(full_n > 1, "fixture input must exercise several predictions, got {full_n}");
    assert!(
        sampled_n < full_n,
        "sampling must thin the stream: {sampled_n} vs {full_n} prediction windows"
    );

    // The thinned stream still replays: whole windows are kept or
    // dropped, never split.
    let (ok, stdout, stderr) = llstar(&["coverage", &g, &sampled]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("alternatives covered"), "{stdout}");
}

#[test]
fn generate_metrics_emits_counters() {
    let g = grammar_path();
    let (ok, stdout, _) = llstar(&["generate", &g, "--metrics"]);
    assert!(ok);
    assert!(stdout.contains("pub struct Metrics"), "{stdout}");
    assert!(stdout.contains("pub met: Metrics"), "{stdout}");

    // Default output stays metrics-free: the counters are opt-in for
    // generated parsers (the interpreter is where they are always on).
    let (ok, stdout, _) = llstar(&["generate", &g]);
    assert!(ok);
    assert!(!stdout.contains("pub struct Metrics"), "{stdout}");
}

/// Waits for a daemon to exit, failing the test (not hanging it) when
/// it outlives `limit`.
fn wait_with_limit(child: &mut std::process::Child, limit: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("wait") {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("llstar serve still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn serve_http_with_stdio_exits_zero_on_stdin_eof() {
    // No client ever connects: the drain that stdin EOF begins must
    // itself wake the HTTP accept loop.
    let g = grammar_path();
    let mut child = Command::new(env!("CARGO_BIN_EXE_llstar"))
        .args(["serve", &g, "--http", "127.0.0.1:0", "--stdio"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("llstar runs");
    let status = wait_with_limit(&mut child, Duration::from_secs(60));
    assert!(status.success(), "{status}");
    let mut stdout = String::new();
    child.stdout.take().expect("piped").read_to_string(&mut stdout).expect("stdout");
    assert!(stdout.starts_with(r#"{"type":"schema","stream":"serve""#), "{stdout}");
}

#[cfg(unix)]
#[test]
fn serve_http_drains_and_exits_zero_on_sigterm() {
    let g = grammar_path();
    let mut child = Command::new(env!("CARGO_BIN_EXE_llstar"))
        .args(["serve", &g, "--http", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("llstar runs");
    // The daemon announces its listener after installing the handler,
    // so the signal cannot arrive before it.
    let mut stderr = BufReader::new(child.stderr.take().expect("piped"));
    let mut line = String::new();
    while !line.starts_with("http on") {
        line.clear();
        assert!(stderr.read_line(&mut line).expect("stderr") > 0, "daemon exited early");
    }
    let kill = Command::new("kill").args(["-TERM", &child.id().to_string()]).status();
    assert!(kill.expect("kill runs").success());
    let status = wait_with_limit(&mut child, Duration::from_secs(60));
    assert!(status.success(), "SIGTERM must drain to exit 0: {status}");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("stderr");
    assert!(rest.contains("serve done:"), "{rest}");
}
