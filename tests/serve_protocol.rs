//! Serve-daemon acceptance: the wire protocol routed across the three
//! gauntlet grammars, malformed-request handling, and — the load-bearing
//! property — worker-count invariance: a multi-worker server must
//! produce byte-identical response JSONL *and* byte-identical merged
//! metric snapshots (modulo timing histograms) to a single-worker
//! server, and its trees must match single-shot [`parse_text`] runs.
//!
//! Corpus size follows `LLSTAR_GAUNTLET_TIER` like the oracle (`smoke`
//! ≈ 10 KB, default `1mb`).
//!
//! [`parse_text`]: llstar::runtime::parse_text

use llstar::core::schema::{ServeBody, ServeErrorKind, ServeMode, ServeRequest};
use llstar::core::Json;
use llstar::runtime::{parse_text, NopHooks, ParseSession};
use llstar::serve::{load_grammars, GrammarEntry, ServeOptions, Server};
use llstar_suite::gauntlet::{all, corpus, Tier};

mod common;

/// Fixed corpus seed, distinct from the oracle's so the suites don't
/// share generated inputs by accident.
const SERVE_SEED: u64 = 0x5e7_e011;

/// Grammar files served in every test, in route order.
const GRAMMAR_PATHS: [&str; 3] =
    ["grammars/gauntlet/java8.g", "grammars/gauntlet/sql.g", "grammars/gauntlet/json.g"];

fn gauntlet_entries() -> Vec<GrammarEntry> {
    let paths: Vec<String> = GRAMMAR_PATHS.iter().map(|p| p.to_string()).collect();
    load_grammars(&paths, None, None).expect("gauntlet grammars load")
}

/// The gauntlet corpus rendered as tree-mode requests: one request per
/// generated file per grammar, ids dense in route order.
fn corpus_requests(entries: &[GrammarEntry], tier: Tier) -> Vec<ServeRequest> {
    let mut requests = Vec::new();
    for (suite, entry) in all().iter().zip(entries) {
        for (_, input) in corpus(suite, tier, SERVE_SEED) {
            requests.push(ServeRequest {
                id: requests.len() as u64,
                grammar: entry.name.clone(),
                mode: ServeMode::Tree,
                input,
                traceparent: None,
            });
        }
    }
    requests
}

#[test]
fn requests_route_by_grammar_name() {
    let entries = gauntlet_entries();
    assert_eq!(
        entries.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
        ["GauntletJava8", "GauntletSql", "GauntletJson"],
        "route keys are the grammar declarations"
    );
    let names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
    let server = Server::start(entries, ServeOptions::default()).expect("server starts");
    let mut requests: Vec<ServeRequest> = all()
        .iter()
        .zip(&names)
        .enumerate()
        .map(|(i, (suite, name))| ServeRequest {
            id: i as u64,
            grammar: name.clone(),
            mode: ServeMode::Tree,
            input: (suite.generate)(512, SERVE_SEED),
            traceparent: None,
        })
        .collect();
    requests.push(ServeRequest {
        id: 99,
        grammar: "NoSuchGrammar".into(),
        mode: ServeMode::Tree,
        input: "x".into(),
        traceparent: None,
    });
    let responses = server.process_batch(requests);
    for (response, name) in responses.iter().zip(&names) {
        assert_eq!(&response.grammar, name, "route key echoed");
        match &response.body {
            ServeBody::Tree { tokens, sexpr } => {
                assert!(*tokens > 0 && sexpr.starts_with('('), "{name}: {sexpr:.40}")
            }
            other => panic!("{name} did not parse: {other:?}"),
        }
    }
    match &responses[3].body {
        ServeBody::Error { kind: ServeErrorKind::UnknownGrammar, message } => {
            assert!(message.contains("GauntletSql"), "lists loaded grammars: {message}")
        }
        other => panic!("unknown grammar answered {other:?}"),
    }
    server.shutdown();
}

#[test]
fn worker_pool_is_byte_identical_to_single_worker_and_single_shot() {
    let tier = Tier::from_env();
    let run = |workers: usize| -> (Vec<String>, Vec<String>) {
        let entries = gauntlet_entries();
        let requests = corpus_requests(&entries, tier);
        let opts = ServeOptions { workers, ..ServeOptions::default() };
        let server = Server::start(entries, opts).expect("server starts");
        let lines: Vec<String> =
            server.process_batch(requests).iter().map(|r| r.to_json()).collect();
        // timing=false is the byte-deterministic parity form: counts
        // only, no latency histogram or wall-clock.
        let merged: Vec<String> = server
            .registry()
            .snapshot_all()
            .iter()
            .map(|(engine, snap)| snap.to_json(engine, false))
            .collect();
        server.shutdown();
        (lines, merged)
    };
    let (serial_lines, serial_metrics) = run(1);
    let (pool_lines, pool_metrics) = run(4);
    assert_eq!(serial_lines, pool_lines, "responses depend on worker count");
    assert_eq!(serial_metrics, pool_metrics, "merged snapshots depend on worker count");
    assert_eq!(serial_metrics.len(), 3, "one snapshot per grammar");

    // And the served trees are exactly what a single-shot parse yields.
    let entries = gauntlet_entries();
    let requests = corpus_requests(&entries, tier);
    for (request, line) in requests.iter().zip(&serial_lines) {
        let entry = entries.iter().find(|e| e.name == request.grammar).expect("routed");
        let (tree, _) = parse_text(
            &entry.grammar,
            &entry.analysis,
            &request.input,
            &entry.start_rule,
            NopHooks,
        )
        .expect("corpus inputs parse");
        let sexpr = tree.to_sexpr(&entry.grammar, &request.input);
        let quoted = llstar::core::json::quote(&sexpr);
        assert!(
            line.contains(&format!("\"sexpr\":{quoted}")),
            "served tree diverges from single-shot for {} (request {})",
            request.grammar,
            request.id
        );
    }
}

/// The tentpole determinism property for exemplar captures: a forced
/// budget breach over gauntlet-corpus inputs must persist a capture
/// whose deterministic line (trace id, request coordinates, reason,
/// span tree) is byte-identical whether one worker or four handled the
/// batch. The wall-clock timing and metrics lines are per-run.
#[test]
fn capture_spans_are_byte_identical_across_worker_counts() {
    let inputs: Vec<String> = corpus_requests(&gauntlet_entries(), Tier::Smoke)
        .into_iter()
        .filter(|r| r.grammar == "GauntletJson")
        .map(|r| r.input)
        .take(4)
        .collect();
    assert!(!inputs.is_empty(), "smoke corpus provides json inputs");
    let run = |workers: usize| -> Vec<(String, String)> {
        let dir = std::env::temp_dir()
            .join(format!("llstar-capture-det-{}-{workers}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            workers,
            // Tiny fuel budget: every corpus request trips it, so every
            // request captures — deterministically, unlike a wall-clock
            // slow threshold.
            fuel: Some(64),
            capture_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let server = Server::start(gauntlet_entries(), opts).expect("server starts");
        let requests: Vec<ServeRequest> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| ServeRequest {
                id: i as u64,
                grammar: "GauntletJson".into(),
                mode: ServeMode::Tree,
                input: input.clone(),
                traceparent: None,
            })
            .collect();
        let responses = server.process_batch(requests);
        server.shutdown();
        let captures: Vec<(String, String)> = responses
            .iter()
            .map(|r| {
                assert!(
                    matches!(&r.body, ServeBody::Error { kind: ServeErrorKind::FuelExhausted, .. }),
                    "fuel budget must trip: {:?}",
                    r.body
                );
                let trace_id = r.trace_id.clone().expect("trace id set");
                let text = std::fs::read_to_string(dir.join(format!("{trace_id}.spans.jsonl")))
                    .expect("capture persisted");
                let capture_line = text
                    .lines()
                    .find(|l| l.contains("\"type\":\"capture\""))
                    .expect("capture line present")
                    .to_string();
                (trace_id, capture_line)
            })
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        captures
    };
    let serial = run(1);
    let pool = run(4);
    assert_eq!(serial, pool, "capture lines depend on worker count");
}

#[test]
fn malformed_and_oversized_requests_answer_in_place() {
    let entries = gauntlet_entries();
    let opts = ServeOptions { max_input_bytes: 1 << 10, ..ServeOptions::default() };
    let server = Server::start(entries, opts).expect("server starts");
    let json_doc = "[1, 2, {\"k\": true}]".to_string();
    let responses = server.process_batch(vec![
        ServeRequest {
            id: 0,
            grammar: "GauntletJson".into(),
            mode: ServeMode::Tree,
            input: json_doc,
            traceparent: None,
        },
        ServeRequest {
            id: 1,
            grammar: "GauntletJson".into(),
            mode: ServeMode::Tree,
            input: "x".repeat(2 << 10),
            traceparent: None,
        },
        ServeRequest {
            id: 2,
            grammar: "GauntletJson".into(),
            mode: ServeMode::Tree,
            input: "[1, 2,".into(),
            traceparent: None,
        },
    ]);
    assert!(matches!(responses[0].body, ServeBody::Tree { .. }), "{:?}", responses[0].body);
    assert!(
        matches!(
            &responses[1].body,
            ServeBody::Error { kind: ServeErrorKind::Oversized, message } if message.contains("cap 1024")
        ),
        "{:?}",
        responses[1].body
    );
    assert!(
        matches!(&responses[2].body, ServeBody::Error { kind: ServeErrorKind::Parse, .. }),
        "{:?}",
        responses[2].body
    );
    server.shutdown();
}

/// A single-worker server (so every request runs on one lane, one
/// after another) answering `requests`.
fn serial_answers(fuel: Option<u64>, requests: &[ServeRequest]) -> Vec<ServeBody> {
    let opts = ServeOptions { workers: 1, fuel, ..ServeOptions::default() };
    let server = Server::start(gauntlet_entries(), opts).expect("server starts");
    let responses = server.process_batch(requests.to_vec());
    server.shutdown();
    responses.into_iter().map(|r| r.body).collect()
}

#[test]
fn coverage_requests_run_on_the_recycled_session_and_leave_it_clean() {
    let dir = common::test_dir("serve_coverage");
    let entries = gauntlet_entries();
    // java8 (PEG mode, memo traffic) and sql (LL(*) with predicates).
    for ((suite, path), entry) in all().iter().zip(GRAMMAR_PATHS).zip(&entries).take(2) {
        let small = (suite.generate)(1 << 10, SERVE_SEED);
        let big = (suite.generate)(16 << 10, SERVE_SEED);
        // A fuel cap the small input fits in and the big one exhausts.
        let fuel_of = |input: &str| {
            let mut session =
                ParseSession::new(&entry.grammar, &entry.analysis, &entry.start_rule, NopHooks)
                    .expect("lexer builds");
            session.parse_to_eof(input).expect("generated input parses");
            session.parser().fuel_used()
        };
        let fuel = 2 * fuel_of(&small);
        assert!(fuel_of(&big) > fuel, "{}: the big input must exhaust the cap", suite.name);
        let req = |id, mode, input: &str| ServeRequest {
            id,
            grammar: entry.name.clone(),
            mode,
            input: input.to_string(),
            traceparent: None,
        };
        let tree = req(0, ServeMode::Tree, &small);
        let coverage = req(0, ServeMode::Coverage, &small);
        let fresh_tree = serial_answers(Some(fuel), std::slice::from_ref(&tree)).remove(0);
        let fresh_coverage = serial_answers(Some(fuel), std::slice::from_ref(&coverage)).remove(0);

        // The coverage body is `llstar coverage --json` for that input.
        let input_path = dir.join(format!("{}.txt", suite.name));
        let json_path = dir.join(format!("{}.json", suite.name));
        std::fs::write(&input_path, &small).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_llstar"))
            .args(["coverage", path])
            .arg(&input_path)
            .args(["--rule", &entry.start_rule, "--json"])
            .arg(&json_path)
            .output()
            .expect("llstar runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let cli = Json::parse(std::fs::read_to_string(&json_path).unwrap().trim()).unwrap();
        match &fresh_coverage {
            ServeBody::Coverage { report } => assert_eq!(report, &cli, "{}", suite.name),
            other => panic!("{}: coverage mode answered {other:?}", suite.name),
        }

        // Coverage requests, one of them out of fuel, change nothing
        // for the requests after them on the same lane.
        let answers = serial_answers(
            Some(fuel),
            &[
                tree.clone(),
                req(1, ServeMode::Coverage, &big),
                tree.clone(),
                coverage.clone(),
                tree.clone(),
                coverage.clone(),
                tree,
            ],
        );
        assert!(
            matches!(&answers[1], ServeBody::Error { kind: ServeErrorKind::FuelExhausted, .. }),
            "{}: {:?}",
            suite.name,
            answers[1]
        );
        for i in [0, 2, 4, 6] {
            assert_eq!(answers[i], fresh_tree, "{}: tree answer {i} differs", suite.name);
        }
        for i in [3, 5] {
            assert_eq!(answers[i], fresh_coverage, "{}: coverage answer {i} differs", suite.name);
        }
    }
}
