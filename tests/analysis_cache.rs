//! The persistent analysis cache, proven end to end:
//!
//! * a hit *skips subset construction entirely* (`from_cache` is set and
//!   the per-decision construction metrics are replayed from the file,
//!   not recounted),
//! * a grammar edit changes the fingerprint and forces re-analysis —
//!   including an edit that touches *only* the `options { … }` block,
//!   since analysis limits (`max_k`, `m`) derive from it,
//! * the same cache file read under different *result-affecting* analysis
//!   options is a `StaleOptions` miss,
//! * truncated or corrupted cache files are rejected with a
//!   line-numbered [`SerializeError`] — never a panic, and never a
//!   silently wrong analysis.
//!
//! All outcomes are observed through per-run state ([`CacheStatus`],
//! `from_cache`, [`DecisionMetrics`]) — no process-global counters, so
//! the tests are free to run in parallel.

use llstar::core::{
    analyze_cached, analyze_cached_metered, analyze_cached_with, analyze_with, cache_path,
    deserialize_analysis, grammar_fingerprint, serialize_analysis, AnalysisOptions, CacheMetrics,
    CacheMiss, CacheStatus,
};
use llstar::grammar::{apply_peg_mode, parse_grammar, Grammar};
use std::path::{Path, PathBuf};

/// A fresh directory for one test, under Cargo's per-target test temp
/// dir: what an earlier run left there is wiped first.
fn workdir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("llstar_cachetest_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn grammar(body: &str) -> Grammar {
    apply_peg_mode(parse_grammar(body).expect("test grammar parses"))
}

const BASE: &str = "grammar Cached;
    s : A B C | A B D | A* X ;
    t : X Y | X Z ;
    A:'a'; B:'b'; C:'c'; D:'d'; X:'x'; Y:'y'; Z:'z';
    WS : [ ]+ -> skip ;";

#[test]
fn hit_skips_subset_construction_and_replays_metrics() {
    let g = grammar(BASE);
    let path = cache_path(&workdir("hit"), &g);
    let _ = std::fs::remove_file(&path);

    let (fresh, status) = analyze_cached(&g, &path).expect("first analyze");
    assert_eq!(status, CacheStatus::Miss(CacheMiss::Absent));
    assert!(!fresh.from_cache, "a miss must run subset construction");
    let fresh_total = fresh.total_metrics();
    assert!(fresh_total.dfa_builds > 0 && fresh_total.closure_calls > 0, "{fresh_total:?}");

    let (loaded, status) = analyze_cached(&g, &path).expect("second analyze");
    assert!(status.is_hit(), "{status}");
    assert!(loaded.from_cache, "a cache hit must not build a single DFA");
    assert_eq!(
        serialize_analysis(&g, &fresh),
        serialize_analysis(&g, &loaded),
        "loaded analysis differs from the one that was cached"
    );
    // The original construction cost is reported even though no
    // construction ran: the metrics travelled through the file.
    assert_eq!(loaded.total_metrics(), fresh_total);
    for (da, db) in fresh.decisions.iter().zip(&loaded.decisions) {
        assert_eq!(da.metrics, db.metrics, "decision d{} metrics", da.decision.0);
    }
    // Every construction path carries the grammar's fingerprint: a
    // fresh analysis, a cache hit, and a `--dfa` load of the same text.
    let fingerprint = grammar_fingerprint(&g);
    assert_eq!(fresh.fingerprint, fingerprint, "fresh analysis");
    assert_eq!(loaded.fingerprint, fingerprint, "cache hit");
    let dfa = deserialize_analysis(&g, &serialize_analysis(&g, &fresh)).expect("--dfa load");
    assert_eq!(dfa.fingerprint, fingerprint, "--dfa load");
}

#[test]
fn grammar_edit_changes_fingerprint_and_forces_reanalysis() {
    let g1 = grammar(BASE);
    let dir = workdir("edit");
    let path = cache_path(&dir, &g1);
    let _ = std::fs::remove_file(&path);
    analyze_cached(&g1, &path).expect("prime the cache");

    // Same grammar name — same cache slot — but an edited body.
    let g2 = grammar(&BASE.replace("t : X Y | X Z ;", "t : X Y | Y Z ;"));
    assert_eq!(cache_path(&dir, &g2), path, "edit must target the same slot");

    let (a, status) = analyze_cached(&g2, &path).expect("re-analyze after edit");
    assert_eq!(status, CacheStatus::Miss(CacheMiss::StaleGrammar));
    assert!(!a.from_cache, "a stale cache must be recomputed");

    // The rewrite re-keys the slot: the edited grammar now hits, and the
    // *original* grammar is the one that misses.
    let (_, status) = analyze_cached(&g2, &path).expect("hit after rewrite");
    assert!(status.is_hit(), "{status}");
    let (_, status) = analyze_cached(&g1, &path).expect("original now stale");
    assert_eq!(status, CacheStatus::Miss(CacheMiss::StaleGrammar));
}

#[test]
fn options_block_edit_forces_reanalysis() {
    let g1 = grammar(BASE);
    let dir = workdir("opts");
    let path = cache_path(&dir, &g1);
    let _ = std::fs::remove_file(&path);
    analyze_cached(&g1, &path).expect("prime the cache");

    // Identical rules — only the options block changes. `k = 1` bounds
    // the lookahead, which changes the DFAs and the ambiguity warnings,
    // so serving the unbounded-k cache would silently alter results.
    // The edit changes the grammar text, so this is a grammar-level miss.
    let g2 = grammar(&BASE.replace("grammar Cached;", "grammar Cached; options { k = 1; }"));
    assert_eq!(cache_path(&dir, &g2), path, "options edit must target the same slot");

    let (a, status) = analyze_cached(&g2, &path).expect("re-analyze after options edit");
    assert_eq!(status, CacheStatus::Miss(CacheMiss::StaleGrammar));
    assert!(!a.from_cache, "an options edit must force re-analysis");
    assert_eq!(a.options.max_k, Some(1));

    let (b, status) = analyze_cached(&g2, &path).expect("hit with matching options");
    assert!(status.is_hit(), "{status}");
    assert_eq!(b.options.max_k, Some(1));
}

#[test]
fn option_override_without_grammar_edit_is_a_stale_options_miss() {
    let g = grammar(BASE);
    let dir = workdir("optover");
    let path = cache_path(&dir, &g);
    let _ = std::fs::remove_file(&path);

    let mut metrics = CacheMetrics::default();
    let defaults = AnalysisOptions::from_grammar(&g);
    analyze_cached_metered(&g, &path, &defaults, &mut metrics).expect("prime the cache");

    // Same grammar text, different result-affecting analysis options:
    // the fingerprint matches but the recorded options do not.
    let mut bounded = defaults.clone();
    bounded.max_k = Some(1);
    let (a, status) =
        analyze_cached_metered(&g, &path, &bounded, &mut metrics).expect("bounded re-analysis");
    assert_eq!(status, CacheStatus::Miss(CacheMiss::StaleOptions));
    assert!(!a.from_cache);

    // The rewrite re-keys the slot to the bounded options.
    let (_, status) =
        analyze_cached_metered(&g, &path, &bounded, &mut metrics).expect("bounded hit");
    assert!(status.is_hit(), "{status}");

    assert_eq!(metrics.lookups(), 3);
    assert_eq!(metrics.absent, 1);
    assert_eq!(metrics.stale_options, 1);
    assert_eq!(metrics.hits, 1);
}

#[test]
fn truncated_caches_are_rejected_with_a_line_number() {
    let g = grammar(BASE);
    let full = serialize_analysis(&g, &analyze_with(&g, &AnalysisOptions::from_grammar(&g)));
    let total_lines = full.lines().count();
    assert!(total_lines > 5, "serialization too small to truncate meaningfully");

    // Cut the file after every line boundary. No prefix may load: the
    // format ends each decision with an explicit `end` marker and records
    // the decision count up front, so every truncation is detectable.
    for keep in 0..total_lines {
        let truncated: String = full.lines().take(keep).map(|l| format!("{l}\n")).collect();
        let e = deserialize_analysis(&g, &truncated)
            .err()
            .unwrap_or_else(|| panic!("truncation to {keep} lines loaded successfully"));
        assert!(
            e.line >= 1 && e.line <= keep + 1,
            "truncation to {keep} lines blamed line {} ({e})",
            e.line
        );
    }
}

#[test]
fn corrupted_caches_are_rejected_never_panicking() {
    let g = grammar(BASE);
    let dir = workdir("corrupt");
    let path = cache_path(&dir, &g);
    let _ = std::fs::remove_file(&path);
    analyze_cached(&g, &path).expect("prime the cache");
    let full = std::fs::read_to_string(&path).expect("read cache");

    // Mangle each line in turn; every mangled file must be rejected with
    // a diagnosis naming that line (or a later one, when the damage only
    // becomes detectable downstream — e.g. an inflated state count).
    let lines: Vec<&str> = full.lines().collect();
    for (i, _) in lines.iter().enumerate() {
        for mangled_line in ["?garbage?", "state accept=99999 default=- edges= preds=", ""] {
            let mangled: String = lines
                .iter()
                .enumerate()
                .map(|(j, l)| if j == i { format!("{mangled_line}\n") } else { format!("{l}\n") })
                .collect();
            match deserialize_analysis(&g, &mangled) {
                Ok(_) if mangled_line.is_empty() => {
                    // Deleting a line is only acceptable when the result
                    // still serializes identically (blank lines are
                    // insignificant — but no content line is).
                    panic!("deleting content line {} loaded successfully", i + 1);
                }
                Ok(_) => panic!("corrupting line {} loaded successfully", i + 1),
                Err(e) => assert!(
                    e.line >= 1,
                    "corrupting line {} produced an unlocated error: {e}",
                    i + 1
                ),
            }
        }
    }

    // And the cache layer turns any such file into a repairing miss —
    // including a file written by the superseded v1 format, which lacks
    // the per-decision metrics lines.
    std::fs::write(&path, "llstar-analysis v1\nfingerprint zzzz\n").expect("plant old cache");
    let (a, status) = analyze_cached(&g, &path).expect("recover from corruption");
    match status {
        CacheStatus::Miss(CacheMiss::Invalid(e)) => {
            assert!(e.line >= 1, "invalid-cache diagnosis has no line: {e}")
        }
        other => panic!("expected an invalid-cache miss, got {other:?}"),
    }
    assert!(!a.from_cache);
    let (_, status) = analyze_cached(&g, &path).expect("repaired");
    assert!(status.is_hit(), "{status}");
}

#[test]
fn cache_written_by_parallel_analysis_hits_for_sequential_and_vice_versa() {
    let g = grammar(BASE);
    let dir = workdir("xthreads");

    // Parallel writer, then a hit regardless of the reader's options —
    // determinism means thread count never invalidates a cache.
    for (writer_threads, tag) in [(4usize, "par"), (1usize, "seq")] {
        let path = dir.join(format!("{tag}.dfa"));
        let _ = std::fs::remove_file(&path);
        let mut options = AnalysisOptions::from_grammar(&g);
        options.threads = writer_threads;
        let (_, status) = analyze_cached_with(&g, &path, &options).expect("prime");
        assert!(!status.is_hit());
        for reader_threads in [1usize, 4] {
            let mut options = AnalysisOptions::from_grammar(&g);
            options.threads = reader_threads;
            let (a, status) = analyze_cached_with(&g, &path, &options).expect("read");
            assert!(
                status.is_hit(),
                "writer threads={writer_threads}, reader threads={reader_threads}: {status}"
            );
            assert!(a.from_cache);
        }
    }
}
