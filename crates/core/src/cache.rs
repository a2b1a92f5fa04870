//! A persistent, hash-guarded analysis cache.
//!
//! `analyze` re-runs the full subset construction on every invocation,
//! even though the result is a pure function of the grammar text.
//! [`analyze_cached`] memoizes it on disk: the serialized analysis
//! (`serialize.rs` format) is loaded when its embedded FNV-1a grammar
//! fingerprint matches the grammar being analyzed (the fingerprint covers
//! the `options { … }` block, so editing only analysis options is a
//! grammar change) *and* the recorded [`AnalysisOptions`] would produce
//! the same results as the caller's; it is rebuilt — then atomically
//! rewritten — otherwise. This is the same role ANTLR's
//! serialized decision DFAs embedded in generated parsers play, lifted
//! into the tool itself so repeated `check`/`generate`/`parse` runs skip
//! DFA construction entirely.
//!
//! Loading is fail-safe: a stale, truncated, or corrupted cache file is
//! *never* trusted — deserialization rejects it with a line-numbered
//! [`SerializeError`] and the analysis is recomputed fresh, so a bad
//! cache can cost time but can never change parse results.

use crate::analysis::{analyze_with, AnalysisOptions, GrammarAnalysis};
use crate::metrics::CacheMetrics;
use crate::serialize::{
    deserialize_analysis, grammar_fingerprint, serialize_analysis, serialized_fingerprint,
    SerializeError,
};
use llstar_grammar::Grammar;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// How [`analyze_cached`] obtained its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheStatus {
    /// The serialized analysis was valid for this grammar and was loaded;
    /// no DFA construction ran.
    Hit,
    /// The analysis was recomputed (and the cache file rewritten).
    Miss(CacheMiss),
}

/// Why a cache lookup missed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMiss {
    /// No cache file existed yet.
    Absent,
    /// The file's fingerprint belongs to a different grammar text: the
    /// grammar — including its `options { … }` block — was edited since
    /// the cache was written.
    StaleGrammar,
    /// The file was built under different result-affecting
    /// [`AnalysisOptions`] than the caller is asking for now.
    StaleOptions,
    /// The file was unreadable as a serialized analysis (truncated or
    /// corrupted); the parse-level diagnosis names the offending line.
    Invalid(SerializeError),
}

impl CacheStatus {
    /// True for [`CacheStatus::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheStatus::Hit)
    }

    /// Tallies this outcome into `metrics`.
    pub fn record(&self, metrics: &mut CacheMetrics) {
        match self {
            CacheStatus::Hit => metrics.hits += 1,
            CacheStatus::Miss(CacheMiss::Absent) => metrics.absent += 1,
            CacheStatus::Miss(CacheMiss::StaleGrammar) => metrics.stale_grammar += 1,
            CacheStatus::Miss(CacheMiss::StaleOptions) => metrics.stale_options += 1,
            CacheStatus::Miss(CacheMiss::Invalid(_)) => metrics.invalid += 1,
        }
    }
}

impl fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheStatus::Hit => write!(f, "hit"),
            CacheStatus::Miss(CacheMiss::Absent) => write!(f, "miss (no cache file)"),
            CacheStatus::Miss(CacheMiss::StaleGrammar) => write!(f, "miss (grammar changed)"),
            CacheStatus::Miss(CacheMiss::StaleOptions) => {
                write!(f, "miss (analysis options changed)")
            }
            CacheStatus::Miss(CacheMiss::Invalid(e)) => write!(f, "miss (invalid cache: {e})"),
        }
    }
}

/// The cache file for `grammar` under `dir`: `<dir>/<name>.dfa`. The
/// name is fingerprint-*free* on purpose — editing a grammar overwrites
/// its slot instead of accreting one dead file per edit; the fingerprint
/// inside the file is what guards correctness.
pub fn cache_path(dir: &Path, grammar: &Grammar) -> PathBuf {
    dir.join(format!("{}.dfa", grammar.name))
}

/// [`analyze_cached_with`] with options derived from the grammar.
///
/// # Errors
/// Propagates I/O errors other than "file not found" (which is just a
/// cache miss).
pub fn analyze_cached(
    grammar: &Grammar,
    path: &Path,
) -> io::Result<(GrammarAnalysis, CacheStatus)> {
    analyze_cached_with(grammar, path, &AnalysisOptions::from_grammar(grammar))
}

/// Loads the analysis serialized at `path` when it matches `grammar`'s
/// fingerprint and was built under options result-equivalent to
/// `options` ([`AnalysisOptions::same_results`]); otherwise analyzes with
/// `options` (parallel per `options.threads`) and atomically replaces
/// `path` with the fresh serialization (temp file + rename, so concurrent
/// readers never see a partial write and a crash never leaves a torn
/// cache).
///
/// # Errors
/// Propagates I/O errors from reading an existing cache file (other than
/// `NotFound`) or from writing the refreshed one.
pub fn analyze_cached_with(
    grammar: &Grammar,
    path: &Path,
    options: &AnalysisOptions,
) -> io::Result<(GrammarAnalysis, CacheStatus)> {
    let miss = match std::fs::read_to_string(path) {
        Ok(text) => match deserialize_analysis(grammar, &text) {
            // A loadable file only counts as a hit when it was built under
            // options that produce the same results the caller would get
            // from a fresh analysis — otherwise serving it would silently
            // change DFAs/warnings (e.g. a cache written with unbounded k
            // answering a max_k=1 request).
            Ok(analysis) if analysis.options.same_results(options) => {
                return Ok((analysis, CacheStatus::Hit))
            }
            Ok(_) => CacheMiss::StaleOptions,
            Err(e) => {
                // A well-formed header with a different fingerprint is a
                // grammar edit; anything else is a damaged file.
                match serialized_fingerprint(&text) {
                    Some(fp) if fp != grammar_fingerprint(grammar) => CacheMiss::StaleGrammar,
                    _ => CacheMiss::Invalid(e),
                }
            }
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => CacheMiss::Absent,
        Err(e) => return Err(e),
    };

    let analysis = analyze_with(grammar, options);
    write_atomically(path, &serialize_analysis(grammar, &analysis))?;
    Ok((analysis, CacheStatus::Miss(miss)))
}

/// [`analyze_cached_with`], additionally tallying the lookup's outcome
/// into `metrics` (the `llstar --cache -v` accounting path).
///
/// # Errors
/// As [`analyze_cached_with`].
pub fn analyze_cached_metered(
    grammar: &Grammar,
    path: &Path,
    options: &AnalysisOptions,
    metrics: &mut CacheMetrics,
) -> io::Result<(GrammarAnalysis, CacheStatus)> {
    let (analysis, status) = analyze_cached_with(grammar, path, options)?;
    status.record(metrics);
    Ok((analysis, status))
}

/// Writes `contents` to `path` via a same-directory temp file + rename.
fn write_atomically(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    // pid alone is not unique enough: two threads of one process
    // refreshing the same grammar's cache would share a temp path and
    // could publish a torn file. A process-wide counter disambiguates.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llstar_grammar::parse_grammar;

    /// A per-test directory under the system temp dir, removed when the
    /// test ends (unit tests get no `CARGO_TARGET_TMPDIR`).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("llstar_cache_{tag}_{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn demo_grammar() -> Grammar {
        parse_grammar("grammar D; s : A X | A Y ; A:'a'; X:'x'; Y:'y';").unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let g = demo_grammar();
        let dir = TempDir::new("miss_then_hit");
        let path = dir.0.join(format!("{}.dfa", g.name));
        let _ = std::fs::remove_file(&path);

        let (a, status) = analyze_cached(&g, &path).unwrap();
        assert_eq!(status, CacheStatus::Miss(CacheMiss::Absent));
        assert!(!a.from_cache);
        assert!(path.exists(), "miss must write the cache");

        // (The strict dfa_builds-metric-delta proof that a hit skips subset
        // construction lives in tests/analysis_cache.rs, where the whole
        // binary serializes on one lock; here other core tests analyze
        // concurrently, so only the flag is race-free to assert.)
        let (b, status) = analyze_cached(&g, &path).unwrap();
        assert!(status.is_hit(), "{status}");
        assert!(b.from_cache);
        assert_eq!(
            serialize_analysis(&g, &a),
            serialize_analysis(&g, &b),
            "loaded analysis must serialize identically"
        );
    }

    #[test]
    fn grammar_edit_is_a_stale_miss() {
        let g1 = demo_grammar();
        let dir = TempDir::new("stale");
        let path = cache_path(&dir.0, &g1);
        let _ = std::fs::remove_file(&path);
        analyze_cached(&g1, &path).unwrap();

        // Same grammar *name*, different body ⇒ same cache slot, stale.
        let g2 = parse_grammar("grammar D; s : A X | B Y ; A:'a'; B:'b'; X:'x'; Y:'y';").unwrap();
        assert_eq!(cache_path(&dir.0, &g2), path);
        let (_, status) = analyze_cached(&g2, &path).unwrap();
        assert_eq!(status, CacheStatus::Miss(CacheMiss::StaleGrammar));

        // The refresh re-keys the slot for the edited grammar.
        let (_, status) = analyze_cached(&g2, &path).unwrap();
        assert!(status.is_hit(), "{status}");
    }

    #[test]
    fn options_block_edit_is_a_stale_miss() {
        // Regression: the fingerprint must cover the options block.
        // Adding `k = 1` changes max_k — and with it the DFAs and the
        // ambiguity/dead-alternative warnings — so serving the unbounded-k
        // cache would silently change analysis results.
        let g1 = demo_grammar();
        let dir = TempDir::new("options_edit");
        let path = cache_path(&dir.0, &g1);
        let _ = std::fs::remove_file(&path);
        analyze_cached(&g1, &path).unwrap();

        let g2 =
            parse_grammar("grammar D; options { k = 1; } s : A X | A Y ; A:'a'; X:'x'; Y:'y';")
                .unwrap();
        assert_eq!(cache_path(&dir.0, &g2), path, "same slot");
        let (a, status) = analyze_cached(&g2, &path).unwrap();
        assert_eq!(status, CacheStatus::Miss(CacheMiss::StaleGrammar));
        assert!(!a.from_cache);
        assert_eq!(a.options.max_k, Some(1));

        // The refreshed cache serves the k=1 analysis…
        let (b, status) = analyze_cached(&g2, &path).unwrap();
        assert!(status.is_hit(), "{status}");
        assert_eq!(b.options.max_k, Some(1));
        // …and reverting the edit is stale again, not a poisoned hit.
        let (_, status) = analyze_cached(&g1, &path).unwrap();
        assert_eq!(status, CacheStatus::Miss(CacheMiss::StaleGrammar));
    }

    #[test]
    fn caller_options_mismatch_is_a_stale_miss() {
        // Same grammar text, but the caller asks for different
        // result-affecting options than the cache was built under.
        let g = demo_grammar();
        let dir = TempDir::new("caller_options");
        let path = dir.0.join(format!("{}.dfa", g.name));
        let _ = std::fs::remove_file(&path);
        analyze_cached(&g, &path).unwrap();

        let unminimized = AnalysisOptions { minimize: false, ..AnalysisOptions::from_grammar(&g) };
        let (a, status) = analyze_cached_with(&g, &path, &unminimized).unwrap();
        assert_eq!(status, CacheStatus::Miss(CacheMiss::StaleOptions));
        assert!(!a.options.minimize);
        let (_, status) = analyze_cached_with(&g, &path, &unminimized).unwrap();
        assert!(status.is_hit(), "{status}");

        // threads is result-neutral and must NOT invalidate the cache.
        let threaded = AnalysisOptions { threads: 7, ..unminimized };
        let (_, status) = analyze_cached_with(&g, &path, &threaded).unwrap();
        assert!(status.is_hit(), "{status}");
    }

    #[test]
    fn corrupt_cache_is_rejected_and_repaired() {
        let g = demo_grammar();
        let dir = TempDir::new("corrupt");
        let path = dir.0.join(format!("{}.dfa", g.name));
        std::fs::write(&path, "llstar-analysis v2\ngarbage\n").unwrap();

        let (a, status) = analyze_cached(&g, &path).unwrap();
        match status {
            CacheStatus::Miss(CacheMiss::Invalid(e)) => {
                assert!(e.line > 0, "diagnosis names a line: {e}");
            }
            other => panic!("expected invalid-cache miss, got {other:?}"),
        }
        assert!(!a.from_cache);
        // The rewrite leaves a valid cache behind.
        let (_, status) = analyze_cached(&g, &path).unwrap();
        assert!(status.is_hit(), "{status}");
    }

    #[test]
    fn old_format_versions_are_invalid_misses_and_repaired() {
        // A v1-era cache (no metrics line) must never be trusted; the
        // lookup repairs it in place.
        let g = demo_grammar();
        let dir = TempDir::new("v1_upgrade");
        let path = dir.0.join(format!("{}.dfa", g.name));
        std::fs::write(&path, "llstar-analysis v1\nfingerprint 0123456789abcdef\n").unwrap();
        let (_, status) = analyze_cached(&g, &path).unwrap();
        assert!(matches!(status, CacheStatus::Miss(CacheMiss::Invalid(_))), "{status}");
        let (_, status) = analyze_cached(&g, &path).unwrap();
        assert!(status.is_hit(), "{status}");
    }

    #[test]
    fn metered_lookups_tally_outcomes() {
        let g = demo_grammar();
        let dir = TempDir::new("metered");
        let path = dir.0.join(format!("{}.dfa", g.name));
        let _ = std::fs::remove_file(&path);
        let options = AnalysisOptions::from_grammar(&g);
        let mut metrics = CacheMetrics::default();

        analyze_cached_metered(&g, &path, &options, &mut metrics).unwrap();
        analyze_cached_metered(&g, &path, &options, &mut metrics).unwrap();
        let unminimized = AnalysisOptions { minimize: false, ..options.clone() };
        analyze_cached_metered(&g, &path, &unminimized, &mut metrics).unwrap();

        assert_eq!(metrics.absent, 1, "{metrics}");
        assert_eq!(metrics.hits, 1, "{metrics}");
        assert_eq!(metrics.stale_options, 1, "{metrics}");
        assert_eq!(metrics.lookups(), 3, "{metrics}");
    }
}
