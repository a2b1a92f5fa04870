//! The one row writer and the benches' one `main`.
//!
//! Every producer renders its rows as JSONL, one object per line with
//! `"type"` first, and hands them to [`write_rows`]. A stream written to
//! a path of its own is fresh: the schema header, then the rows. Rows
//! written to the tracked `BENCH_analysis.json` replace that file's rows
//! of the same types and leave every other type, and their order,
//! alone; a file of another schema version is refused untouched.

use llstar_core::schema::{check_header, parse_schema_header, StreamKind};
use llstar_core::Json;
use std::io;
use std::path::{Path, PathBuf};

/// Renders one JSONL line per row.
pub fn jsonl(rows: impl IntoIterator<Item = Json>) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.to_string());
        out.push('\n');
    }
    out
}

/// The schema header line for `BENCH_analysis.json` (with trailing
/// newline), so the mixed bench stream is versioned like every other
/// machine-readable output.
pub fn bench_stream_header() -> String {
    let mut line = StreamKind::BenchAnalysis.header_line();
    line.push('\n');
    line
}

/// Absolute path of the canonical `BENCH_analysis.json` at the
/// workspace root. `cargo bench` runs each harness with the *package*
/// directory as CWD, so a relative path would silently land in
/// `crates/bench/` instead of the committed stream.
pub fn bench_analysis_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_analysis.json")
}

/// Loads a bench-analysis stream back: validates the leading schema
/// header through the shared [`llstar_core::schema`] checker (headerless
/// pre-versioning files are accepted) and parses each data row.
///
/// # Errors
/// Returns the 1-based line number and a description for the first
/// unparsable line or a mismatched header.
pub fn load_bench_rows(text: &str) -> Result<Vec<Json>, (usize, String)> {
    let mut rows = Vec::new();
    let mut first = true;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| (i + 1, e))?;
        if std::mem::take(&mut first) && parse_schema_header(&value).is_some() {
            check_header(&value, StreamKind::BenchAnalysis).map_err(|e| (i + 1, e))?;
            continue;
        }
        rows.push(value);
    }
    Ok(rows)
}

/// Writes pre-rendered JSONL `rows`, all of the record `types`. With
/// `json`, they become a fresh stream at that path and `default` is not
/// touched. Without it, they replace `default`'s rows of those types
/// where the first of them stood (or go last); the header and every
/// other row stay, in order.
///
/// # Errors
/// I/O errors, and `InvalidData` when `default` holds a line that does
/// not parse or a header of another schema version: such a file is left
/// as it is.
pub fn write_rows(
    json: Option<&Path>,
    default: &Path,
    types: &[&str],
    rows: &str,
) -> io::Result<()> {
    if let Some(path) = json {
        return std::fs::write(path, bench_stream_header() + rows);
    }
    let text = match std::fs::read_to_string(default) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let old = load_bench_rows(&text).map_err(|(line, e)| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{}:{line}: {e}", default.display()))
    })?;
    let mut out = bench_stream_header();
    let mut pending = Some(rows);
    for row in old {
        if types.contains(&row.get("type").and_then(Json::as_str).unwrap_or_default()) {
            out.push_str(pending.take().unwrap_or_default());
        } else {
            out.push_str(&row.to_string());
            out.push('\n');
        }
    }
    out.push_str(pending.unwrap_or_default());
    std::fs::write(default, out)
}

/// What one bench run produced.
pub struct BenchRun {
    /// The human-readable table, printed to stdout.
    pub table: String,
    /// The rows as JSONL, every one of the bench's record type.
    pub rows: String,
    /// The gate's verdict: a one-line summary when it passes, one line
    /// per failure otherwise. `None` for a bench without a gate.
    pub gate: Option<Result<String, Vec<String>>>,
}

/// The `main` of every row bench. Flags:
/// - `--quick`: the CI smoke configuration (passed to `run`);
/// - `--gate`: exit non-zero when the bench's gate fails;
/// - `--json PATH`: write the rows to `PATH` only, as a fresh
///   schema-versioned stream. Without it the rows replace the
///   `record_type` rows of `BENCH_analysis.json` (see [`write_rows`]).
///
/// Other arguments (such as the `--bench` that `cargo bench` passes)
/// are ignored. The table goes to stdout; a failure to write the rows
/// exits non-zero.
pub fn bench_main(record_type: &str, run: impl FnOnce(bool) -> BenchRun) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let json = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| PathBuf::from(args.get(i + 1).expect("--json needs a path")));
    let out = run(flag("--quick"));
    println!("{}", out.table);

    let target = json.clone().unwrap_or_else(bench_analysis_path);
    if let Err(e) = write_rows(json.as_deref(), &bench_analysis_path(), &[record_type], &out.rows) {
        eprintln!("error: could not write {record_type} rows to {}: {e}", target.display());
        std::process::exit(1);
    }
    eprintln!("wrote {} {record_type} rows to {}", out.rows.lines().count(), target.display());

    if flag("--gate") {
        match out.gate {
            None => eprintln!("{record_type}: this bench has no gate"),
            Some(Ok(summary)) => eprintln!("gate passed: {summary}"),
            Some(Err(failures)) => {
                for failure in &failures {
                    eprintln!("GATE FAIL: {failure}");
                }
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-test directory under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir()
                .join(format!("llstar-bench-rows-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn types(text: &str) -> Vec<String> {
        load_bench_rows(text)
            .expect("stream loads")
            .iter()
            .map(|r| r.get("type").and_then(Json::as_str).expect("typed row").to_string())
            .collect()
    }

    const ROWS: &str = "{\"type\":\"gauntlet\",\"n\":1}\n\
        {\"type\":\"lex\",\"n\":1}\n\
        {\"type\":\"lex\",\"n\":2}\n\
        {\"type\":\"serve\",\"n\":1}\n";

    #[test]
    fn bench_stream_is_versioned() {
        let header = bench_stream_header();
        let v = Json::parse(header.trim_end()).expect("valid header");
        check_header(&v, StreamKind::BenchAnalysis).expect("header matches this build");
    }

    #[test]
    fn json_path_gets_a_fresh_stream_and_the_default_file_is_untouched() {
        let dir = TempDir::new("json");
        let default = dir.0.join("BENCH_analysis.json");
        let path = dir.0.join("lex.json");
        let stream = bench_stream_header() + ROWS;
        std::fs::write(&default, &stream).unwrap();
        std::fs::write(&path, "stale\n").unwrap();
        write_rows(Some(&path), &default, &["lex"], "{\"type\":\"lex\",\"n\":3}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&default).unwrap(), stream);
        let fresh = std::fs::read_to_string(&path).unwrap();
        assert!(fresh.starts_with(&bench_stream_header()), "{fresh}");
        assert_eq!(types(&fresh), ["lex"]);
    }

    #[test]
    fn replacing_a_type_keeps_the_header_and_every_other_row_in_order() {
        let dir = TempDir::new("replace");
        let default = dir.0.join("BENCH_analysis.json");
        std::fs::write(&default, bench_stream_header() + ROWS).unwrap();
        write_rows(None, &default, &["lex"], "{\"type\":\"lex\",\"n\":3}\n").unwrap();
        let text = std::fs::read_to_string(&default).unwrap();
        assert_eq!(
            text,
            bench_stream_header()
                + &ROWS.replace(
                    "{\"type\":\"lex\",\"n\":1}\n{\"type\":\"lex\",\"n\":2}\n",
                    "{\"type\":\"lex\",\"n\":3}\n"
                )
        );

        // A type the file lacks goes last; a missing file starts with the header.
        write_rows(None, &default, &["prediction"], "{\"type\":\"prediction\",\"n\":1}\n").unwrap();
        let text = std::fs::read_to_string(&default).unwrap();
        assert_eq!(types(&text), ["gauntlet", "lex", "serve", "prediction"]);
        let missing = dir.0.join("new.json");
        write_rows(None, &missing, &["serve"], "{\"type\":\"serve\",\"n\":2}\n").unwrap();
        let text = std::fs::read_to_string(&missing).unwrap();
        assert!(text.starts_with(&bench_stream_header()), "{text}");
        assert_eq!(types(&text), ["serve"]);
    }

    #[test]
    fn a_stream_of_another_schema_version_is_refused_untouched() {
        let dir = TempDir::new("version");
        let default = dir.0.join("BENCH_analysis.json");
        let bumped = llstar_core::schema::schema_line(
            "bench-analysis",
            llstar_core::schema::BENCH_STREAM_VERSION + 1,
        ) + "\n{\"type\":\"lex\",\"n\":1}\n";
        std::fs::write(&default, &bumped).unwrap();
        let err = write_rows(None, &default, &["lex"], "{\"type\":\"lex\",\"n\":2}\n")
            .expect_err("version mismatch refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("schema version"), "{err}");
        assert_eq!(std::fs::read_to_string(&default).unwrap(), bumped);

        // Headerless (pre-versioning) streams still load.
        assert_eq!(types(ROWS), ["gauntlet", "lex", "lex", "serve"]);
    }
}
