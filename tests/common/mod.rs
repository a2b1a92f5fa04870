//! Corpus-walking and engine-setup helpers shared by the parity and
//! gauntlet suites. Each integration-test binary compiles its own copy,
//! so helpers a given suite doesn't use are expected dead code.
#![allow(dead_code)]

use llstar::core::{analyze, CompiledTables, GrammarAnalysis};
use llstar::grammar::{apply_peg_mode, parse_grammar, Grammar};
use llstar::runtime::{JsonlSink, NopHooks, ParseTree, Parser, TokenStream, TraceSink};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

/// The four checked-in repo grammars with shipped corpora under
/// `grammars/corpus/<stem>/`.
pub const SUITE_STEMS: &[&str] = &["calculator", "config", "json", "paper_section2"];

/// A path relative to the repo root.
pub fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The smoke input for a repo grammar.
pub fn smoke_file(stem: &str) -> PathBuf {
    repo_path(&format!("grammars/smoke/{stem}.txt"))
}

/// Every `*.txt` under `grammars/corpus/<stem>/`, sorted by file name
/// for determinism.
pub fn corpus_files(stem: &str) -> Vec<PathBuf> {
    let dir = repo_path(&format!("grammars/corpus/{stem}"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {dir:?}: {e}"))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty corpus for {stem}");
    files
}

/// The full input set for a repo grammar: the corpus directory plus the
/// smoke input, sorted.
pub fn input_files(stem: &str) -> Vec<PathBuf> {
    let mut files = corpus_files(stem);
    files.push(smoke_file(stem));
    files.sort();
    assert!(files.len() > 1, "thin corpus for {stem}");
    files
}

/// Loads and analyzes a repo grammar from `grammars/<stem>.g`.
pub fn load_grammar(stem: &str) -> (Grammar, GrammarAnalysis) {
    let source = std::fs::read_to_string(repo_path(&format!("grammars/{stem}.g")))
        .expect("grammar file readable");
    load_grammar_source(&source)
}

/// Parses, PEG-lowers, and analyzes grammar source text.
pub fn load_grammar_source(source: &str) -> (Grammar, GrammarAnalysis) {
    let grammar = apply_peg_mode(parse_grammar(source).expect("grammar parses"));
    let analysis = analyze(&grammar);
    (grammar, analysis)
}

/// A scratch directory under Cargo's per-target test temp dir, keyed by
/// `prefix` and the running test's name, so no two tests in one test
/// binary share a path. (The test harness names each test's thread after
/// the test.) The first call for a directory in this process wipes what
/// an earlier run left there, so every run reuses one directory per
/// (prefix, test) instead of piling up new ones; later calls from the
/// same test return it as is.
pub fn test_dir(prefix: &str) -> PathBuf {
    static WIPED: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    let test = std::thread::current().name().unwrap_or("main").replace("::", "-");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{prefix}_{test}"));
    let mut wiped = WIPED.lock().unwrap_or_else(|e| e.into_inner());
    if !wiped.contains(&dir) {
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => panic!("wiping {dir:?}: {e}"),
        }
        wiped.push(dir.clone());
    }
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Compiles a generated parser module plus a `fn main` driver into a
/// standalone executable under a per-test temp dir, returning the
/// executable path.
pub fn compile_generated(tag: &str, code: &str, driver: &str) -> PathBuf {
    let dir = test_dir(&format!("llstar_gen_{tag}"));
    let src_path = dir.join("parser_main.rs");
    std::fs::write(&src_path, format!("{code}\n{driver}\n")).expect("write generated source");

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

/// `a` with its compiled tables disabled: the parser then predicts by
/// the linear `DfaState::target` walk, the reference the parity suites
/// hold the table dispatch to.
pub fn linear(a: &GrammarAnalysis) -> GrammarAnalysis {
    GrammarAnalysis { tables: CompiledTables::disabled(), ..a.clone() }
}

/// Everything one interpreter configuration produces over a corpus:
/// rendered trees, the trace JSONL stream, and the merged coverage JSON.
pub struct InterpArtifacts {
    pub trees: String,
    pub trace: String,
    pub coverage: String,
}

/// Parses every `(label, text)` input with the dispatch `a` selects
/// (see [`linear`]), returning rendered trees (debug format, one per
/// line), the full trace JSONL, and the corpus coverage JSON. Panics
/// with `label` on failure.
pub fn interp_corpus(
    g: &Grammar,
    a: &GrammarAnalysis,
    inputs: &[(String, String)],
) -> InterpArtifacts {
    let mut trace_sink = JsonlSink::new(Vec::<u8>::new());
    let mut trees = String::new();
    let start = g.start_rule().name.clone();
    let coverage = corpus_coverage(g, a, &start, inputs, &mut trace_sink, |tree, _| {
        trees.push_str(&format!("{tree:?}\n"));
    });
    let (bytes, err) = trace_sink.into_inner();
    assert!(err.is_none(), "trace sink I/O error");
    let trace = String::from_utf8(bytes).expect("trace is utf8");
    InterpArtifacts { trees, trace, coverage }
}

/// One interpreter configuration's view of a corpus, sized for MB-scale
/// inputs: per-input tree renderings (full s-expressions when `full`,
/// else FNV fingerprints of them), a fingerprint of the trace JSONL
/// stream, and the merged coverage JSON (always full — it is small).
pub struct OracleRun {
    pub trees: Vec<String>,
    pub trace_fp: String,
    pub coverage: String,
}

/// Parses every `(label, text)` input **once** with the dispatch `a`
/// selects, streaming the trace into a JSONL fingerprint while the
/// parser records coverage. The single pass matters at gauntlet scale:
/// the PEG-mode grammars interpret at tens of kilotokens per second, so
/// each extra pass over a megabyte corpus costs seconds.
pub fn oracle_interp_run(
    g: &Grammar,
    a: &GrammarAnalysis,
    start: &str,
    inputs: &[(String, String)],
    full: bool,
) -> OracleRun {
    let mut jsonl = JsonlSink::new(HashWriter::new());
    let mut trees = Vec::with_capacity(inputs.len());
    let coverage = corpus_coverage(g, a, start, inputs, &mut jsonl, |tree, text| {
        let sexpr = tree.to_sexpr(g, text);
        trees.push(if full { sexpr } else { fingerprint(sexpr.as_bytes()) });
    });
    let (hasher, err) = jsonl.into_inner();
    assert!(err.is_none(), "trace sink I/O error");
    OracleRun { trees, trace_fp: hasher.fingerprint(), coverage }
}

/// Parses every `(label, text)` input from `start` with one parser,
/// traced into `sink` and recording coverage across the whole corpus,
/// handing each tree to `each`; returns the coverage JSON.
fn corpus_coverage(
    g: &Grammar,
    a: &GrammarAnalysis,
    start: &str,
    inputs: &[(String, String)],
    sink: &mut dyn TraceSink,
    mut each: impl FnMut(ParseTree, &str),
) -> String {
    let compiled = a.tables.enabled();
    let scanner = g.lexer.build().expect("lexer builds");
    // One parser, reset onto each input, so one coverage map spans them.
    let empty = scanner.tokenize("").expect("empty input lexes");
    let mut parser = Parser::new(g, a, TokenStream::new(empty), NopHooks);
    parser.set_trace_sink(sink);
    parser.enable_coverage();
    for (label, text) in inputs {
        let tokens = scanner
            .tokenize(text)
            .unwrap_or_else(|e| panic!("{label}: corpus input fails to lex: {e}"));
        parser.reset(TokenStream::new(tokens));
        let tree = parser
            .parse_to_eof(start)
            .unwrap_or_else(|e| panic!("parse failed on {label} (compiled={compiled}): {e}"));
        each(tree, text);
    }
    let mut map = parser.take_coverage().expect("coverage was enabled");
    map.files = inputs.len() as u64;
    map.to_json()
}

/// Reads a file set into `(label, text)` pairs for [`interp_corpus`].
pub fn read_inputs(files: &[PathBuf]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|f| {
            (f.display().to_string(), std::fs::read_to_string(f).expect("corpus file readable"))
        })
        .collect()
}

/// An `io::Write` that keeps only an FNV-1a 64 fingerprint and byte
/// count, so MB-scale trace streams can be compared without buffering.
pub struct HashWriter {
    hash: u64,
    len: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl HashWriter {
    pub fn new() -> Self {
        HashWriter { hash: FNV_OFFSET, len: 0 }
    }

    /// `fnv=<hash>:len=<bytes>` — equal iff the streams were byte-equal
    /// (up to hash collision).
    pub fn fingerprint(&self) -> String {
        format!("fnv={:016x}:len={}", self.hash, self.len)
    }
}

impl Default for HashWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl io::Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self.len += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// FNV-1a 64 over a byte string (the same function [`HashWriter`]
/// streams), rendered like [`HashWriter::fingerprint`].
pub fn fingerprint(bytes: &[u8]) -> String {
    let mut w = HashWriter::new();
    io::Write::write_all(&mut w, bytes).expect("hash writer never fails");
    w.fingerprint()
}

/// A seeded single-token-deletion mutant of `text`: one token (EOF
/// excluded), picked by `rng`, is cut out of the source bytes, so the
/// rest of the input keeps its line and column positions. Returns the
/// deleted token's index with the mutant.
pub fn delete_token(
    scanner: &llstar::lexer::Scanner,
    text: &str,
    rng: &mut llstar_rng::Rng64,
) -> (usize, String) {
    let tokens = scanner.tokenize(text).expect("base input lexes");
    let real = tokens.iter().filter(|t| !t.ttype.is_eof()).count();
    assert!(real > 0, "no token to delete");
    let i = rng.gen_range(0..real);
    let span = tokens[i].span;
    (i, format!("{}{}", &text[..span.start], &text[span.end..]))
}
