//! Gauntlet mutation fuzzer with delta-debug reduction.
//!
//! Two mutation axes over the gauntlet grammars:
//!
//! - **Input mutation** — tokenize a small generated corpus file, apply
//!   token-level mutations (delete, duplicate, swap, replace with a
//!   token drawn from the input's own vocabulary), re-render, and run
//!   the mutant through the interpreter (linear and compiled dispatch)
//!   and the generated parser. The engines must agree on the verdict,
//!   the tree, and (between dispatch modes) the full trace stream —
//!   mutants are mostly *invalid* inputs, so this drills the error
//!   paths the in-language oracle corpus never reaches.
//! - **Grammar mutation** — textual edits of the grammar itself
//!   (alternative reorder, `?` removal, alternative duplication). Any
//!   mutant that still parses and analyzes is a fresh grammar the
//!   compiled-dispatch lowering has never seen; linear and compiled
//!   dispatch must stay byte-identical on it. (Generated parsers are
//!   not rebuilt per grammar mutant — a rustc run per mutant would
//!   dominate the suite; interpreter self-agreement is the property the
//!   mutation is aimed at.)
//!
//! On a disagreement the failing token sequence is ddmin-reduced to a
//! minimal sequence, written to `tests/golden/gauntlet/` (so CI uploads
//! it as an artifact), and the test fails naming the file. Previously
//! reduced cases are replayed by `golden_corpus_replays`.
//!
//! Separately, `strict_errors_match_golden` pins what the strict engine
//! reports for seeded single-token deletions: the first error's text and
//! token index, which the verdict comparison above never looks at.

use llstar::codegen::generate;
use llstar::core::GrammarAnalysis;
use llstar::grammar::Grammar;
use llstar::packrat::PackratParser;
use llstar::runtime::{lex_stream, JsonlSink, NopHooks, Parser, TokenStream};
use llstar_rng::Rng64;
use llstar_suite::gauntlet::{all, by_name, corpus, GauntletEntry, Tier};
use std::path::{Path, PathBuf};
use std::process::Command;

mod common;
use common::{
    compile_generated, delete_token, fingerprint, linear, load_grammar_source, repo_path,
    HashWriter,
};

const FUZZ_SEED: u64 = 0xF0225EED;
/// Input mutants per gauntlet grammar.
const INPUT_MUTANTS: usize = 48;
/// Base-input size for mutation (small: mutants drill error paths, not
/// throughput).
const BASE_BYTES: usize = 900;

// ---------------------------------------------------------------------
// Engine verdicts
// ---------------------------------------------------------------------

/// What one interpreter configuration said about an input: the verdict
/// line (`OK <tree fingerprint>` or `ERR <error display>`) plus a
/// fingerprint of the trace stream it emitted along the way.
fn interp_verdict(g: &Grammar, a: &GrammarAnalysis, start: &str, text: &str) -> (String, String) {
    let scanner = g.lexer.build().expect("lexer builds");
    let tokens = match scanner.tokenize(text) {
        Ok(t) => t,
        Err(e) => return (format!("LEX {e}"), String::new()),
    };
    let mut jsonl = JsonlSink::new(HashWriter::new());
    let mut parser = Parser::new(g, a, TokenStream::new(tokens), NopHooks);
    parser.set_trace_sink(&mut jsonl);
    let verdict = match parser.parse_to_eof(start) {
        Ok(tree) => format!("OK {}", fingerprint(tree.to_sexpr(g, text).as_bytes())),
        Err(e) => format!("ERR {e}"),
    };
    drop(parser);
    let (hasher, err) = jsonl.into_inner();
    assert!(err.is_none(), "trace sink I/O error");
    (verdict, hasher.fingerprint())
}

/// Runs the generated parser on `text`; `OK <tree fingerprint>` or
/// `REJECT`.
fn generated_verdict(exe: &Path, scratch: &Path, text: &str) -> String {
    std::fs::write(scratch, text).expect("write mutant");
    let out = Command::new(exe).arg(scratch).output().expect("generated parser runs");
    if out.status.success() {
        let stdout = String::from_utf8_lossy(&out.stdout);
        format!("OK {}", stdout.lines().next().unwrap_or("").trim())
    } else {
        "REJECT".to_string()
    }
}

/// All cross-engine agreement checks for one input, as `Err(reason)` on
/// the first disagreement. Used both on fresh mutants and as the ddmin
/// failure predicate.
fn disagreement(
    g: &Grammar,
    a: &GrammarAnalysis,
    start: &str,
    exe: &Path,
    scratch: &Path,
    text: &str,
) -> Result<(), String> {
    let (lin, lin_trace) = interp_verdict(g, &linear(a), start, text);
    let (com, com_trace) = interp_verdict(g, a, start, text);
    if lin != com {
        return Err(format!("dispatch verdicts differ: linear={lin} compiled={com}"));
    }
    if lin_trace != com_trace {
        return Err(format!("dispatch traces differ: linear={lin_trace} compiled={com_trace}"));
    }
    let gen = generated_verdict(exe, scratch, text);
    match (lin.starts_with("OK "), gen.starts_with("OK ")) {
        (true, true) => {
            if lin != gen {
                return Err(format!("generated tree differs: interp={lin} generated={gen}"));
            }
        }
        (true, false) => return Err(format!("interpreter accepts ({lin}) but generated rejects")),
        (false, true) => return Err(format!("interpreter rejects ({lin}) but generated accepts")),
        // Both reject: message formats differ by design; verdict parity
        // is the property.
        (false, false) => {}
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Token-level mutation + ddmin
// ---------------------------------------------------------------------

/// Slices an input into its token texts (EOF excluded). Space-joining
/// these re-lexes to the same token sequence for all three gauntlet
/// lexers (strings and comments are single tokens; no two-char operator
/// can form across a space).
fn token_texts(g: &Grammar, text: &str) -> Vec<String> {
    let scanner = g.lexer.build().expect("lexer builds");
    scanner
        .tokenize(text)
        .expect("base input lexes")
        .iter()
        .filter(|t| !t.ttype.is_eof())
        .map(|t| text[t.span.start..t.span.end].to_string())
        .collect()
}

fn render(tokens: &[String]) -> String {
    tokens.join(" ")
}

/// Applies 1–3 random token-level mutations.
fn mutate(tokens: &[String], rng: &mut Rng64) -> Vec<String> {
    let mut out = tokens.to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        if out.len() < 2 {
            break;
        }
        let i = rng.gen_range(0..out.len());
        match rng.gen_range(0..4u32) {
            0 => {
                out.remove(i);
            }
            1 => {
                let t = out[i].clone();
                out.insert(i, t);
            }
            2 => {
                let j = rng.gen_range(0..out.len());
                out.swap(i, j);
            }
            _ => {
                let j = rng.gen_range(0..tokens.len());
                out[i] = tokens[j].clone();
            }
        }
    }
    out
}

/// Classic ddmin over the token sequence: finds a (1-minimal up to
/// chunk granularity) subsequence on which `fails` still holds.
fn ddmin(tokens: Vec<String>, fails: &mut dyn FnMut(&[String]) -> bool) -> Vec<String> {
    let mut cur = tokens;
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut i = 0usize;
        while i * chunk < cur.len() {
            let mut cand: Vec<String> = Vec::with_capacity(cur.len().saturating_sub(chunk));
            cand.extend_from_slice(&cur[..i * chunk]);
            cand.extend_from_slice(&cur[((i + 1) * chunk).min(cur.len())..]);
            if !cand.is_empty() && fails(&cand) {
                cur = cand;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            i += 1;
        }
        if !reduced {
            if chunk <= 1 {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    cur
}

/// Reduces a failing mutant and records it under `tests/golden/gauntlet/`
/// before panicking, so the case is preserved (and uploaded by CI) even
/// though the test run dies.
fn reduce_and_record(
    g: &Grammar,
    a: &GrammarAnalysis,
    entry: &GauntletEntry,
    exe: &Path,
    scratch: &Path,
    mutant: Vec<String>,
    reason: &str,
) -> ! {
    let start = entry.start_rule;
    let mut fails =
        |cand: &[String]| disagreement(g, a, start, exe, scratch, &render(cand)).is_err();
    let minimal = ddmin(mutant, &mut fails);
    let text = render(&minimal);
    let slug = fingerprint(text.as_bytes());
    let slug = &slug[4..12]; // first 8 hash hex digits
    let path = repo_path(&format!("tests/golden/gauntlet/{}--diff--{slug}.txt", entry.name));
    std::fs::write(&path, format!("{text}\n")).expect("write reduced case");
    panic!(
        "{}: engines disagreed ({reason}); ddmin-reduced to {} token(s), recorded at {}:\n{text}",
        entry.name,
        minimal.len(),
        path.display()
    );
}

// ---------------------------------------------------------------------
// Input-mutation fuzzing
// ---------------------------------------------------------------------

fn fuzz_inputs(name: &str) {
    let entry = by_name(name).expect("gauntlet grammar");
    let (g, a) = load_grammar_source(entry.source);
    let code = generate(&g, &a).expect("generation succeeds");
    let driver = r#"
fn fnv(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv={hash:016x}:len={}", bytes.len())
}

fn main() {
    let path = std::env::args().nth(1).expect("input file");
    let input = std::fs::read_to_string(&path).expect("readable");
    match parse(&input) {
        Ok(tree) => println!("{}", fnv(tree.to_sexpr(&input).as_bytes())),
        Err(e) => {
            println!("ERROR {e}");
            std::process::exit(1);
        }
    }
}
"#;
    let exe = compile_generated(&format!("fuzz_{name}"), &code, driver);
    let scratch = exe.with_file_name("mutant.txt");

    let mut rng = Rng64::seed_from_u64(FUZZ_SEED ^ fingerprint(name.as_bytes()).len() as u64);
    for base_seed in [1u64, 2] {
        let base = (entry.generate)(BASE_BYTES, FUZZ_SEED.wrapping_add(base_seed));
        let tokens = token_texts(&g, &base);
        // The un-mutated rendering must round-trip through every engine
        // (it is in-language), anchoring the mutation space.
        if let Err(reason) =
            disagreement(&g, &a, entry.start_rule, &exe, &scratch, &render(&tokens))
        {
            reduce_and_record(&g, &a, &entry, &exe, &scratch, tokens, &reason);
        }
        for _ in 0..INPUT_MUTANTS / 2 {
            let mutant = mutate(&tokens, &mut rng);
            if let Err(reason) =
                disagreement(&g, &a, entry.start_rule, &exe, &scratch, &render(&mutant))
            {
                reduce_and_record(&g, &a, &entry, &exe, &scratch, mutant, &reason);
            }
        }
    }
}

#[test]
fn java8_input_mutants_agree() {
    fuzz_inputs("java8");
}

#[test]
fn sql_input_mutants_agree() {
    fuzz_inputs("sql");
}

#[test]
fn json_input_mutants_agree() {
    fuzz_inputs("json");
}

// ---------------------------------------------------------------------
// Grammar-mutation fuzzing
// ---------------------------------------------------------------------

/// Textual grammar mutants: alternative reorder / `?` removal /
/// alternative duplication, applied per candidate line. Mutants that no
/// longer parse or analyze are skipped — any that survive are novel
/// grammars for the dispatch-table lowering.
fn grammar_mutants(source: &str) -> Vec<String> {
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let is_rule = line.contains(" : ") && line.trim_end().ends_with(';');
        if !is_rule {
            continue;
        }
        if let Some((head, body)) = line.split_once(" : ") {
            let body = body.trim_end().trim_end_matches(';');
            let alts: Vec<&str> = body.split(" | ").collect();
            if alts.len() >= 2 {
                // Swap the first two alternatives.
                let mut swapped = alts.clone();
                swapped.swap(0, 1);
                let mut m = lines.clone();
                let newline = format!("{head} : {} ;", swapped.join(" | "));
                m[i] = &newline;
                out.push(m.join("\n"));
                // Duplicate the first alternative at the end.
                let mut dup = alts.clone();
                dup.push(alts[0]);
                let mut m = lines.clone();
                let newline = format!("{head} : {} ;", dup.join(" | "));
                m[i] = &newline;
                out.push(m.join("\n"));
            }
        }
        if line.contains("? ") {
            let mut m = lines.clone();
            let newline = line.replacen("? ", " ", 1);
            m[i] = &newline;
            out.push(m.join("\n"));
        }
    }
    out
}

#[test]
fn grammar_mutants_keep_dispatch_modes_identical() {
    for entry in all() {
        let mutants = grammar_mutants(entry.source);
        assert!(!mutants.is_empty(), "{}: no grammar mutants generated", entry.name);
        let mut tested = 0usize;
        for source in &mutants {
            // Skip mutants the grammar pipeline rejects.
            let Ok(parsed) = llstar::grammar::parse_grammar(source) else { continue };
            let g = llstar::grammar::apply_peg_mode(parsed);
            let a = llstar::core::analyze(&g);
            let start = entry.start_rule;
            if g.rule_by_name(start).is_none() {
                continue;
            }
            // Small corpus sample: in-language for the *original*
            // grammar; the mutant may reject it — both dispatch modes
            // must reject identically.
            for seed in [3u64, 4] {
                let text = (entry.generate)(400, FUZZ_SEED.wrapping_add(seed));
                let (lin, lin_trace) = interp_verdict(&g, &linear(&a), start, &text);
                let (com, com_trace) = interp_verdict(&g, &a, start, &text);
                assert_eq!(lin, com, "{}: dispatch verdicts differ on mutant grammar", entry.name);
                assert_eq!(
                    lin_trace, com_trace,
                    "{}: dispatch traces differ on mutant grammar",
                    entry.name
                );
            }
            tested += 1;
        }
        assert!(tested >= 3, "{}: only {tested} grammar mutants survived the pipeline", entry.name);
    }
}

// ---------------------------------------------------------------------
// Golden replay
// ---------------------------------------------------------------------

#[test]
fn golden_corpus_replays() {
    let dir = repo_path("tests/golden/gauntlet");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("golden gauntlet dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        // `errors-*` files are reported-error goldens, not inputs.
        .filter(|p| {
            !p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("errors-"))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "golden gauntlet corpus is empty");
    for file in files {
        let stem = file.file_stem().and_then(|s| s.to_str()).expect("utf8 name");
        let mut parts = stem.split("--");
        let grammar = parts.next().expect("grammar prefix");
        let kind = parts.next().unwrap_or_else(|| panic!("{stem}: missing --accept--/--diff--"));
        let entry = by_name(grammar)
            .unwrap_or_else(|| panic!("{stem}: unknown gauntlet grammar {grammar:?}"));
        let (g, a) = load_grammar_source(entry.source);
        let text = std::fs::read_to_string(&file).expect("golden readable");
        let text = text.trim_end();

        // Dispatch modes agree on every golden.
        let (lin, lin_trace) = interp_verdict(&g, &linear(&a), entry.start_rule, text);
        let (com, com_trace) = interp_verdict(&g, &a, entry.start_rule, text);
        assert_eq!(lin, com, "{stem}: dispatch verdicts differ");
        assert_eq!(lin_trace, com_trace, "{stem}: dispatch traces differ");

        if kind == "accept" {
            // In-language regression inputs: interpreter and the packrat
            // baseline must both accept.
            assert!(lin.starts_with("OK "), "{stem}: interpreter rejected an accept golden: {lin}");
            let scanner = g.lexer.build().expect("lexer builds");
            let tokens = scanner.tokenize(text).expect("golden lexes");
            let mut packrat = PackratParser::new(&g, tokens);
            packrat.set_memoize(true);
            packrat
                .recognize(entry.start_rule)
                .unwrap_or_else(|e| panic!("{stem}: packrat rejected an accept golden: {e}"));
        }
    }
}

// ---------------------------------------------------------------------
// Reported-error golden
// ---------------------------------------------------------------------

/// Single-token-deletion mutants per grammar in the error golden.
const ERROR_MUTANTS: usize = 50;

/// One line per seeded deletion mutant of the tier's corpus: the mutant
/// number, source file, deleted token, and what strict parsing reports —
/// the first error's token index and `Display` text, `OK` when the
/// mutant still parses, or `LEX` with the lexer error.
fn strict_error_lines(name: &str, tier: Tier) -> String {
    let entry = by_name(name).expect("gauntlet grammar");
    let (g, a) = load_grammar_source(entry.source);
    let scanner = g.lexer.build().expect("lexer builds");
    let inputs = corpus(&entry, tier, FUZZ_SEED);
    let mut rng = Rng64::seed_from_u64(FUZZ_SEED ^ 0xE770_5EED ^ name.len() as u64);
    let mut out = String::new();
    for k in 0..ERROR_MUTANTS {
        let (label, text) = &inputs[k % inputs.len()];
        let (deleted, mutant) = delete_token(&scanner, text, &mut rng);
        let verdict = match lex_stream(&scanner, &a, &mutant) {
            Err(e) => format!("LEX {e}"),
            Ok(stream) => {
                match Parser::new(&g, &a, stream, NopHooks).parse_to_eof(entry.start_rule) {
                    Ok(_) => "OK".to_string(),
                    Err(e) => format!("{} {e}", e.token_index),
                }
            }
        };
        out.push_str(&format!("{k:02} {label} del={deleted} {verdict}\n"));
    }
    out
}

/// Replays `tests/golden/gauntlet/errors-<grammar>-<tier>.txt`. Strict
/// mode reports the deepest error over every speculative attempt
/// (Section 4.4), so these lines move if speculation builds, keeps or
/// compares its errors differently.
fn replay_error_golden(name: &str) {
    let tier = Tier::from_env();
    let path = repo_path(&format!("tests/golden/gauntlet/errors-{name}-{}.txt", tier.label()));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let got = strict_error_lines(name, tier);
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "{}: line {} differs", path.display(), i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{}: line count", path.display());
}

#[test]
fn java8_strict_errors_match_golden() {
    replay_error_golden("java8");
}

#[test]
fn sql_strict_errors_match_golden() {
    replay_error_golden("sql");
}
