//! Golden pin of the LL(*) analysis and the scanner build: an FNV-1a
//! hash and byte length of `serialize_analysis` for every shipped grammar
//! (the repo's `grammars/*.g`, the three gauntlet grammars and the six
//! suite grammars) at default options, the Section 2 cyclic grammar at
//! fixed k = 1..=4, and a hash of each grammar's lowered scanner tables.
//!
//! The serialized analysis carries every decision's DFA, warnings and
//! construction counters (closures, configs, states, edges, resolves,
//! overflows, fallback), so any change to the subset construction's
//! output or to the order it does its work in shows up here. A
//! legitimate change to the analysis must update these figures by hand,
//! together with an explanation of why the output moved.

use llstar::core::{analyze, analyze_with, serialize_analysis, AnalysisOptions};
use llstar::grammar::{apply_peg_mode, parse_grammar, Grammar};
use std::path::Path;

/// `(grammar, FNV-1a of serialize_analysis, its byte length)`.
const ANALYSIS: &[(&str, u64, usize)] = &[
    ("calculator.g", 0xdb7c0718e4b09e77, 1506),
    ("config.g", 0x380f0944f783e2c1, 1317),
    ("json.g", 0xa8c41f3c9be6cef1, 1641),
    ("paper_section2.g", 0xbf21853f7a157eee, 1058),
    ("gauntlet/java8.g", 0xe61c95ada5bad001, 69818),
    ("gauntlet/json.g", 0xb14b00d5cb9ada2a, 1641),
    ("gauntlet/sql.g", 0x18e32b7f9c8c47b4, 30426),
    ("suite/Java", 0x69c3ac06d8c4cc27, 31624),
    ("suite/RatsC", 0xa48c2bc0ddaf9870, 36074),
    ("suite/RatsJava", 0x8a15915832c133dd, 34362),
    ("suite/VB", 0x5369d247fcd4a8fe, 19239),
    ("suite/SQL", 0x95a9c6076e98c45c, 20083),
    ("suite/CSharp", 0x47647d55e12070e6, 25461),
    ("cyclic/k=1", 0xe7cb4b873774d433, 879),
    ("cyclic/k=2", 0x5e8e4d662e381024, 953),
    ("cyclic/k=3", 0x6ad94e4fbeecd74b, 1003),
    ("cyclic/k=4", 0xedb6cf221e78e388, 1055),
];

/// `(grammar, FNV-1a of the lowered scanner tables)`.
const SCANNERS: &[(&str, u64)] = &[
    ("calculator.g", 0x9ef4ee6fc73f7d2d),
    ("config.g", 0xe815af3e60e8dcf0),
    ("json.g", 0x095f0c5bb03c9dbb),
    ("paper_section2.g", 0x558d06cca1de138f),
    ("gauntlet/java8.g", 0xb18f20373a379078),
    ("gauntlet/json.g", 0x095f0c5bb03c9dbb),
    ("gauntlet/sql.g", 0x6caa27f5ee738c24),
    ("suite/Java", 0x26d6dcb40da28d20),
    ("suite/RatsC", 0x06726ab22f5ace24),
    ("suite/RatsJava", 0xa87db851daa78fc8),
    ("suite/VB", 0xd6a0fab1e4336560),
    ("suite/SQL", 0x5d45c42638155e60),
    ("suite/CSharp", 0xb4b9f3babe7e4a75),
];

/// Section 2's `a : b A+ X | c A+ Y`: LL(*) but LL(k) for no k. Fixed-k
/// mode puts the lookahead depth into the DFA-state intern key.
const CYCLIC: &str = "grammar C; a : b A+ X | c A+ Y ; b : ; c : ; A:'a'; X:'x'; Y:'y';";

/// A 64-bit FNV-1a hash, printed in hex as the tables above spell it.
#[derive(PartialEq)]
struct Fnv(u64);

impl std::fmt::Debug for Fnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:016x}", self.0)
    }
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> Fnv {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Fnv(h)
}

fn load_file(path: &Path) -> Grammar {
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    apply_peg_mode(parse_grammar(&source).unwrap_or_else(|e| panic!("{path:?}: {e}")))
}

fn grammar_files(dir: &str) -> Vec<(String, Grammar)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir:?}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "g"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), load_file(p)))
        .collect()
}

/// Every shipped grammar, named as the tables above name it.
fn shipped() -> Vec<(String, Grammar)> {
    let mut out = grammar_files("grammars");
    out.extend(
        grammar_files("grammars/gauntlet").into_iter().map(|(n, g)| (format!("gauntlet/{n}"), g)),
    );
    out.extend(llstar::suite::all().into_iter().map(|e| (format!("suite/{}", e.name), e.load())));
    out
}

fn scanner_hash(grammar: &Grammar) -> Fnv {
    let scanner = grammar.lexer.build().expect("shipped lexers build");
    let t = scanner.tables().expect("shipped scanners lower to tables");
    let mut bytes: Vec<u8> = Vec::new();
    bytes.extend((t.num_states() as u64).to_le_bytes());
    bytes.extend(t.next_table().iter().flat_map(|x| x.to_le_bytes()));
    bytes.extend(t.accept_table().iter().flat_map(|x| x.to_le_bytes()));
    bytes.extend(t.ascii_map().iter().copied());
    for &(lo, hi, class) in t.wide_ranges() {
        bytes.extend(lo.to_le_bytes());
        bytes.extend(hi.to_le_bytes());
        bytes.push(class);
    }
    fnv1a(bytes)
}

/// Compares `actual` with the pinned table, listing every mismatch and
/// every unpinned or vanished entry with the figures the code produces now.
fn check<T: PartialEq + std::fmt::Debug>(
    what: &str,
    expected: &[(&str, T)],
    actual: &[(String, T)],
) {
    let mut problems = Vec::new();
    for (name, got) in actual {
        match expected.iter().find(|(n, _)| n == name) {
            Some((_, want)) if want == got => {}
            Some((_, want)) => problems.push(format!("{name}: pinned {want:?}, now {got:?}")),
            None => problems.push(format!("{name}: not pinned, now {got:?}")),
        }
    }
    for (name, _) in expected {
        if !actual.iter().any(|(n, _)| n == name) {
            problems.push(format!("{name}: pinned but no longer produced"));
        }
    }
    assert!(
        problems.is_empty(),
        "{what} differs from the golden figures:\n{}",
        problems.join("\n")
    );
}

#[test]
fn analysis_output_matches_golden() {
    let mut actual: Vec<(String, (Fnv, usize))> = Vec::new();
    for (name, grammar) in shipped() {
        let text = serialize_analysis(&grammar, &analyze(&grammar));
        actual.push((name, (fnv1a(text.bytes()), text.len())));
    }
    let cyclic = parse_grammar(CYCLIC).expect("cyclic grammar");
    for k in 1..=4 {
        let options = AnalysisOptions { max_k: Some(k), ..Default::default() };
        let text = serialize_analysis(&cyclic, &analyze_with(&cyclic, &options));
        actual.push((format!("cyclic/k={k}"), (fnv1a(text.bytes()), text.len())));
    }
    let expected: Vec<(&str, (Fnv, usize))> =
        ANALYSIS.iter().map(|&(n, h, len)| (n, (Fnv(h), len))).collect();
    check("serialize_analysis", &expected, &actual);
}

#[test]
fn scanner_tables_match_golden() {
    let actual: Vec<(String, Fnv)> =
        shipped().into_iter().map(|(name, g)| (name, scanner_hash(&g))).collect();
    let expected: Vec<(&str, Fnv)> = SCANNERS.iter().map(|&(n, h)| (n, Fnv(h))).collect();
    check("scanner tables", &expected, &actual);
}
