//! Memoization is an optimization, so switching it off must change
//! nothing a caller can observe (Section 6.2 records only where a
//! speculative rule stopped or that it failed).
//!
//! For each gauntlet grammar, the corpus at the `LLSTAR_GAUNTLET_TIER`
//! tier plus seeded single-token deletions of it are parsed in strict
//! mode and in recovery mode, once with `set_memoize(true)` and once with
//! `set_memoize(false)`. The tree s-expression, every error's `Display`
//! text and token index, and the recovery tally in the runtime
//! statistics must be equal.
//!
//! The statistics' per-decision counters are left out, like the memo
//! counters: they count predictions made while speculating too, and a
//! memo hit skips a speculative sub-parse together with the predictions
//! inside it, so memoization lowers them by design.

use llstar::core::GrammarAnalysis;
use llstar::grammar::Grammar;
use llstar::lexer::Scanner;
use llstar::runtime::{lex_stream, NopHooks, Parser};
use llstar_rng::Rng64;
use llstar_suite::gauntlet::{by_name, corpus, Tier};

mod common;
use common::{delete_token, fingerprint, load_grammar_source};

const MEMO_PARITY_SEED: u64 = 0x3E30_9A71;
/// Deletion mutants per grammar, spread round-robin over the corpus files.
const DELETIONS: usize = 6;
/// Recovery-mode error cap: high enough that no mutant reaches it.
const MAX_ERRORS: usize = 10_000;

/// Everything observable about one parse.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// The tree's s-expression (fingerprinted above the smoke tier), or
    /// `None` when the parse failed.
    tree: Option<String>,
    /// `(token_index, Display)` of every recorded error, then of the
    /// error that ended the parse, if any.
    errors: Vec<(usize, String)>,
    /// The recovery tally of [`Parser::stats`]: recoveries, then tokens deleted,
    /// inserted and skipped.
    recovery: [u64; 4],
}

/// One gauntlet grammar, ready to parse.
struct Engine<'a> {
    g: &'a Grammar,
    a: &'a GrammarAnalysis,
    scanner: &'a Scanner,
    start: &'a str,
    /// Compare full s-expressions rather than fingerprints.
    full: bool,
}

impl Engine<'_> {
    fn parse(&self, text: &str, recover: bool, memoize: bool) -> Outcome {
        let stream = lex_stream(self.scanner, self.a, text).expect("deletion mutants still lex");
        let mut parser = Parser::new(self.g, self.a, stream, NopHooks);
        parser.set_memoize(memoize);
        if recover {
            parser.enable_recovery(MAX_ERRORS);
        }
        let result = parser.parse_to_eof(self.start);
        let mut errors: Vec<(usize, String)> =
            parser.errors().iter().map(|e| (e.token_index, e.to_string())).collect();
        let tree = match result {
            Ok(tree) => {
                let sexpr = tree.to_sexpr(self.g, text);
                Some(if self.full { sexpr } else { fingerprint(sexpr.as_bytes()) })
            }
            Err(e) => {
                errors.push((e.token_index, e.to_string()));
                None
            }
        };
        let stats = parser.stats();
        let recovery =
            [stats.recoveries, stats.tokens_deleted, stats.tokens_inserted, stats.tokens_skipped];
        Outcome { tree, errors, recovery }
    }
}

fn memo_parity(name: &str) {
    let entry = by_name(name).expect("gauntlet grammar");
    let (g, a) = load_grammar_source(entry.source);
    let scanner = g.lexer.build().expect("lexer builds");
    let tier = Tier::from_env();
    let full = tier == Tier::Smoke;
    let mut inputs = corpus(&entry, tier, MEMO_PARITY_SEED);
    let mut rng = Rng64::seed_from_u64(MEMO_PARITY_SEED ^ name.len() as u64);
    for k in 0..DELETIONS {
        let (label, text) = &inputs[k % tier.files()];
        let (deleted, mutant) = delete_token(&scanner, text, &mut rng);
        inputs.push((format!("{label} without token {deleted}"), mutant));
    }
    let engine = Engine { g: &g, a: &a, scanner: &scanner, start: entry.start_rule, full };
    for (label, text) in &inputs {
        for recover in [false, true] {
            let on = engine.parse(text, recover, true);
            let off = engine.parse(text, recover, false);
            assert_eq!(on, off, "{label} (recovery: {recover}): memo on vs off");
        }
    }
}

#[test]
fn java8_memo_on_and_off_agree() {
    memo_parity("java8");
}

#[test]
fn sql_memo_on_and_off_agree() {
    memo_parity("sql");
}

#[test]
fn json_memo_on_and_off_agree() {
    memo_parity("json");
}
