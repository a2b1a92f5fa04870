//! Rust code generation for LL(*) parsers — the analog of ANTLR emitting
//! recursive-descent parsers with lookahead-DFA decision code.
//!
//! [`generate`] turns an analyzed grammar into a **self-contained** Rust
//! source file (no external crates): a table-driven maximal-munch lexer,
//! one function per rule, one state-machine predictor per decision, and
//! one speculative matcher per syntactic predicate with packrat
//! memoization. Embedders implement the generated `Hooks` trait for
//! semantic predicates and actions.
//!
//! ```
//! use llstar_grammar::{apply_peg_mode, parse_grammar};
//! use llstar_core::analyze;
//! use llstar_codegen::generate;
//!
//! let g = apply_peg_mode(parse_grammar(r#"
//!     grammar Calc;
//!     expr : term ('+' term)* ;
//!     term : INT ;
//!     INT : [0-9]+ ;
//!     WS : [ ]+ -> skip ;
//! "#)?);
//! let analysis = analyze(&g);
//! let source = generate(&g, &analysis)?;
//! assert!(source.contains("pub fn parse_expr"));
//! assert!(source.contains("pub fn tokenize"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod lexer_gen;
mod parser_gen;
mod writer;

pub use writer::CodeWriter;

use llstar_core::GrammarAnalysis;
use llstar_grammar::Grammar;

/// Options controlling code generation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodegenOptions {
    /// Emit runtime trace calls: the generated `Hooks` trait gains a
    /// default-noop `trace(kind, id, pos)` callback, and predictors /
    /// syntactic predicates report `predict-start`, `predict-stop`,
    /// `syntax-error`, `memo-hit`, `backtrack-enter`, and
    /// `backtrack-exit` events through it. Off by default: the untraced
    /// output is byte-identical to [`generate`]'s.
    pub trace: bool,
    /// Emit coverage counters: the generated parser gains a public `cov:
    /// Coverage` field that accumulates per-rule-alternative hit counts,
    /// per-decision DFA state/edge traversal counts, lookahead-depth
    /// histograms, and backtrack/memo attribution, plus a
    /// `Coverage::to_json` rendering byte-identical to the interpreter's
    /// `CoverageMap::to_json` (parity holds for grammars with
    /// memoization enabled — the default). Off by default: the
    /// uninstrumented output is byte-identical to [`generate`]'s.
    pub coverage: bool,
    /// Emit the always-on metric counters: the generated parser gains a
    /// public `met: Metrics` field (per-decision prediction counts,
    /// lookahead aggregates and histograms, backtrack totals, memo
    /// traffic, tokens/parse) plus a `Metrics::to_json(engine)`
    /// rendering byte-identical to the runtime's
    /// `MetricsSnapshot::to_json(engine, false)` — the deterministic
    /// form the metrics parity suite compares across engines. Memo
    /// counters are only emitted for memoizing grammars (the default),
    /// matching the interpreter's gate. Off by default: the
    /// uninstrumented output is byte-identical to [`generate`]'s.
    pub metrics: bool,
}

/// Generates a standalone Rust module implementing an LL(*) parser for
/// `grammar`.
///
/// `analysis` must come from [`llstar_core::analyze`] on the same
/// (post-PEG-mode) grammar. The output compiles on its own with
/// `rustc --crate-type lib` and exposes:
///
/// * `tokenize(&str) -> Result<Vec<Token>, Error>`
/// * `Parser::new(tokens, &mut hooks)` plus `parse_<rule>()` per rule
/// * `parse(&str) -> Result<Tree, Error>` — start rule to EOF, no hooks
/// * `Tree`, `Token`, `Error`, `Hooks`, `NopHooks`, `RULE_NAMES`,
///   `TOKEN_NAMES`
///
/// # Errors
/// Returns a message if the grammar's lexer specification cannot be
/// compiled.
pub fn generate(grammar: &Grammar, analysis: &GrammarAnalysis) -> Result<String, String> {
    generate_with(grammar, analysis, CodegenOptions::default())
}

/// As [`generate`], with explicit [`CodegenOptions`].
///
/// # Errors
/// As [`generate`].
pub fn generate_with(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    options: CodegenOptions,
) -> Result<String, String> {
    let mut w = CodeWriter::new();
    emit_prelude(&mut w, grammar, options);
    lexer_gen::emit_lexer(&mut w, grammar, analysis)?;
    parser_gen::emit_parser(&mut w, grammar, analysis, options);
    emit_entry_points(&mut w, grammar);
    Ok(w.finish())
}

fn emit_prelude(w: &mut CodeWriter, grammar: &Grammar, options: CodegenOptions) {
    w.line(&format!(
        "//! Parser for grammar `{}`, generated by llstar-codegen. Do not edit.",
        grammar.name
    ));
    w.line("#![allow(dead_code, unused_mut, unused_variables, unreachable_patterns, clippy::all)]");
    w.blank();
    w.line("/// The source grammar's name.");
    w.line(&format!("pub const GRAMMAR_NAME: &str = {:?};", grammar.name));
    let rule_names: Vec<String> = grammar.rules.iter().map(|r| format!("{:?}", r.name)).collect();
    w.line("/// Rule names, indexed by `Tree::Rule::rule`.");
    w.line(&format!("pub const RULE_NAMES: &[&str] = &[{}];", rule_names.join(", ")));
    let token_names: Vec<String> = (0..grammar.vocab.len())
        .map(|i| format!("{:?}", grammar.vocab.display_name(llstar_lexer::TokenType(i as u32))))
        .collect();
    w.line("/// Token display names, indexed by token type (0 = EOF).");
    w.line(&format!("pub const TOKEN_NAMES: &[&str] = &[{}];", token_names.join(", ")));
    w.blank();
    // Named token constants.
    w.open("/// Token type constants for named lexer rules.");
    w.close("");
    w.open("pub mod token_types {");
    for (t, name) in grammar.vocab.named_tokens() {
        w.line(&format!("/// Token `{name}`."));
        w.line(&format!("pub const {}: u32 = {};", name.to_uppercase(), t.0));
    }
    w.close("}");
    w.blank();
    w.line("/// A lexed token (byte span into the original input).");
    w.line("#[derive(Debug, Clone, Copy, PartialEq, Eq)]");
    w.open("pub struct Token {");
    w.line("/// Token type (see `TOKEN_NAMES`); 0 is EOF.");
    w.line("pub ttype: u32,");
    w.line("/// Start byte offset.");
    w.line("pub start: usize,");
    w.line("/// End byte offset (exclusive).");
    w.line("pub end: usize,");
    w.line("/// 1-based line.");
    w.line("pub line: u32,");
    w.line("/// 1-based column.");
    w.line("pub col: u32,");
    w.line("/// Fused parser token-class of `ttype` (see `LEX_PCLASS`):");
    w.line("/// stamped at tokenize time so table predictors never probe a");
    w.line("/// class map per lookahead.");
    w.line("pub class: u8,");
    w.close("}");
    w.blank();
    w.line("/// A parse tree.");
    w.line("#[derive(Debug, Clone, PartialEq, Eq)]");
    w.open("pub enum Tree {");
    w.line("/// A rule application (see `RULE_NAMES`).");
    w.line("Rule { rule: u32, alt: u16, children: Vec<Tree> },");
    w.line("/// A matched token.");
    w.line("Leaf(Token),");
    w.line("/// An error node recorded by recovery: tokens consumed while");
    w.line("/// repairing, or a synthesized token type for an insertion.");
    w.line("Error { tokens: Vec<Token>, inserted: Option<u32> },");
    w.close("}");
    w.blank();
    w.open("impl Tree {");
    w.line("/// Number of *matched* token leaves (error-node tokens were");
    w.line("/// consumed but never matched, so they don't count).");
    w.open("pub fn token_count(&self) -> usize {");
    w.open("match self {");
    w.line("Tree::Leaf(_) => 1,");
    w.line("Tree::Error { .. } => 0,");
    w.line("Tree::Rule { children, .. } => children.iter().map(Tree::token_count).sum(),");
    w.close("}");
    w.close("}");
    w.blank();
    w.line("/// Number of error nodes recorded by recovery.");
    w.open("pub fn error_node_count(&self) -> usize {");
    w.open("match self {");
    w.line("Tree::Leaf(_) => 0,");
    w.line("Tree::Error { .. } => 1,");
    w.open("Tree::Rule { children, .. } => {");
    w.line("children.iter().map(Tree::error_node_count).sum()");
    w.close("}");
    w.close("}");
    w.close("}");
    w.blank();
    w.line("/// Renders the tree as an s-expression over the source text.");
    w.open("pub fn to_sexpr(&self, source: &str) -> String {");
    w.open("match self {");
    w.line("Tree::Leaf(t) => format!(\"{:?}\", &source[t.start..t.end]),");
    w.open("Tree::Error { tokens, inserted } => {");
    w.line("let mut out = String::from(\"(error\");");
    w.open("if let Some(t) = inserted {");
    w.line("out.push_str(&format!(\" <missing {}>\", TOKEN_NAMES[*t as usize]));");
    w.close("}");
    w.open("for tok in tokens {");
    w.line("out.push_str(&format!(\" {:?}\", &source[tok.start..tok.end]));");
    w.close("}");
    w.line("out.push(')');");
    w.line("out");
    w.close("}");
    w.open("Tree::Rule { rule, children, .. } => {");
    w.line("let inner: Vec<String> = children.iter().map(|c| c.to_sexpr(source)).collect();");
    w.open("if inner.is_empty() {");
    w.line("format!(\"({})\", RULE_NAMES[*rule as usize])");
    w.close("}");
    w.open("else {");
    w.line("format!(\"({} {})\", RULE_NAMES[*rule as usize], inner.join(\" \"))");
    w.close("}");
    w.close("}");
    w.close("}");
    w.close("}");
    w.close("}");
    w.blank();
    w.line("/// A lexing or parsing error.");
    w.line("#[derive(Debug, Clone, PartialEq, Eq)]");
    w.open("pub struct Error {");
    w.line("/// 1-based line.");
    w.line("pub line: u32,");
    w.line("/// 1-based column.");
    w.line("pub col: u32,");
    w.line("/// Description.");
    w.line("pub message: String,");
    w.close("}");
    w.blank();
    w.open("impl std::fmt::Display for Error {");
    w.open("fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {");
    w.line("write!(f, \"line {}:{}: {}\", self.line, self.col, self.message)");
    w.close("}");
    w.close("}");
    w.blank();
    w.line("impl std::error::Error for Error {}");
    w.blank();
    w.line("/// A recovery diagnostic (the presentation form of a parse error).");
    w.line("#[derive(Debug, Clone, PartialEq, Eq)]");
    w.open("pub struct Diag {");
    w.line("/// Error class: `\"mismatch\"` or `\"no-viable\"`.");
    w.line("pub kind: &'static str,");
    w.line("/// 1-based line of the offending token.");
    w.line("pub line: u32,");
    w.line("/// 1-based column of the offending token.");
    w.line("pub col: u32,");
    w.line("/// Byte offset where the offending token starts.");
    w.line("pub start: usize,");
    w.line("/// Byte offset where the offending token ends (exclusive).");
    w.line("pub end: usize,");
    w.line("/// Display name of the token actually found.");
    w.line("pub found: String,");
    w.line("/// Display names of acceptable tokens.");
    w.line("pub expected: Vec<String>,");
    w.line("/// The human-readable one-liner (no position prefix).");
    w.line("pub message: String,");
    w.close("}");
    w.blank();
    w.open("fn json_quote(s: &str) -> String {");
    w.line("let mut out = String::with_capacity(s.len() + 2);");
    w.line("out.push('\"');");
    w.open("for c in s.chars() {");
    w.open("match c {");
    w.line("'\"' => out.push_str(\"\\\\\\\"\"),");
    w.line("'\\\\' => out.push_str(\"\\\\\\\\\"),");
    w.line("'\\n' => out.push_str(\"\\\\n\"),");
    w.line("'\\r' => out.push_str(\"\\\\r\"),");
    w.line("'\\t' => out.push_str(\"\\\\t\"),");
    w.open("c if (c as u32) < 0x20 => {");
    w.line("out.push_str(&format!(\"\\\\u{:04x}\", c as u32));");
    w.close("}");
    w.line("c => out.push(c),");
    w.close("}");
    w.close("}");
    w.line("out.push('\"');");
    w.line("out");
    w.close("}");
    w.blank();
    w.open("impl Diag {");
    w.line("/// One JSON object with the stable field order `type`, `kind`,");
    w.line("/// `line`, `col`, `start`, `end`, `found`, `expected`, `message`");
    w.line("/// — byte-identical to the interpreter's diagnostic JSONL.");
    w.open("pub fn to_json(&self) -> String {");
    w.line("let expected = self.expected.iter().map(|n| json_quote(n)).collect::<Vec<_>>().join(\",\");");
    w.line("format!(\"{{\\\"type\\\":\\\"diagnostic\\\",\\\"kind\\\":{},\\\"line\\\":{},\\\"col\\\":{},\\\"start\\\":{},\\\"end\\\":{},\\\"found\\\":{},\\\"expected\\\":[{}],\\\"message\\\":{}}}\", json_quote(self.kind), self.line, self.col, self.start, self.end, json_quote(&self.found), expected, json_quote(&self.message))");
    w.close("}");
    w.close("}");
    w.blank();
    w.line("/// Serializes diagnostics as JSONL: a schema header line, then");
    w.line("/// one object per line (byte-identical to the interpreter's).");
    w.open("pub fn diagnostics_jsonl(diags: &[Diag]) -> String {");
    {
        let header = llstar_core::schema::StreamKind::Diagnostics.header_line();
        w.line(&format!("let mut out = String::from(\"{}\\n\");", header.replace('"', "\\\"")));
    }
    w.open("for d in diags {");
    w.line("out.push_str(&d.to_json());");
    w.line("out.push('\\n');");
    w.close("}");
    w.line("out");
    w.close("}");
    w.blank();
    w.line("/// Semantic-predicate and action callbacks.");
    w.open("pub trait Hooks {");
    w.line("/// Evaluates semantic predicate `id` (source text supplied).");
    w.open("fn sempred(&mut self, id: u32, text: &str, token_index: usize) -> bool {");
    w.line("let _ = (id, text, token_index);");
    w.line("true");
    w.close("}");
    w.line("/// Runs embedded action `id`.");
    w.open("fn action(&mut self, id: u32, text: &str, token_index: usize) {");
    w.line("let _ = (id, text, token_index);");
    w.close("}");
    if options.trace {
        w.line("/// Observes a runtime trace event: `kind` is the event name");
        w.line("/// (`rule-enter`, `rule-exit`, `rule-fail`, `predict-start`,");
        w.line("/// `predict-stop`, `syntax-error`, `memo-hit`,");
        w.line("/// `backtrack-enter`, `backtrack-exit`, plus — in recovery");
        w.line("/// mode — `recover`, `sync-skip`, `token-inserted`,");
        w.line("/// `token-deleted`), `id` the decision, syntactic-predicate,");
        w.line("/// rule, or token number, `pos` the token index.");
        w.open("fn trace(&mut self, kind: &str, id: u32, pos: usize) {");
        w.line("let _ = (kind, id, pos);");
        w.close("}");
    }
    w.close("}");
    w.blank();
    w.line("/// Hooks that pass every predicate and ignore actions.");
    w.line("#[derive(Debug, Default, Clone, Copy)]");
    w.line("pub struct NopHooks;");
    w.line("impl Hooks for NopHooks {}");
    w.blank();
}

fn emit_entry_points(w: &mut CodeWriter, grammar: &Grammar) {
    let start = &grammar.start_rule().name;
    w.blank();
    w.line(&format!("/// Lexes and parses `input` as rule `{start}` followed by EOF."));
    w.open("pub fn parse(input: &str) -> Result<Tree, Error> {");
    w.line("let mut hooks = NopHooks;");
    w.line("parse_with_hooks(input, &mut hooks)");
    w.close("}");
    w.blank();
    w.line("/// As [`parse`], with embedder hooks.");
    w.open(
        "pub fn parse_with_hooks<H: Hooks>(input: &str, hooks: &mut H) -> Result<Tree, Error> {",
    );
    w.line("let tokens = tokenize(input)?;");
    w.line("let mut parser = Parser::new(tokens, hooks);");
    w.line(&format!("let tree = parser.parse_{start}()?;"));
    w.open("if parser.la(1) != 0 {");
    w.line("return Err(parser.err_at(0, \"expected EOF\".to_string()));");
    w.close("}");
    w.line("Ok(tree)");
    w.close("}");
    let start_rid = grammar.start_rule().id.index();
    w.blank();
    w.line("/// As [`parse`], but recovers from syntax errors: repairs the");
    w.line("/// input (single-token deletion/insertion, sync-and-return),");
    w.line("/// records error nodes in the tree, and collects up to");
    w.line("/// `max_errors` diagnostics. Fails only on lexer errors or when");
    w.line("/// the error cap is exceeded.");
    w.open("pub fn parse_recovering(input: &str, max_errors: usize) -> Result<(Tree, Vec<Diag>), Error> {");
    w.line("let mut hooks = NopHooks;");
    w.line("parse_recovering_with_hooks(input, max_errors, &mut hooks)");
    w.close("}");
    w.blank();
    w.line("/// As [`parse_recovering`], with embedder hooks.");
    w.open("pub fn parse_recovering_with_hooks<H: Hooks>(input: &str, max_errors: usize, hooks: &mut H) -> Result<(Tree, Vec<Diag>), Error> {");
    w.line("let tokens = tokenize(input)?;");
    w.line("let mut parser = Parser::new(tokens, hooks);");
    w.line("parser.enable_recovery(max_errors);");
    w.line(&format!("let mut tree = parser.parse_{start}()?;"));
    w.open("if parser.la(1) != 0 {");
    w.line("let e = parser.err_at(0, \"expected EOF\".to_string());");
    w.line("let t = parser.tokens[parser.pos.min(parser.tokens.len() - 1)];");
    w.line("let found = TOKEN_NAMES[t.ttype as usize];");
    w.line("let d = Diag { kind: \"mismatch\", line: t.line, col: t.col, start: t.start, end: t.end, found: found.to_string(), expected: vec![\"EOF\".to_string()], message: format!(\"expected EOF, found {found}\") };");
    w.line(&format!("parser.report(d, e, {start_rid})?;"));
    w.line("// Trailing junk: consume to EOF into an error node.");
    w.line("let mut skipped = Vec::new();");
    w.open("while parser.la(1) != 0 {");
    w.line("skipped.push(parser.consume());");
    w.close("}");
    w.open("if let Tree::Rule { children, .. } = &mut tree {");
    w.line("children.push(Tree::Error { tokens: skipped, inserted: None });");
    w.close("}");
    w.close("}");
    w.line("Ok((tree, parser.take_errors()))");
    w.close("}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use llstar_core::analyze;
    use llstar_grammar::{apply_peg_mode, parse_grammar};

    fn gen(src: &str) -> String {
        let g = apply_peg_mode(parse_grammar(src).unwrap());
        let a = analyze(&g);
        generate(&g, &a).unwrap()
    }

    #[test]
    fn generates_rule_functions_and_predictors() {
        let src = gen("grammar G; s : A x | B ; x : C* ; A:'a'; B:'b'; C:'c';");
        assert!(src.contains("pub fn parse_s"), "{src}");
        assert!(src.contains("pub fn parse_x"), "{src}");
        assert!(src.contains("fn predict_0"), "{src}");
        assert!(src.contains("pub fn tokenize"), "{src}");
        assert!(src.contains("pub const RULE_NAMES"), "{src}");
    }

    #[test]
    fn synpreds_generate_speculation_functions() {
        let src =
            gen("grammar P; options { backtrack = true; } s : A B | A C ; A:'a'; B:'b'; C:'c';");
        assert!(src.contains("fn synpred_0"), "{src}");
        assert!(src.contains("self.speculating += 1;"), "{src}");
    }

    #[test]
    fn sempreds_and_actions_call_hooks() {
        let src = gen("grammar H; s : {isX}? A {doit()} ; A:'a';");
        assert!(src.contains("sempred(0, \"isX\""), "{src}");
        assert!(src.contains("action(0, \"doit()\""), "{src}");
    }

    #[test]
    fn named_token_constants() {
        let src = gen("grammar T; s : FOO ; FOO : 'f' ;");
        assert!(src.contains("pub const FOO: u32 = 1;"), "{src}");
    }

    #[test]
    fn trace_option_adds_hook_calls_and_default_output_is_unchanged() {
        let src = "grammar W; options { backtrack = true; } s : A B | A C ; A:'a'; B:'b'; C:'c';";
        let g = apply_peg_mode(parse_grammar(src).unwrap());
        let a = analyze(&g);
        let plain = generate(&g, &a).unwrap();
        let default_opts = generate_with(&g, &a, CodegenOptions::default()).unwrap();
        assert_eq!(plain, default_opts, "default options must not change the output");
        assert!(!plain.contains("fn trace"), "untraced output has no trace hook");

        let traced =
            generate_with(&g, &a, CodegenOptions { trace: true, ..Default::default() }).unwrap();
        assert!(
            traced.contains("fn trace(&mut self, kind: &str, id: u32, pos: usize)"),
            "{traced}"
        );
        for event in [
            "rule-enter",
            "rule-exit",
            "rule-fail",
            "predict-start",
            "predict-stop",
            "syntax-error",
            "memo-hit",
            "backtrack-enter",
            "backtrack-exit",
        ] {
            assert!(traced.contains(&format!("self.hooks.trace(\"{event}\"")), "missing {event}");
        }
    }

    #[test]
    fn coverage_option_adds_counters_and_default_output_is_unchanged() {
        let src = "grammar C; options { backtrack = true; } s : A B | A C ; A:'a'; B:'b'; C:'c';";
        let g = apply_peg_mode(parse_grammar(src).unwrap());
        let a = analyze(&g);
        let plain = generate(&g, &a).unwrap();
        assert!(!plain.contains("pub struct Coverage"), "uninstrumented output has no coverage");

        let covered =
            generate_with(&g, &a, CodegenOptions { coverage: true, ..Default::default() }).unwrap();
        assert!(covered.contains("pub struct Coverage"), "{covered}");
        assert!(covered.contains("pub cov: Coverage,"), "{covered}");
        assert!(covered.contains("pub const GRAMMAR_FINGERPRINT: u64 ="), "{covered}");
        assert!(covered.contains("static COV_EDGES"), "{covered}");
        assert!(covered.contains("fn cov_stop"), "{covered}");
        assert!(covered.contains("self.cov_memo(true)"), "memoize default counts memo traffic");
        assert!(covered.contains("\\\"memo-unattributed\\\""), "{covered}");
        let fp = llstar_core::grammar_fingerprint(&g);
        assert!(covered.contains(&format!("GRAMMAR_FINGERPRINT: u64 = {fp};")), "{covered}");
    }

    #[test]
    fn metrics_option_adds_counters_and_default_output_is_unchanged() {
        let src = "grammar M; options { backtrack = true; } s : A B | A C ; A:'a'; B:'b'; C:'c';";
        let g = apply_peg_mode(parse_grammar(src).unwrap());
        let a = analyze(&g);
        let plain = generate(&g, &a).unwrap();
        assert!(!plain.contains("pub struct Metrics"), "uninstrumented output has no metrics");

        let metered =
            generate_with(&g, &a, CodegenOptions { metrics: true, ..Default::default() }).unwrap();
        assert!(metered.contains("pub struct Metrics"), "{metered}");
        assert!(metered.contains("pub met: Metrics,"), "{metered}");
        assert!(metered.contains("fn met_stop"), "{metered}");
        assert!(metered.contains("static MET_DECISION_RULES"), "{metered}");
        assert!(metered.contains("self.met.memo_hits += 1;"), "memoize default counts memo");
        assert!(metered.contains("\\\"memo-entries\\\""), "{metered}");
        let fp = llstar_core::grammar_fingerprint(&g);
        assert!(metered.contains(&format!("GRAMMAR_FINGERPRINT: u64 = {fp};")), "{metered}");
        // Metrics alone must not drag the coverage machinery in.
        assert!(!metered.contains("pub struct Coverage"), "{metered}");

        // Both instrumentations coexist, fingerprint emitted once.
        let both = generate_with(
            &g,
            &a,
            CodegenOptions { coverage: true, metrics: true, ..Default::default() },
        )
        .unwrap();
        assert!(both.contains("pub struct Coverage"), "{both}");
        assert!(both.contains("pub struct Metrics"), "{both}");
        assert_eq!(both.matches("pub const GRAMMAR_FINGERPRINT").count(), 1, "{both}");
        assert!(both.contains("self.met_stop("), "{both}");
        assert!(both.contains("self.cov_stop("), "{both}");
    }

    #[test]
    fn recovery_machinery_is_always_emitted() {
        let src = gen("grammar R; s : ID '=' INT ';' ; ID : [a-z]+ ; INT : [0-9]+ ;");
        assert!(src.contains("pub fn parse_recovering"), "{src}");
        assert!(src.contains("fn expect_r"), "{src}");
        assert!(src.contains("fn recover_nv"), "{src}");
        assert!(src.contains("static EXPECTED_SETS"), "{src}");
        assert!(src.contains("pub struct Diag"), "{src}");
        assert!(src.contains("Error { tokens: Vec<Token>, inserted: Option<u32> }"), "{src}");
        // The strict entry point still refuses trailing input.
        assert!(src.contains("return Err(parser.err_at(0, \"expected EOF\""), "{src}");
    }

    #[test]
    fn expected_sets_are_deduplicated() {
        // Two token sites with the same successor-expected set must share
        // one EXPECTED_SETS entry.
        let src = gen("grammar D; s : (A B)+ ; A:'a'; B:'b';");
        let table = src
            .lines()
            .find(|l| l.contains("static EXPECTED_SETS"))
            .expect("expected-sets table emitted");
        let entries = table.matches("&[").count() - 1; // outer slice
        let mut uniq: Vec<&str> = table
            .split("&[")
            .skip(2) // prefix + outer
            .collect();
        let total = uniq.len();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(entries, total, "sanity: parsed the table");
        assert_eq!(uniq.len(), total, "interned sets are unique: {table}");
    }

    #[test]
    fn fragment_bodies_stay_strict() {
        // Synpred fragments must keep the plain `expect` form — recovery
        // never engages while speculating.
        let src =
            gen("grammar F; options { backtrack = true; } s : A B | A C ; A:'a'; B:'b'; C:'c';");
        let frag = src.split("fn synpred_0_body").nth(1).expect("fragment body emitted");
        let frag_body = frag.split("fn ").next().unwrap();
        assert!(frag_body.contains("self.expect("), "{frag_body}");
        assert!(!frag_body.contains("expect_r"), "{frag_body}");
    }

    #[test]
    fn ebnf_loops_generate_loop_code() {
        let src = gen("grammar E; s : A+ B? C* ; A:'a'; B:'b'; C:'c';");
        let loops = src.matches("loop {").count();
        assert!(loops >= 2, "plus and star produce loops: {src}");
        assert!(src.contains("// skip"), "{src}");
    }
}
