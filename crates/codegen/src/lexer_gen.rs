//! Emits the scanner: the compiled lexer as static tables plus a
//! maximal-munch `tokenize` function.
//!
//! When the scanner DFA lowered (see [`llstar_lexer::ScannerTables`]), the
//! generated tokenizer mirrors the interpreter's fast path: a 128-entry
//! byte-class map (binary search for non-ASCII codepoints), a dense
//! `next[state * classes + class]` table, and a per-state
//! accept table. When lowering was refused, the legacy char-class tables
//! are emitted instead — with binary-searched class and transition
//! lookups, never a linear scan.
//!
//! Either way, tokens are stamped with their fused parser token-class
//! (`LEX_PCLASS`, derived from the prediction tables' class map at
//! generation time) so the table-driven predictors read `token.class`
//! instead of re-classifying every lookahead.

use crate::writer::CodeWriter;
use llstar_core::GrammarAnalysis;
use llstar_grammar::Grammar;
use llstar_lexer::{Scanner, ScannerTables};

/// Generates the lexer tables and `tokenize` for `grammar` into `w`.
///
/// # Errors
/// Returns the lexer build error message if the grammar's lexer spec is
/// invalid.
pub fn emit_lexer(
    w: &mut CodeWriter,
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
) -> Result<(), String> {
    let scanner: Scanner = grammar.lexer.build().map_err(|e| e.to_string())?;

    // Per lexer rule: skip flag, emitted token type, fused parser class.
    let skips: Vec<String> = scanner.rules().iter().map(|r| r.skip.to_string()).collect();
    w.line(&format!("static LEX_SKIP: &[bool] = &[{}];", skips.join(", ")));
    let ttypes: Vec<String> = scanner.rules().iter().map(|r| r.ttype.0.to_string()).collect();
    w.line(&format!("static LEX_TTYPE: &[u32] = &[{}];", ttypes.join(", ")));
    let class_map = analysis.tables.classes().map(|c| c.map());
    let pclass_of =
        |ttype: usize| -> u8 { class_map.and_then(|m| m.get(ttype)).copied().unwrap_or(0) };
    let pclasses: Vec<String> =
        scanner.rules().iter().map(|r| pclass_of(r.ttype.index()).to_string()).collect();
    w.line("// Fused parser token-class per rule (prediction reads token.class).");
    w.line(&format!("static LEX_PCLASS: &[u8] = &[{}];", pclasses.join(", ")));
    w.line(&format!("const LEX_EOF_CLASS: u8 = {};", pclass_of(0)));
    w.blank();

    match scanner.tables() {
        Some(tables) => emit_lowered_matcher(w, tables),
        None => emit_scalar_matcher(w, &scanner),
    }
    emit_tokenize(w);
    Ok(())
}

/// The lowered byte-table matcher: `LEX_BCLASS`/`LEX_WIDE` byte classes,
/// dense `next`, and per-state accept.
fn emit_lowered_matcher(w: &mut CodeWriter, tables: &ScannerTables) {
    let nc = tables.num_classes();
    w.line(&format!("const LEX_NC: usize = {nc}; // classes incl. the dead class"));
    let bclass: Vec<String> = tables.ascii_map().iter().map(|c| c.to_string()).collect();
    w.line(&format!("static LEX_BCLASS: &[u8] = &[{}];", bclass.join(", ")));
    let wide: Vec<String> =
        tables.wide_ranges().iter().map(|&(lo, hi, c)| format!("({lo}, {hi}, {c})")).collect();
    w.line(&format!("static LEX_WIDE: &[(u32, u32, u8)] = &[{}];", wide.join(", ")));
    let fmt16 = |xs: &[u16]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
    w.line(&format!("static LEX_NEXT: &[u16] = &[{}];", fmt16(tables.next_table())));
    w.blank();
    w.open("fn lex_next(state: usize, class: usize) -> u16 {");
    w.line("LEX_NEXT[state * LEX_NC + class]");
    w.close("}");
    let accepts = fmt16(tables.accept_table());
    w.line(&format!("static LEX_ACCEPT: &[u16] = &[{accepts}];"));
    w.blank();

    w.line("/// Non-ASCII codepoint → scanner class (dead class when unmapped).");
    w.open("fn lex_wide_class(cp: u32) -> usize {");
    w.open("match LEX_WIDE.binary_search_by(|&(lo, hi, _)| {");
    w.line("if hi < cp { std::cmp::Ordering::Less }");
    w.line("else if lo > cp { std::cmp::Ordering::Greater }");
    w.line("else { std::cmp::Ordering::Equal }");
    w.close("}) {");
    w.line("Ok(i) => LEX_WIDE[i].2 as usize,");
    w.line("Err(_) => LEX_NC - 1,");
    w.close("}");
    w.close("}");
    w.blank();

    w.line("/// Longest match starting at byte `start` (a char boundary):");
    w.line("/// `(length, rule)` of the longest accepted non-empty prefix.");
    w.open("fn lex_longest(input: &str, start: usize) -> Option<(usize, usize)> {");
    w.line("let bytes = input.as_bytes();");
    w.line("let mut state = 0usize;");
    w.line("let mut best: Option<(usize, usize)> = None;");
    w.line("let mut i = start;");
    w.open("while i < bytes.len() {");
    w.line("let b = bytes[i];");
    w.open("let (class, step) = if b < 0x80 {");
    w.line("(LEX_BCLASS[b as usize] as usize, 1)");
    w.close("}");
    w.open("else {");
    w.line("let c = input[i..].chars().next().expect(\"start of a char\");");
    w.line("(lex_wide_class(c as u32), c.len_utf8())");
    w.close("};");
    w.line("let t = lex_next(state, class);");
    w.line("if t == u16::MAX { break; }");
    w.line("state = t as usize;");
    w.line("i += step;");
    w.line("if LEX_ACCEPT[state] != u16::MAX { best = Some((i - start, LEX_ACCEPT[state] as usize)); }");
    w.close("}");
    w.line("best");
    w.close("}");
    w.blank();
}

/// The fallback char-class matcher for automata the table encodings
/// refused; class and transition lookups are binary searches.
fn emit_scalar_matcher(w: &mut CodeWriter, scanner: &Scanner) {
    let dfa = scanner.dfa();
    // Flattened (lo, hi, class) codepoint ranges, sorted by lo (classes
    // are disjoint, so the ranges are too).
    let mut flat: Vec<(u32, u32, u32)> = Vec::new();
    for (cid, class) in dfa.classes.iter().enumerate() {
        for &(lo, hi) in class.ranges() {
            flat.push((lo, hi, cid as u32));
        }
    }
    flat.sort_unstable();
    let ranges: Vec<String> =
        flat.iter().map(|&(lo, hi, c)| format!("({lo}, {hi}, {c})")).collect();
    w.line(&format!("static LEX_CLASS_RANGES: &[(u32, u32, u32)] = &[{}];", ranges.join(", ")));

    // Transitions per DFA state (sorted by class id by construction).
    let mut edges = String::from("static LEX_EDGES: &[&[(u16, u16)]] = &[");
    for st in &dfa.states {
        edges.push_str("&[");
        for &(class, target) in &st.transitions {
            edges.push_str(&format!("({class}, {target}), "));
        }
        edges.push_str("], ");
    }
    edges.push_str("];");
    w.line(&edges);

    // Accepting lexer rule per state (-1 = none).
    let accepts: Vec<String> =
        dfa.states.iter().map(|s| s.accept.map_or("-1".to_string(), |r| r.to_string())).collect();
    w.line(&format!("static LEX_ACCEPT: &[i32] = &[{}];", accepts.join(", ")));
    w.blank();

    w.open("fn lex_class_of(c: char) -> Option<usize> {");
    w.line("let x = c as u32;");
    w.open("LEX_CLASS_RANGES.binary_search_by(|&(lo, hi, _)| {");
    w.line("if hi < x { std::cmp::Ordering::Less }");
    w.line("else if lo > x { std::cmp::Ordering::Greater }");
    w.line("else { std::cmp::Ordering::Equal }");
    w.close("}).ok().map(|i| LEX_CLASS_RANGES[i].2 as usize)");
    w.close("}");
    w.blank();

    w.open("fn lex_longest(input: &str, start: usize) -> Option<(usize, usize)> {");
    w.line("let mut state = 0usize;");
    w.line("let mut best: Option<(usize, usize)> = None;");
    w.line("let mut consumed = 0usize;");
    w.open("for c in input[start..].chars() {");
    w.line("let Some(class) = lex_class_of(c) else { break };");
    w.line("let edges = LEX_EDGES[state];");
    w.line(
        "let Ok(e) = edges.binary_search_by_key(&class, |&(cl, _)| cl as usize) else { break };",
    );
    w.line("state = edges[e].1 as usize;");
    w.line("consumed += c.len_utf8();");
    w.open("if LEX_ACCEPT[state] >= 0 {");
    w.line("best = Some((consumed, LEX_ACCEPT[state] as usize));");
    w.close("}");
    w.close("}");
    w.line("best");
    w.close("}");
    w.blank();
}

/// The maximal-munch driver over `lex_longest`, shared by both matchers:
/// skip handling, fused-class stamping, bytewise line/col accounting.
fn emit_tokenize(w: &mut CodeWriter) {
    w.line("/// Tokenizes `input` with the generated maximal-munch scanner.");
    w.open("pub fn tokenize(input: &str) -> Result<Vec<Token>, Error> {");
    w.line("let mut tokens = Vec::new();");
    w.line("let mut offset = 0usize;");
    w.line("let (mut line, mut col) = (1u32, 1u32);");
    w.open("while offset < input.len() {");
    w.open("match lex_longest(input, offset) {");
    w.open("Some((len, rule)) => {");
    w.open("if !LEX_SKIP[rule] {");
    w.line("tokens.push(Token { ttype: LEX_TTYPE[rule], start: offset, end: offset + len, line, col, class: LEX_PCLASS[rule] });");
    w.close("}");
    w.line("let text = &input.as_bytes()[offset..offset + len];");
    w.open("if text.is_ascii() {");
    w.open("match text.iter().rposition(|&b| b == b'\\n') {");
    w.line("None => col += len as u32,");
    w.open("Some(last_nl) => {");
    w.line("line += text.iter().filter(|&&b| b == b'\\n').count() as u32;");
    w.line("col = (len - last_nl) as u32;");
    w.close("}");
    w.close("}");
    w.close("}");
    w.open("else {");
    w.open("for c in input[offset..offset + len].chars() {");
    w.line("if c == '\\n' { line += 1; col = 1; } else { col += 1; }");
    w.close("}");
    w.close("}");
    w.line("offset += len;");
    w.close("}");
    w.open("None => {");
    w.line("let ch = input[offset..].chars().next().expect(\"offset < len\");");
    w.line("return Err(Error { line, col, message: format!(\"no lexer rule matches {ch:?}\") });");
    w.close("}");
    w.close("}");
    w.close("}");
    w.line("tokens.push(Token { ttype: 0, start: offset, end: offset, line, col, class: LEX_EOF_CLASS });");
    w.line("Ok(tokens)");
    w.close("}");
    w.blank();
}

#[cfg(test)]
mod tests {
    use super::*;
    use llstar_core::analyze;
    use llstar_grammar::parse_grammar;

    #[test]
    fn emits_lowered_tables_and_function() {
        let g = parse_grammar("grammar L; s : ID ; ID : [a-z]+ ; WS : [ ]+ -> skip ;").unwrap();
        let a = analyze(&g);
        let mut w = CodeWriter::new();
        emit_lexer(&mut w, &g, &a).unwrap();
        let src = w.finish();
        assert!(src.contains("static LEX_BCLASS"), "{src}");
        assert!(src.contains("static LEX_NEXT"), "{src}");
        assert!(src.contains("pub fn tokenize"), "{src}");
        assert!(src.contains("LEX_SKIP: &[bool] = &[false, true]"), "{src}");
        assert!(src.contains("static LEX_PCLASS"), "{src}");
    }
}
