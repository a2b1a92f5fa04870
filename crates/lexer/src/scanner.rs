//! The scanner: a specification of lexer rules compiled to a DFA, plus the
//! maximal-munch tokenizer that produces [`Token`] streams.

use crate::charclass::CharSet;
use crate::dfa::ScannerDfa;
use crate::nfa::Nfa;
use crate::regex::Rx;
use crate::tables::ScannerTables;
use crate::token::{Span, Token, TokenType};
use std::collections::HashMap;
use std::fmt;

/// Which matching machinery [`Scanner::tokenize_path`] drives.
///
/// Both paths produce byte-identical token streams. [`Scanner::tokenize`]
/// uses `Table`; `Scalar` is kept as the reference the differential tests
/// compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LexPath {
    /// Char-at-a-time [`ScannerDfa`] simulation (always available).
    Scalar,
    /// Byte-class + dense table walk ([`ScannerTables`]).
    Table,
}

impl LexPath {
    /// Display label (also the `path` field of bench rows).
    pub fn label(self) -> &'static str {
        match self {
            LexPath::Scalar => "scalar",
            LexPath::Table => "table",
        }
    }

    /// All paths, scalar first.
    pub const ALL: [LexPath; 2] = [LexPath::Scalar, LexPath::Table];
}

/// One lexer rule in a [`LexerSpec`].
#[derive(Debug, Clone)]
pub struct LexRule {
    /// Rule name (token name, e.g. `ID`), or a synthesized name for
    /// literals (e.g. `'if'`).
    pub name: String,
    /// The pattern.
    pub rx: Rx,
    /// Token type emitted on a match (ignored when `skip`).
    pub ttype: TokenType,
    /// If `true`, matches are discarded (whitespace, comments).
    pub skip: bool,
}

/// Error constructing a scanner from a [`LexerSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexBuildError {
    /// A rule referenced an unknown fragment.
    UnknownFragment {
        /// The referencing rule.
        rule: String,
        /// The missing fragment name.
        fragment: String,
    },
    /// A rule (after fragment resolution) can match the empty string, which
    /// would make the scanner loop forever.
    NullableRule {
        /// The offending rule.
        rule: String,
    },
}

impl fmt::Display for LexBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexBuildError::UnknownFragment { rule, fragment } => {
                write!(f, "lexer rule {rule} references unknown fragment {fragment}")
            }
            LexBuildError::NullableRule { rule } => {
                write!(f, "lexer rule {rule} can match the empty string")
            }
        }
    }
}

impl std::error::Error for LexBuildError {}

/// A scanning error: no rule matched at an input position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The character no rule could start with.
    pub ch: char,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: no lexer rule matches {:?}", self.line, self.col, self.ch)
    }
}

impl std::error::Error for LexError {}

/// An ordered set of lexer rules plus named fragments.
///
/// Rule order is priority order: when two rules match the same longest
/// prefix, the earlier rule wins (so keyword literals should precede
/// identifier rules, as the grammar builder arranges).
///
/// ```
/// use llstar_lexer::{LexerSpec, Rx, TokenType};
/// let mut spec = LexerSpec::new();
/// spec.push_rule("IF", Rx::parse("'if'")?, TokenType(1), false);
/// spec.push_rule("ID", Rx::parse("[a-z]+")?, TokenType(2), false);
/// spec.push_rule("WS", Rx::parse("[ \\t\\r\\n]+")?, TokenType(3), true);
/// let scanner = spec.build()?;
/// let toks = scanner.tokenize("if x")?;
/// let types: Vec<_> = toks.iter().map(|t| t.ttype).collect();
/// assert_eq!(types, vec![TokenType(1), TokenType(2), TokenType::EOF]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct LexerSpec {
    rules: Vec<LexRule>,
    fragments: HashMap<String, Rx>,
}

impl LexerSpec {
    /// An empty specification.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a rule at the lowest priority so far.
    pub fn push_rule(&mut self, name: &str, rx: Rx, ttype: TokenType, skip: bool) {
        self.rules.push(LexRule { name: name.to_string(), rx, ttype, skip });
    }

    /// Inserts a rule at the *highest* priority (used for keyword literals).
    pub fn push_rule_front(&mut self, name: &str, rx: Rx, ttype: TokenType, skip: bool) {
        self.rules.insert(0, LexRule { name: name.to_string(), rx, ttype, skip });
    }

    /// Registers a named fragment usable from rule patterns.
    pub fn add_fragment(&mut self, name: &str, rx: Rx) {
        self.fragments.insert(name.to_string(), rx);
    }

    /// The rules in priority order.
    pub fn rules(&self) -> &[LexRule] {
        &self.rules
    }

    /// Compiles the specification into a [`Scanner`].
    ///
    /// # Errors
    /// Fails on unknown fragment references or rules that match the empty
    /// string.
    pub fn build(&self) -> Result<Scanner, LexBuildError> {
        let mut nfa = Nfa::new();
        let mut resolved_rules = Vec::with_capacity(self.rules.len());
        for (i, rule) in self.rules.iter().enumerate() {
            let resolved =
                rule.rx.resolve_fragments(&|name| self.fragments.get(name).cloned()).map_err(
                    |fragment| LexBuildError::UnknownFragment { rule: rule.name.clone(), fragment },
                )?;
            if resolved.is_nullable() {
                return Err(LexBuildError::NullableRule { rule: rule.name.clone() });
            }
            nfa.add_rule(i, &resolved);
            resolved_rules.push(rule.clone());
        }
        let dfa = ScannerDfa::from_nfa(&nfa);
        let tables = ScannerTables::lower(&dfa);
        Ok(Scanner { dfa, tables, rules: resolved_rules })
    }
}

/// A compiled scanner ready to tokenize input.
#[derive(Debug, Clone)]
pub struct Scanner {
    dfa: ScannerDfa,
    /// Lowered byte-indexed tables (`None` when the DFA exceeds the table
    /// encodings; see [`ScannerTables::lower`]).
    tables: Option<ScannerTables>,
    rules: Vec<LexRule>,
}

impl Scanner {
    /// Tokenizes `input` by repeated maximal-munch matching, appending a
    /// final EOF token. `skip` rules produce no tokens. Walks the lowered
    /// tables when the DFA lowered, else the scanner DFA.
    ///
    /// # Errors
    /// Returns a [`LexError`] at the first position where no rule matches.
    pub fn tokenize(&self, input: &str) -> Result<Vec<Token>, LexError> {
        self.tokenize_path(input, LexPath::Table)
    }

    /// Tokenizes `input`, stamping each token (EOF included) with its
    /// parser token-class from `class_map` (indexed by token type; see
    /// `llstar-core`'s `TokenClasses::map`). Prediction then reads
    /// `token.class` directly instead of re-classifying every lookahead.
    ///
    /// # Errors
    /// Returns a [`LexError`] at the first position where no rule matches.
    pub fn tokenize_classified(
        &self,
        input: &str,
        class_map: &[u8],
    ) -> Result<Vec<Token>, LexError> {
        self.scan(input, LexPath::Table, class_map)
    }

    /// Tokenizes `input` over an explicit [`LexPath`]. `Table` falls back
    /// to `Scalar` when the DFA did not lower. Both paths are
    /// byte-identical (pinned by the cross-path differential suite).
    ///
    /// # Errors
    /// Returns a [`LexError`] at the first position where no rule matches.
    pub fn tokenize_path(&self, input: &str, path: LexPath) -> Result<Vec<Token>, LexError> {
        self.scan(input, path, &[])
    }

    /// The maximal-munch loop behind [`Scanner::tokenize_path`] and
    /// [`Scanner::tokenize_classified`]: each token (EOF included) is
    /// stamped with `class_map[ttype]` as it is pushed, class 0 for a
    /// type the map does not cover (every type, for an empty map).
    fn scan(&self, input: &str, path: LexPath, class_map: &[u8]) -> Result<Vec<Token>, LexError> {
        let class_of = |ttype: TokenType| class_map.get(ttype.index()).copied().unwrap_or(0);
        let tables = match (path, &self.tables) {
            (LexPath::Scalar, _) | (_, None) => None,
            (LexPath::Table, Some(t)) => Some(t),
        };
        let mut tokens = Vec::new();
        let mut offset = 0usize;
        let mut line = 1u32;
        let mut col = 1u32;
        while offset < input.len() {
            let rest = &input[offset..];
            let matched = match tables {
                Some(t) => t.longest_match(rest),
                None => self.dfa.longest_match(rest),
            };
            match matched {
                Some((len, rule_idx)) => {
                    debug_assert!(len > 0, "scanner rules are non-nullable");
                    let rule = &self.rules[rule_idx];
                    if !rule.skip {
                        let span = Span::new(offset, offset + len);
                        let token = Token::new(rule.ttype, span, line, col);
                        tokens.push(token.with_class(class_of(rule.ttype)));
                    }
                    let text = &rest.as_bytes()[..len];
                    if text.is_ascii() {
                        // Bytewise newline accounting for the common case.
                        match text.iter().rposition(|&b| b == b'\n') {
                            None => col += len as u32,
                            Some(last_nl) => {
                                line += text.iter().filter(|&&b| b == b'\n').count() as u32;
                                col = (len - last_nl) as u32;
                            }
                        }
                    } else {
                        for c in rest[..len].chars() {
                            if c == '\n' {
                                line += 1;
                                col = 1;
                            } else {
                                col += 1;
                            }
                        }
                    }
                    offset += len;
                }
                None => {
                    let ch = rest.chars().next().expect("offset < len");
                    return Err(LexError { offset, line, col, ch });
                }
            }
        }
        tokens.push(Token::eof(offset, line, col).with_class(class_of(TokenType::EOF)));
        Ok(tokens)
    }

    /// Number of states in the compiled scanner DFA.
    pub fn dfa_state_count(&self) -> usize {
        self.dfa.state_count()
    }

    /// The lowered scanner tables, when the DFA fit the table encodings.
    pub fn tables(&self) -> Option<&ScannerTables> {
        self.tables.as_ref()
    }

    /// The compiled scanner DFA (for code generators embedding it as
    /// static tables).
    pub fn dfa(&self) -> &ScannerDfa {
        &self.dfa
    }

    /// The rules this scanner was compiled from, in priority order.
    pub fn rules(&self) -> &[LexRule] {
        &self.rules
    }
}

/// Convenience: builds a spec from `(name, pattern, ttype, skip)` tuples.
///
/// # Errors
/// Propagates pattern-parse and build errors as strings.
pub fn scanner_from_patterns(rules: &[(&str, &str, TokenType, bool)]) -> Result<Scanner, String> {
    let mut spec = LexerSpec::new();
    for (name, pat, ttype, skip) in rules {
        let rx = Rx::parse(pat).map_err(|e| format!("{name}: {e}"))?;
        spec.push_rule(name, rx, *ttype, *skip);
    }
    spec.build().map_err(|e| e.to_string())
}

/// A whitespace charset usable by callers assembling specs by hand.
pub fn whitespace() -> CharSet {
    " \t\r\n".chars().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_scanner() -> Scanner {
        scanner_from_patterns(&[
            ("IF", "'if'", TokenType(1), false),
            ("ID", "[a-zA-Z_] [a-zA-Z0-9_]*", TokenType(2), false),
            ("INT", "[0-9]+", TokenType(3), false),
            ("EQ", "'='", TokenType(4), false),
            ("WS", "[ \\t\\r\\n]+", TokenType(99), true),
        ])
        .unwrap()
    }

    #[test]
    fn tokenizes_with_skip_and_eof() {
        let sc = simple_scanner();
        let src = "if x = 42";
        let toks = sc.tokenize(src).unwrap();
        let types: Vec<u32> = toks.iter().map(|t| t.ttype.0).collect();
        assert_eq!(types, vec![1, 2, 4, 3, 0]);
        assert_eq!(toks[1].text(src), "x");
        assert_eq!(toks[3].text(src), "42");
    }

    #[test]
    fn keyword_beats_identifier_by_priority() {
        let sc = simple_scanner();
        let toks = sc.tokenize("if iffy").unwrap();
        assert_eq!(toks[0].ttype, TokenType(1), "exact 'if' is the keyword");
        assert_eq!(toks[1].ttype, TokenType(2), "'iffy' is an identifier (maximal munch)");
    }

    #[test]
    fn line_and_column_tracking() {
        let sc = simple_scanner();
        let toks = sc.tokenize("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn lex_error_position() {
        let sc = simple_scanner();
        let err = sc.tokenize("ok $bad").unwrap_err();
        assert_eq!(err.ch, '$');
        assert_eq!(err.line, 1);
        assert_eq!(err.col, 4);
        assert!(err.to_string().contains("no lexer rule matches"));
    }

    #[test]
    fn empty_input_yields_only_eof() {
        let sc = simple_scanner();
        let toks = sc.tokenize("").unwrap();
        assert_eq!(toks.len(), 1);
        assert!(toks[0].ttype.is_eof());
    }

    #[test]
    fn fragments_resolve() {
        let mut spec = LexerSpec::new();
        spec.add_fragment("Digit", Rx::parse("[0-9]").unwrap());
        spec.add_fragment("Hex", Rx::parse("[0-9a-fA-F]").unwrap());
        spec.push_rule("NUM", Rx::parse("Digit+ | '0x' Hex+").unwrap(), TokenType(1), false);
        let sc = spec.build().unwrap();
        let toks = sc.tokenize("0xFF").unwrap();
        assert_eq!(toks[0].ttype, TokenType(1));
        assert_eq!(toks[0].span.len(), 4);
    }

    #[test]
    fn unknown_fragment_is_an_error() {
        let mut spec = LexerSpec::new();
        spec.push_rule("X", Rx::parse("Digit+").unwrap(), TokenType(1), false);
        match spec.build() {
            Err(LexBuildError::UnknownFragment { rule, fragment }) => {
                assert_eq!(rule, "X");
                assert_eq!(fragment, "Digit");
            }
            other => panic!("expected UnknownFragment, got {other:?}"),
        }
    }

    #[test]
    fn nullable_rule_is_an_error() {
        let mut spec = LexerSpec::new();
        spec.push_rule("BAD", Rx::parse("[a-z]*").unwrap(), TokenType(1), false);
        assert!(matches!(spec.build(), Err(LexBuildError::NullableRule { .. })));
    }

    #[test]
    fn push_rule_front_takes_priority() {
        let mut spec = LexerSpec::new();
        spec.push_rule("ID", Rx::parse("[a-z]+").unwrap(), TokenType(2), false);
        spec.push_rule_front("KW", Rx::parse("'while'").unwrap(), TokenType(1), false);
        let sc = spec.build().unwrap();
        let toks = sc.tokenize("while").unwrap();
        assert_eq!(toks[0].ttype, TokenType(1));
    }

    #[test]
    fn all_paths_tokenize_identically() {
        let sc = simple_scanner();
        for src in ["if x = 42", "a\n  b\n\nc9", "", "if iffy\tifx", "x = 1 y = 22\n"] {
            let scalar = sc.tokenize_path(src, LexPath::Scalar).unwrap();
            assert_eq!(sc.tokenize_path(src, LexPath::Table).unwrap(), scalar, "table on {src:?}");
            assert_eq!(sc.tokenize(src).unwrap(), scalar);
        }
        let err = sc.tokenize_path("ok $bad", LexPath::Scalar).unwrap_err();
        assert_eq!(sc.tokenize_path("ok $bad", LexPath::Table).unwrap_err(), err);
    }

    #[test]
    fn classified_tokens_carry_mapped_classes() {
        let sc = simple_scanner();
        // class_map indexed by ttype: EOF→0, IF(1)→3, ID(2)→1, INT(3)→2, EQ(4)→1.
        let class_map = [0u8, 3, 1, 2, 1];
        let toks = sc.tokenize_classified("if x = 42", &class_map).unwrap();
        let classes: Vec<u8> = toks.iter().map(|t| t.class).collect();
        assert_eq!(classes, vec![3, 1, 1, 2, 0]);
        // Classification never perturbs the stream itself.
        assert_eq!(toks, sc.tokenize("if x = 42").unwrap());
    }

    #[test]
    fn multiline_positions_survive_the_bytewise_fast_path() {
        let sc = scanner_from_patterns(&[
            ("ID", "[a-zé]+", TokenType(1), false),
            ("WS", "[ \\t\\r\\n]+", TokenType(9), true),
        ])
        .unwrap();
        let src = "aé\n  b\n\n cd";
        let scalar = sc.tokenize_path(src, LexPath::Scalar).unwrap();
        assert_eq!(sc.tokenize(src).unwrap(), scalar);
        assert_eq!((scalar[1].line, scalar[1].col), (2, 3));
        assert_eq!((scalar[2].line, scalar[2].col), (4, 2));
    }

    #[test]
    fn comment_rule_skips_to_newline() {
        let sc = scanner_from_patterns(&[
            ("ID", "[a-z]+", TokenType(1), false),
            ("COMMENT", "'//' (~[\\n])*'\\n'", TokenType(9), true),
            ("WS", "[ \\t\\r\\n]+", TokenType(9), true),
        ])
        .unwrap();
        let toks = sc.tokenize("ab // commentary\ncd").unwrap();
        let types: Vec<u32> = toks.iter().map(|t| t.ttype.0).collect();
        assert_eq!(types, vec![1, 1, 0]);
    }
}
