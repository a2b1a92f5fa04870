//! Parser for the ANTLR-flavoured grammar meta-language.
//!
//! # Surface syntax
//!
//! ```text
//! grammar Name;
//! options { backtrack = true; memoize = true; m = 1; k = 2; }
//!
//! // parser rules start with a lowercase letter
//! s    : ID | ID '=' expr | 'unsigned'* 'int' ID ;
//! expr : INT | '-' expr ;
//! typ  : {isTypeName}? ID ;            // semantic predicate
//! t    : ('-'* ID)=> '-'* ID | expr ;  // syntactic predicate
//! w    : !('end')=> ID ;               // negated (PEG not-) predicate
//! r    : {act()} ID {{always_act()}} ; // actions
//!
//! // lexer rules start with an uppercase letter
//! ID  : [a-zA-Z_] [a-zA-Z0-9_]* ;
//! INT : [0-9]+ ;
//! WS  : [ \t\r\n]+ -> skip ;
//! fragment Digit : [0-9] ;
//! ```
//!
//! Parser-rule elements also support `.` (any token), `~X` / `~'lit'` /
//! `~(X|'y')` (token complement), `EOF`, blocks `( … )` with `? * +`
//! suffixes, and the same suffixes on single elements.
//!
//! Literals used in parser rules automatically become lexer rules with
//! priority over named rules (so `'if'` beats `ID`), unless an existing
//! lexer rule already matches exactly that literal, in which case the two
//! are unified.

use crate::ast::{Alt, Block, Ebnf, Element, Grammar, GrammarOptions};
use llstar_lexer::{Rx, TokenType};
use std::fmt;

/// Error from [`parse_grammar`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaError {
    /// 1-based line of the error.
    pub line: u32,
    /// 1-based column of the error.
    pub col: u32,
    /// Description.
    pub message: String,
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grammar syntax error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for MetaError {}

/// Parses a grammar file into a resolved [`Grammar`].
///
/// # Errors
/// Returns a [`MetaError`] on the first syntax error, unknown token/rule
/// reference, or invalid lexer-rule pattern.
pub fn parse_grammar(src: &str) -> Result<Grammar, MetaError> {
    let raw = RawGrammar::parse(src)?;
    raw.resolve()
}

// ---------------------------------------------------------------------------
// Raw (unresolved) AST
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RawTerm {
    TokenRef(String),
    Literal(String),
}

#[derive(Debug, Clone)]
enum RawElement {
    Term(RawTerm),
    Eof,
    RuleRef(String),
    Wildcard,
    Not(Vec<RawTerm>),
    Block(Vec<RawAlt>, Ebnf),
    SemPred(String),
    SynPred(Vec<RawAlt>),
    NotSynPred(Vec<RawAlt>),
    Action(String, bool),
}

#[derive(Debug, Clone)]
struct RawAlt {
    elements: Vec<RawElement>,
}

#[derive(Debug, Clone)]
struct RawRule {
    name: String,
    alts: Vec<RawAlt>,
    line: u32,
    col: u32,
}

#[derive(Debug, Clone)]
struct RawLexRule {
    name: String,
    pattern: String,
    skip: bool,
    fragment: bool,
    line: u32,
    col: u32,
}

#[derive(Debug)]
struct RawGrammar {
    name: String,
    options: GrammarOptions,
    rules: Vec<RawRule>,
    lex_rules: Vec<RawLexRule>,
}

// ---------------------------------------------------------------------------
// Character cursor
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    src: &'a str,
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor { src, chars: src.chars().collect(), pos: 0, line: 1, col: 1 }
    }

    fn err(&self, msg: impl Into<String>) -> MetaError {
        MetaError { line: self.line, col: self.col, message: msg.into() }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.chars.len()
    }

    /// Skips whitespace and `//` / `/* */` comments.
    fn skip_trivia(&mut self) -> Result<(), MetaError> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                Some('/') if self.peek2() == Some('*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            Some('*') if self.peek() == Some('/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                            None => return Err(self.err("unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn eat(&mut self, expected: char) -> Result<(), MetaError> {
        self.skip_trivia()?;
        match self.peek() {
            Some(c) if c == expected => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(self.err(format!("expected {expected:?}, found {c:?}"))),
            None => Err(self.err(format!("expected {expected:?}, found end of file"))),
        }
    }

    fn try_eat(&mut self, expected: char) -> Result<bool, MetaError> {
        self.skip_trivia()?;
        if self.peek() == Some(expected) {
            self.bump();
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn ident(&mut self) -> Result<String, MetaError> {
        self.skip_trivia()?;
        let mut out = String::new();
        match self.peek() {
            Some(c) if c.is_alphabetic() || c == '_' => {}
            Some(c) => return Err(self.err(format!("expected identifier, found {c:?}"))),
            None => return Err(self.err("expected identifier, found end of file")),
        }
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
            out.push(self.bump().expect("peeked"));
        }
        Ok(out)
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), MetaError> {
        let name = self.ident()?;
        if name == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw:?}, found {name:?}")))
        }
    }

    /// Parses a quoted literal `'…'` returning its unescaped contents.
    fn literal(&mut self) -> Result<String, MetaError> {
        self.skip_trivia()?;
        if self.peek() != Some('\'') {
            return Err(self.err("expected a quoted literal"));
        }
        self.bump();
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('\'') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some(c) => out.push(c),
                    None => return Err(self.err("unterminated literal")),
                },
                Some(c) => out.push(c),
                None => return Err(self.err("unterminated literal")),
            }
        }
    }

    /// Captures balanced `{ … }` returning the inner text; assumes the
    /// cursor is at `{`. Skips over quoted strings inside.
    fn balanced_braces(&mut self) -> Result<String, MetaError> {
        debug_assert_eq!(self.peek(), Some('{'));
        self.bump();
        let start = self.pos;
        let mut depth = 1usize;
        loop {
            match self.bump() {
                Some('{') => depth += 1,
                Some('}') => {
                    depth -= 1;
                    if depth == 0 {
                        let inner: String = self.chars[start..self.pos - 1].iter().collect();
                        return Ok(inner);
                    }
                }
                Some(q @ ('"' | '\'')) => {
                    // Skip host-language string/char literal.
                    loop {
                        match self.bump() {
                            Some('\\') => {
                                self.bump();
                            }
                            Some(c) if c == q => break,
                            Some(_) => {}
                            None => return Err(self.err("unterminated string in action")),
                        }
                    }
                }
                Some(_) => {}
                None => return Err(self.err("unterminated action block")),
            }
        }
    }

    /// Captures a raw lexer-rule pattern up to a top-level `;` or `->`,
    /// respecting quotes and character classes.
    fn raw_pattern(&mut self) -> Result<(String, bool), MetaError> {
        self.skip_trivia()?;
        let start = self.pos;
        let mut skip_marker = false;
        let end;
        loop {
            match self.peek() {
                Some(';') => {
                    end = self.pos;
                    self.bump();
                    break;
                }
                Some('-') if self.peek2() == Some('>') => {
                    end = self.pos;
                    self.bump();
                    self.bump();
                    let word = self.ident()?;
                    if word != "skip" {
                        return Err(
                            self.err(format!("unsupported lexer command {word:?} (only 'skip')"))
                        );
                    }
                    skip_marker = true;
                    self.eat(';')?;
                    break;
                }
                Some('\'') => {
                    self.bump();
                    loop {
                        match self.bump() {
                            Some('\\') => {
                                self.bump();
                            }
                            Some('\'') => break,
                            Some(_) => {}
                            None => return Err(self.err("unterminated literal in pattern")),
                        }
                    }
                }
                Some('[') => {
                    self.bump();
                    loop {
                        match self.bump() {
                            Some('\\') => {
                                self.bump();
                            }
                            Some(']') => break,
                            Some(_) => {}
                            None => return Err(self.err("unterminated class in pattern")),
                        }
                    }
                }
                Some(_) => {
                    self.bump();
                }
                None => return Err(self.err("unterminated lexer rule (missing ';')")),
            }
        }
        let pattern: String = self.chars[start..end].iter().collect();
        Ok((pattern, skip_marker))
    }
}

// ---------------------------------------------------------------------------
// Raw parsing
// ---------------------------------------------------------------------------

impl RawGrammar {
    fn parse(src: &str) -> Result<RawGrammar, MetaError> {
        let mut cur = Cursor::new(src);
        cur.skip_trivia()?;
        cur.eat_keyword("grammar")?;
        let name = cur.ident()?;
        cur.eat(';')?;

        let mut options = GrammarOptions::default();
        cur.skip_trivia()?;
        // Peek for "options".
        let save = (cur.pos, cur.line, cur.col);
        if !cur.at_eof() {
            if let Ok(word) = cur.ident() {
                if word == "options" {
                    parse_options(&mut cur, &mut options)?;
                } else {
                    (cur.pos, cur.line, cur.col) = save;
                }
            } else {
                (cur.pos, cur.line, cur.col) = save;
            }
        }

        let mut rules = Vec::new();
        let mut lex_rules = Vec::new();
        loop {
            cur.skip_trivia()?;
            if cur.at_eof() {
                break;
            }
            let (line, col) = (cur.line, cur.col);
            let name = cur.ident()?;
            if name == "fragment" {
                let (line, col) = (cur.line, cur.col);
                let frag_name = cur.ident()?;
                if !starts_upper(&frag_name) {
                    return Err(cur.err("fragment names must start with an uppercase letter"));
                }
                cur.eat(':')?;
                let (pattern, skip) = cur.raw_pattern()?;
                if skip {
                    return Err(cur.err("fragments cannot be marked 'skip'"));
                }
                lex_rules.push(RawLexRule {
                    name: frag_name,
                    pattern,
                    skip: false,
                    fragment: true,
                    line,
                    col,
                });
            } else if starts_upper(&name) {
                cur.eat(':')?;
                let (pattern, skip) = cur.raw_pattern()?;
                lex_rules.push(RawLexRule { name, pattern, skip, fragment: false, line, col });
            } else {
                cur.eat(':')?;
                let alts = parse_alts(&mut cur)?;
                cur.eat(';')?;
                rules.push(RawRule { name, alts, line, col });
            }
        }
        Ok(RawGrammar { name, options, rules, lex_rules })
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_uppercase())
}

fn parse_options(cur: &mut Cursor<'_>, options: &mut GrammarOptions) -> Result<(), MetaError> {
    cur.eat('{')?;
    loop {
        cur.skip_trivia()?;
        if cur.try_eat('}')? {
            return Ok(());
        }
        let key = cur.ident()?;
        cur.eat('=')?;
        cur.skip_trivia()?;
        let mut value = String::new();
        while matches!(cur.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
            value.push(cur.bump().expect("peeked"));
        }
        cur.eat(';')?;
        let bool_value = |cur: &Cursor<'_>| match value.as_str() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(cur.err(format!("option {key} expects true/false, got {other:?}"))),
        };
        match key.as_str() {
            "backtrack" => options.backtrack = bool_value(cur)?,
            "memoize" => options.memoize = bool_value(cur)?,
            "m" => {
                options.rec_depth_m = value
                    .parse()
                    .map_err(|_| cur.err(format!("option m expects an integer, got {value:?}")))?
            }
            "k" => {
                options.max_k =
                    Some(value.parse().map_err(|_| {
                        cur.err(format!("option k expects an integer, got {value:?}"))
                    })?)
            }
            other => return Err(cur.err(format!("unknown option {other:?}"))),
        }
    }
}

fn parse_alts(cur: &mut Cursor<'_>) -> Result<Vec<RawAlt>, MetaError> {
    let mut alts = vec![parse_alt(cur)?];
    while cur.try_eat('|')? {
        alts.push(parse_alt(cur)?);
    }
    Ok(alts)
}

fn parse_alt(cur: &mut Cursor<'_>) -> Result<RawAlt, MetaError> {
    let mut elements = Vec::new();
    loop {
        cur.skip_trivia()?;
        match cur.peek() {
            None | Some(';') | Some('|') | Some(')') => break,
            _ => elements.push(parse_element(cur)?),
        }
    }
    Ok(RawAlt { elements })
}

/// Wraps `elem` in an EBNF block if a `? * +` suffix follows.
fn apply_suffix(cur: &mut Cursor<'_>, elem: RawElement) -> Result<RawElement, MetaError> {
    cur.skip_trivia()?;
    let ebnf = match cur.peek() {
        Some('?') => Ebnf::Optional,
        Some('*') => Ebnf::Star,
        Some('+') => Ebnf::Plus,
        _ => return Ok(elem),
    };
    cur.bump();
    Ok(RawElement::Block(vec![RawAlt { elements: vec![elem] }], ebnf))
}

fn parse_element(cur: &mut Cursor<'_>) -> Result<RawElement, MetaError> {
    cur.skip_trivia()?;
    match cur.peek() {
        Some('(') => {
            cur.bump();
            let alts = parse_alts(cur)?;
            cur.eat(')')?;
            cur.skip_trivia()?;
            if cur.peek() == Some('=') && cur.peek2() == Some('>') {
                cur.bump();
                cur.bump();
                return Ok(RawElement::SynPred(alts));
            }
            let ebnf = match cur.peek() {
                Some('?') => {
                    cur.bump();
                    Ebnf::Optional
                }
                Some('*') => {
                    cur.bump();
                    Ebnf::Star
                }
                Some('+') => {
                    cur.bump();
                    Ebnf::Plus
                }
                _ => Ebnf::None,
            };
            Ok(RawElement::Block(alts, ebnf))
        }
        Some('\'') => {
            let text = cur.literal()?;
            if text.is_empty() {
                return Err(cur.err("empty literals are not allowed in parser rules"));
            }
            apply_suffix(cur, RawElement::Term(RawTerm::Literal(text)))
        }
        Some('.') => {
            cur.bump();
            apply_suffix(cur, RawElement::Wildcard)
        }
        Some('!') => {
            cur.bump();
            cur.skip_trivia()?;
            if cur.peek() != Some('(') {
                return Err(cur.err("'!' must be followed by a '(…)=>'-style predicate"));
            }
            cur.bump();
            let alts = parse_alts(cur)?;
            cur.eat(')')?;
            cur.skip_trivia()?;
            if cur.peek() == Some('=') && cur.peek2() == Some('>') {
                cur.bump();
                cur.bump();
                Ok(RawElement::NotSynPred(alts))
            } else {
                Err(cur.err("negated predicates must end with '=>'"))
            }
        }
        Some('~') => {
            cur.bump();
            cur.skip_trivia()?;
            let mut terms = Vec::new();
            if cur.try_eat('(')? {
                loop {
                    terms.push(parse_term(cur)?);
                    if !cur.try_eat('|')? {
                        break;
                    }
                }
                cur.eat(')')?;
            } else {
                terms.push(parse_term(cur)?);
            }
            apply_suffix(cur, RawElement::Not(terms))
        }
        Some('{') => {
            if cur.peek2() == Some('{') {
                // {{ … }} always-action: capture outer braces, then strip.
                let outer = cur.balanced_braces()?;
                let inner = outer
                    .strip_prefix('{')
                    .and_then(|s| s.strip_suffix('}'))
                    .ok_or_else(|| cur.err("malformed {{…}} action"))?;
                Ok(RawElement::Action(inner.trim().to_string(), true))
            } else {
                let text = cur.balanced_braces()?;
                if cur.try_eat('?')? {
                    Ok(RawElement::SemPred(text.trim().to_string()))
                } else {
                    Ok(RawElement::Action(text.trim().to_string(), false))
                }
            }
        }
        Some(c) if c.is_alphabetic() || c == '_' => {
            let name = cur.ident()?;
            let elem = if name == "EOF" {
                RawElement::Eof
            } else if starts_upper(&name) {
                RawElement::Term(RawTerm::TokenRef(name))
            } else {
                RawElement::RuleRef(name)
            };
            apply_suffix(cur, elem)
        }
        Some(c) => Err(cur.err(format!("unexpected character {c:?} in production"))),
        None => Err(cur.err("unexpected end of file in production")),
    }
}

fn parse_term(cur: &mut Cursor<'_>) -> Result<RawTerm, MetaError> {
    cur.skip_trivia()?;
    match cur.peek() {
        Some('\'') => Ok(RawTerm::Literal(cur.literal()?)),
        Some(c) if c.is_alphabetic() => {
            let name = cur.ident()?;
            if starts_upper(&name) {
                Ok(RawTerm::TokenRef(name))
            } else {
                Err(cur.err("'~' applies to tokens, not rules"))
            }
        }
        _ => Err(cur.err("expected a token reference or literal after '~'")),
    }
}

// ---------------------------------------------------------------------------
// Resolution: raw AST -> Grammar
// ---------------------------------------------------------------------------

impl RawGrammar {
    fn resolve(self) -> Result<Grammar, MetaError> {
        let mut g = Grammar::new(&self.name, self.options.clone());

        // Pass 1: lexer rules define the named-token vocabulary and spec.
        for lr in &self.lex_rules {
            let rx = Rx::parse(&lr.pattern).map_err(|e| MetaError {
                line: lr.line,
                col: lr.col,
                message: format!("in lexer rule {}: {e}", lr.name),
            })?;
            if lr.fragment {
                g.lexer.add_fragment(&lr.name, rx);
            } else {
                let ttype = g.vocab.define_token(&lr.name);
                g.lexer.push_rule(&lr.name, rx, ttype, lr.skip);
            }
        }

        // Pass 2: declare all parser rules so references resolve.
        for r in &self.rules {
            if g.rule_id(&r.name).is_some() {
                return Err(MetaError {
                    line: r.line,
                    col: r.col,
                    message: format!("duplicate rule {:?}", r.name),
                });
            }
            g.add_rule(&r.name);
        }
        if self.rules.is_empty() {
            return Err(MetaError {
                line: 1,
                col: 1,
                message: "grammar has no parser rules".to_string(),
            });
        }

        // Pass 3: resolve productions.
        for r in &self.rules {
            let id = g.rule_id(&r.name).expect("declared in pass 2");
            let mut alts = Vec::with_capacity(r.alts.len());
            for raw_alt in &r.alts {
                alts.push(resolve_alt(&mut g, raw_alt, r)?);
            }
            for alt in alts {
                g.add_alt(id, alt);
            }
        }
        Ok(g)
    }
}

fn resolve_term(g: &mut Grammar, term: &RawTerm, at: &RawRule) -> Result<TokenType, MetaError> {
    match term {
        RawTerm::TokenRef(name) => g.vocab.by_name(name).ok_or_else(|| MetaError {
            line: at.line,
            col: at.col,
            message: format!("rule {:?} references undefined token {name:?}", at.name),
        }),
        RawTerm::Literal(text) => {
            if let Some(t) = g.vocab.by_literal(text) {
                return Ok(t);
            }
            // Unify with an existing lexer rule whose pattern is exactly
            // this literal; otherwise synthesize a high-priority rule.
            let lit_rx = Rx::literal(text);
            if let Some(rule) = g.lexer.rules().iter().find(|r| r.rx == lit_rx && !r.skip) {
                let t = rule.ttype;
                // Record the alias so later lookups hit the fast path.
                let name = rule.name.clone();
                let _ = name;
                return Ok(t);
            }
            let t = g.vocab.define_literal(text);
            g.lexer.push_rule_front(&format!("'{text}'"), lit_rx, t, false);
            Ok(t)
        }
    }
}

fn resolve_alt(g: &mut Grammar, raw: &RawAlt, at: &RawRule) -> Result<Alt, MetaError> {
    let mut elements = Vec::with_capacity(raw.elements.len());
    for e in &raw.elements {
        elements.push(resolve_element(g, e, at)?);
    }
    Ok(Alt::new(elements))
}

fn resolve_synpred_fragment(
    g: &mut Grammar,
    raw_alts: &[RawAlt],
    at: &RawRule,
) -> Result<crate::ast::SynPredId, MetaError> {
    let mut alts = Vec::with_capacity(raw_alts.len());
    for a in raw_alts {
        alts.push(resolve_alt(g, a, at)?);
    }
    let fragment = if alts.len() == 1 {
        alts.pop().expect("len checked")
    } else {
        Alt::new(vec![Element::Block(Block { alts, ebnf: Ebnf::None })])
    };
    let rule = g.rule_id(&at.name).expect("parser rules are declared before they resolve");
    Ok(g.add_synpred(fragment, rule))
}

fn resolve_element(g: &mut Grammar, raw: &RawElement, at: &RawRule) -> Result<Element, MetaError> {
    Ok(match raw {
        RawElement::Term(t) => Element::Token(resolve_term(g, t, at)?),
        RawElement::Eof => Element::Token(TokenType::EOF),
        RawElement::RuleRef(name) => {
            let id = g.rule_id(name).ok_or_else(|| MetaError {
                line: at.line,
                col: at.col,
                message: format!("rule {:?} references undefined rule {name:?}", at.name),
            })?;
            Element::Rule(id)
        }
        RawElement::Wildcard => {
            let alts: Vec<Alt> =
                g.vocab.token_types().map(|t| Alt::new(vec![Element::Token(t)])).collect();
            if alts.is_empty() {
                return Err(MetaError {
                    line: at.line,
                    col: at.col,
                    message: "wildcard '.' needs at least one token type".to_string(),
                });
            }
            Element::Block(Block { alts, ebnf: Ebnf::None })
        }
        RawElement::Not(terms) => {
            let mut excluded = Vec::with_capacity(terms.len());
            for t in terms {
                excluded.push(resolve_term(g, t, at)?);
            }
            let alts: Vec<Alt> = g
                .vocab
                .token_types()
                .filter(|t| !excluded.contains(t))
                .map(|t| Alt::new(vec![Element::Token(t)]))
                .collect();
            if alts.is_empty() {
                return Err(MetaError {
                    line: at.line,
                    col: at.col,
                    message: "'~' complement is empty".to_string(),
                });
            }
            Element::Block(Block { alts, ebnf: Ebnf::None })
        }
        RawElement::Block(raw_alts, ebnf) => {
            let mut alts = Vec::with_capacity(raw_alts.len());
            for a in raw_alts {
                alts.push(resolve_alt(g, a, at)?);
            }
            Element::Block(Block { alts, ebnf: *ebnf })
        }
        RawElement::SemPred(text) => {
            let id = g.add_sempred(text);
            Element::SemPred(id)
        }
        RawElement::SynPred(raw_alts) => {
            let id = resolve_synpred_fragment(g, raw_alts, at)?;
            Element::SynPred(id)
        }
        RawElement::NotSynPred(raw_alts) => {
            let id = resolve_synpred_fragment(g, raw_alts, at)?;
            Element::NotSynPred(id)
        }
        RawElement::Action(text, always) => {
            let id = g.add_action(text);
            Element::Action { id, always: *always }
        }
    })
}

// `src` is retained on Cursor for future use (error snippets).
impl<'a> Cursor<'a> {
    #[allow(dead_code)]
    fn source(&self) -> &'a str {
        self.src
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Element;

    const PAPER_S: &str = r#"
        grammar S;
        s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
        expr : INT ;
        ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
        INT : [0-9]+ ;
        WS : [ \t\r\n]+ -> skip ;
    "#;

    #[test]
    fn parses_paper_rule_s() {
        let g = parse_grammar(PAPER_S).unwrap();
        assert_eq!(g.name, "S");
        assert_eq!(g.rules.len(), 2);
        let s = g.rule_by_name("s").unwrap();
        assert_eq!(s.alts.len(), 4);
        // Third alternative: 'unsigned'* 'int' ID
        let alt3 = &s.alts[2];
        assert!(matches!(alt3.elements[0], Element::Block(ref b) if b.ebnf == Ebnf::Star));
        assert!(matches!(alt3.elements[1], Element::Token(_)));
        // Vocabulary: ID INT WS named + 'unsigned' '=' 'int' literals + EOF.
        assert_eq!(g.vocab.len(), 7);
    }

    #[test]
    fn literals_unify_with_exact_lexer_rules() {
        let g = parse_grammar("grammar U; s : 'if' ID ; IF : 'if' ; ID : [a-z]+ ;").unwrap();
        // 'if' in the parser should reuse the IF token type, not mint a new
        // one that shadows it.
        let if_type = g.vocab.by_name("IF").unwrap();
        let s = g.rule_by_name("s").unwrap();
        assert_eq!(s.alts[0].elements[0], Element::Token(if_type));
    }

    #[test]
    fn options_parse() {
        let g = parse_grammar(
            "grammar O; options { backtrack = true; memoize = false; m = 2; k = 4; } s : A ; A : 'a' ;",
        )
        .unwrap();
        assert!(g.options.backtrack);
        assert!(!g.options.memoize);
        assert_eq!(g.options.rec_depth_m, 2);
        assert_eq!(g.options.max_k, Some(4));
    }

    #[test]
    fn unknown_option_is_error() {
        let err = parse_grammar("grammar O; options { frobnicate = true; } s : A ; A : 'a' ;")
            .unwrap_err();
        assert!(err.message.contains("unknown option"), "{err}");
    }

    #[test]
    fn predicates_and_actions() {
        let g = parse_grammar(
            r#"
            grammar P;
            typeId : {isTypeName}? ID {log()} {{scope_push()}} ;
            ID : [a-z]+ ;
            "#,
        )
        .unwrap();
        let r = g.rule_by_name("typeId").unwrap();
        match &r.alts[0].elements[..] {
            [Element::SemPred(p), Element::Token(_), Element::Action { id: a1, always: false }, Element::Action { id: a2, always: true }] =>
            {
                assert_eq!(g.sempred_text(*p), "isTypeName");
                assert_eq!(g.action_text(*a1), "log()");
                assert_eq!(g.action_text(*a2), "scope_push()");
            }
            other => panic!("unexpected elements: {other:?}"),
        }
    }

    #[test]
    fn syntactic_predicate() {
        let g = parse_grammar(
            r#"
            grammar Y;
            t : ('-'* ID)=> '-'* ID | expr ;
            expr : INT | '-' expr ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            "#,
        )
        .unwrap();
        let t = g.rule_by_name("t").unwrap();
        assert!(matches!(t.alts[0].elements[0], Element::SynPred(_)));
        assert_eq!(g.synpreds.len(), 1);
        assert_eq!(g.synpreds[0].elements.len(), 2);
    }

    #[test]
    fn ebnf_suffix_on_single_element() {
        let g = parse_grammar("grammar E; s : A? B* C+ ; A:'a'; B:'b'; C:'c';").unwrap();
        let s = g.rule_by_name("s").unwrap();
        let kinds: Vec<Ebnf> = s.alts[0]
            .elements
            .iter()
            .map(|e| match e {
                Element::Block(b) => b.ebnf,
                other => panic!("expected block, got {other:?}"),
            })
            .collect();
        assert_eq!(kinds, vec![Ebnf::Optional, Ebnf::Star, Ebnf::Plus]);
    }

    #[test]
    fn wildcard_and_not() {
        let g = parse_grammar("grammar W; s : ~A . ; A:'a'; B:'b'; C:'c';").unwrap();
        let s = g.rule_by_name("s").unwrap();
        match &s.alts[0].elements[0] {
            Element::Block(b) => assert_eq!(b.alts.len(), 2, "~A = B|C"),
            other => panic!("{other:?}"),
        }
        match &s.alts[0].elements[1] {
            Element::Block(b) => assert_eq!(b.alts.len(), 3, ". = A|B|C"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_reference() {
        let g = parse_grammar("grammar F; s : A EOF ; A : 'a' ;").unwrap();
        let s = g.rule_by_name("s").unwrap();
        assert_eq!(s.alts[0].elements[1], Element::Token(TokenType::EOF));
    }

    #[test]
    fn undefined_references_are_errors() {
        let err = parse_grammar("grammar B; s : nothere ; A : 'a' ;").unwrap_err();
        assert!(err.message.contains("undefined rule"), "{err}");
        let err = parse_grammar("grammar B; s : MISSING ; A : 'a' ;").unwrap_err();
        assert!(err.message.contains("undefined token"), "{err}");
    }

    #[test]
    fn duplicate_rule_is_error() {
        let err = parse_grammar("grammar D; s : A ; s : A ; A : 'a' ;").unwrap_err();
        assert!(err.message.contains("duplicate rule"), "{err}");
    }

    #[test]
    fn comments_are_skipped() {
        let g = parse_grammar("grammar C; // line comment\n/* block\ncomment */ s : A ; A : 'a' ;")
            .unwrap();
        assert_eq!(g.rules.len(), 1);
    }

    #[test]
    fn fragments_flow_to_lexer_spec() {
        let g =
            parse_grammar("grammar G; s : NUM ; fragment Digit : [0-9] ; NUM : Digit+ ;").unwrap();
        let scanner = g.lexer.build().unwrap();
        let toks = scanner.tokenize("123").unwrap();
        assert_eq!(toks[0].ttype, g.vocab.by_name("NUM").unwrap());
    }

    #[test]
    fn error_positions_are_tracked() {
        let err = parse_grammar("grammar X;\n\ns : $ ;").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains('$'), "{err}");
    }

    #[test]
    fn nested_action_braces() {
        let g = parse_grammar("grammar N; s : {if x { y(\"}\"); }} A ; A : 'a' ;").unwrap();
        assert_eq!(g.actions[0], "if x { y(\"}\"); }");
    }

    #[test]
    fn grammar_without_parser_rules_is_error() {
        let err = parse_grammar("grammar Z; A : 'a' ;").unwrap_err();
        assert!(err.message.contains("no parser rules"), "{err}");
    }
}
