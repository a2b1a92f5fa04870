//! Lexer substrate for the `llstar` LL(*) parser generator.
//!
//! ANTLR-style lexer rules (character classes, literals, EBNF operators,
//! fragments, skip rules) are compiled via Thompson NFA construction and
//! subset construction into a deterministic scanner performing maximal-munch
//! tokenization.
//!
//! # Quickstart
//!
//! ```
//! use llstar_lexer::{LexerSpec, Rx, TokenType};
//!
//! let mut spec = LexerSpec::new();
//! spec.push_rule("ID", Rx::parse("[a-zA-Z_] [a-zA-Z0-9_]*")?, TokenType(1), false);
//! spec.push_rule("INT", Rx::parse("[0-9]+")?, TokenType(2), false);
//! spec.push_rule("WS", Rx::parse("[ \\t\\r\\n]+")?, TokenType(3), true);
//! let scanner = spec.build()?;
//!
//! let src = "width 42";
//! let tokens = scanner.tokenize(src)?;
//! assert_eq!(tokens[0].text(src), "width");
//! assert_eq!(tokens[1].ttype, TokenType(2));
//! assert!(tokens[2].ttype.is_eof());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charclass;
pub mod dfa;
pub mod fxhash;
pub mod nfa;
pub mod regex;
pub mod scanner;
pub mod tables;
pub mod token;

pub use charclass::{disjoint_partition, CharSet};
pub use dfa::{DfaStateId, ScannerDfa, ScannerDfaState};
pub use nfa::{Nfa, NfaState, NfaStateId};
pub use regex::{Rx, RxParseError};
pub use scanner::{
    scanner_from_patterns, LexBuildError, LexError, LexPath, LexRule, LexerSpec, Scanner,
};
pub use tables::ScannerTables;
pub use token::{Span, Token, TokenType};
