//! LL(*) grammar analysis — the core contribution of Parr & Fisher's
//! "LL(*): The Foundation of the ANTLR Parser Generator" (PLDI 2011).
//!
//! The pipeline:
//!
//! 1. [`atn::Atn::from_grammar`] converts a predicated grammar into an
//!    augmented transition network (Section 5.1, Figure 7).
//! 2. [`analysis::analyze`] runs a modified subset construction over ATN
//!    configurations (Algorithms 8–11) to build one lookahead DFA per
//!    parsing decision, resolving ambiguities with predicates or
//!    production order, bounding recursion with the constant `m`, and
//!    falling back to LL(1) when a decision is likely not LL-regular.
//! 3. [`dfa::LookaheadDfa`] is the result: a possibly cyclic DFA with
//!    predicate transitions that the runtime uses to predict productions.
//!
//! ```
//! use llstar_grammar::parse_grammar;
//! use llstar_core::{analyze, DecisionClass};
//!
//! let g = parse_grammar(r#"
//!     grammar Demo;
//!     s : ID | ID '=' INT ;
//!     ID : [a-z]+ ;
//!     INT : [0-9]+ ;
//!     WS : [ ]+ -> skip ;
//! "#)?;
//! let analysis = analyze(&g);
//! // One decision (rule s), fixed LL(2).
//! assert_eq!(analysis.decisions.len(), 1);
//! assert_eq!(analysis.decisions[0].dfa.classify(), DecisionClass::Fixed { k: 2 });
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod atn;
pub mod cache;
pub mod compiled;
pub mod config;
pub mod coverage;
pub mod dfa;
pub use llstar_lexer::fxhash;
pub mod json;
pub mod metrics;
pub mod recovery;
pub mod schema;
pub mod serialize;

pub use analysis::{
    analyze, analyze_decision, analyze_with, AnalysisOptions, AnalysisWarning, DecisionAnalysis,
    GrammarAnalysis,
};
pub use atn::{
    Atn, AtnEdge, AtnOp, AtnState, AtnStateId, Decision, DecisionId, DecisionKind, OpEntry,
    StateKind,
};
pub use cache::{
    analyze_cached, analyze_cached_metered, analyze_cached_with, cache_path, CacheMiss, CacheStatus,
};
pub use compiled::{CompiledDfa, CompiledTables, TokenClasses, NO_ALT, NO_TARGET};
pub use config::{Config, PredSource, StackArena, StackId};
pub use coverage::{CoverageMap, DecisionCoverage};
pub use dfa::{DecisionClass, DfaState, DfaStateId, LookaheadDfa};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use json::Json;
pub use metrics::{AnalysisRecord, CacheMetrics, DecisionMetrics, FallbackReason};
pub use recovery::{RecoverySets, TokenSet};
pub use serialize::{
    deserialize_analysis, grammar_fingerprint, serialize_analysis, serialized_fingerprint,
    SerializeError,
};
