//! LL(*) parse-time engine: DFA-driven prediction, backtracking via
//! syntactic predicates with packrat memoization, semantic-predicate and
//! action hooks, parse trees, and the runtime instrumentation behind the
//! paper's Tables 3–4.
//!
//! # Quickstart
//!
//! ```
//! use llstar_grammar::parse_grammar;
//! use llstar_core::analyze;
//! use llstar_runtime::{parse_text, NopHooks};
//!
//! let g = parse_grammar(r#"
//!     grammar Demo;
//!     s : ID '=' expr ';' ;
//!     expr : ID | INT ;
//!     ID : [a-z]+ ;
//!     INT : [0-9]+ ;
//!     WS : [ ]+ -> skip ;
//! "#)?;
//! let analysis = analyze(&g);
//! let (tree, stats) = parse_text(&g, &analysis, "x = 42 ;", "s", NopHooks)?;
//! assert_eq!(tree.to_sexpr(&g, "x = 42 ;"), r#"(s "x" "=" (expr "42") ";")"#);
//! assert!(stats.avg_lookahead() >= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod coverage;
pub mod diagnostics;
pub mod error;
pub mod hooks;
pub mod metrics;
mod observe;
pub mod parser;
mod recovery;
pub mod session;
pub mod span;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod tree;
pub mod visit;

pub use coverage::replay_coverage;
pub use diagnostics::{diagnostics_jsonl, parse_diagnostics_jsonl, render_all, Diagnostic};
pub use error::{ParseError, ParseErrorKind, ResourceKind};
pub use hooks::{HookContext, Hooks, MapHooks, NopHooks};
pub use metrics::{
    hist_quantile, parse_metrics_jsonl, validate_prometheus, DecisionCounters, MetricsHandle,
    MetricsRegistry, MetricsSnapshot, ParseMetrics,
};
pub use parser::{
    lex_stream, parse_text, parse_text_recovering, parse_text_recovering_traced, parse_text_traced,
    Parser,
};
pub use session::{ParseSession, SessionError};
pub use span::{
    derive_span_id, derive_trace_id, format_traceparent, parse_traceparent, SpanKind, SpanNode,
    SpanRecorder, SpanTree,
};
pub use stats::ParseStats;
pub use stream::TokenStream;
pub use trace::{
    parse_jsonl, JsonlSink, MemoKind, NopSink, RingSink, SamplingSink, TraceEvent, TraceSink,
};
pub use tree::ParseTree;
pub use visit::{covered_text, find_rule_nodes, walk, TreeListener};
