//! Runtime prediction tracing: typed events emitted by the parser,
//! consumed through the [`TraceSink`] trait.
//!
//! The event stream is the opt-in, full-fidelity tier of runtime
//! observability: the span recorder folds it, the `llstar profile`
//! subcommand renders it, and [`JsonlSink`] exports it one JSON object
//! per line. The parser builds events only while a sink or a span
//! recorder is attached; the always-on counters behind [`ParseStats`]
//! are bumped at the same sites either way, and tests check that the
//! event counts agree with them. Events carry token indices and
//! counters but never wall-clock timestamps, so the JSONL stream for a
//! given grammar + input is byte-identical across runs.
//!
//! [`ParseStats`]: crate::stats::ParseStats

use llstar_core::json::{quote, Json};
use llstar_core::schema;
use std::collections::VecDeque;
use std::io::{self, Write};

/// What a memoization event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoKind {
    /// A rule sub-parse memo (packrat caching during speculation).
    Rule,
    /// A syntactic-predicate outcome memo.
    SynPred,
}

impl MemoKind {
    fn as_str(self) -> &'static str {
        match self {
            MemoKind::Rule => "rule",
            MemoKind::SynPred => "synpred",
        }
    }

    fn from_name(s: &str) -> Option<MemoKind> {
        match s {
            "rule" => Some(MemoKind::Rule),
            "synpred" => Some(MemoKind::SynPred),
            _ => None,
        }
    }
}

/// One traced runtime event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A rule sub-parse began (span opener; pairs with [`RuleExit`]).
    ///
    /// [`RuleExit`]: TraceEvent::RuleExit
    RuleEnter {
        /// The rule id.
        rule: u32,
        /// Token index at rule entry.
        token_index: usize,
    },
    /// A rule sub-parse concluded (span closer).
    RuleExit {
        /// The rule id.
        rule: u32,
        /// Token index at rule exit.
        token_index: usize,
        /// The alternative the rule completed through: 1-based for
        /// multi-alternative rules, 0 for single-alternative rules, for
        /// failures, and for speculative (non-building) sub-parses.
        alt: u16,
        /// Whether the sub-parse succeeded.
        ok: bool,
    },
    /// A decision's lookahead-DFA simulation began.
    PredictStart {
        /// The decision id.
        decision: u32,
        /// Token index where prediction started.
        token_index: usize,
    },
    /// A decision's prediction concluded with an alternative.
    PredictStop {
        /// The decision id.
        decision: u32,
        /// Token index where prediction started (no tokens consumed).
        token_index: usize,
        /// The predicted alternative (1-based).
        alt: u16,
        /// Lookahead depth charged to this event (≥ 1; includes
        /// speculation depth when backtracking decided).
        lookahead: u64,
        /// DFA states visited, in order, starting at state 0.
        path: Vec<u32>,
        /// Whether a speculative sub-parse ran.
        backtracked: bool,
        /// Deepest speculation (tokens), 0 when none ran.
        spec_depth: u64,
    },
    /// A speculative parse of a syntactic predicate began.
    BacktrackEnter {
        /// The syntactic predicate id.
        synpred: u32,
        /// Token index at speculation start.
        token_index: usize,
        /// Speculation nesting depth already active (0 = outermost).
        nesting: u32,
    },
    /// A speculative parse concluded (stream rewound).
    BacktrackExit {
        /// The syntactic predicate id.
        synpred: u32,
        /// Token index at speculation start.
        token_index: usize,
        /// Whether the speculative parse matched.
        matched: bool,
        /// Tokens consumed speculatively before rewinding.
        consumed: u64,
        /// Speculation nesting depth (matches the enter event).
        nesting: u32,
    },
    /// A memoized sub-parse result was served without re-parsing.
    MemoHit {
        /// What the memo caches.
        kind: MemoKind,
        /// Rule or synpred id.
        id: u32,
        /// Token index the memo is keyed on.
        token_index: usize,
        /// Whether the cached outcome was a successful parse.
        success: bool,
    },
    /// A sub-parse result was written into the memo table.
    MemoWrite {
        /// What the memo caches.
        kind: MemoKind,
        /// Rule or synpred id.
        id: u32,
        /// Token index the memo is keyed on.
        token_index: usize,
        /// Whether the recorded outcome was a successful parse.
        success: bool,
    },
    /// A semantic predicate was evaluated.
    Sempred {
        /// The predicate text.
        pred: String,
        /// Token index at evaluation.
        token_index: usize,
        /// The hook's verdict.
        outcome: bool,
    },
    /// A syntax error was recorded (possibly during speculation, where it
    /// steers backtracking rather than failing the parse).
    SyntaxError {
        /// Token index of the offending token.
        token_index: usize,
        /// Whether the parser was speculating.
        speculating: bool,
    },
    /// Error recovery engaged after a failed match or prediction (never
    /// during speculation).
    Recover {
        /// Token index of the recorded error.
        token_index: usize,
        /// The rule being parsed when recovery engaged.
        rule: u32,
    },
    /// Recovery consumed tokens to resynchronize on the follow set.
    SyncSkip {
        /// Token index where skipping started.
        token_index: usize,
        /// Number of tokens consumed (0 when already synchronized).
        skipped: u64,
    },
    /// Recovery synthesized a missing token without consuming input
    /// (single-token insertion).
    TokenInserted {
        /// Token index where the synthetic token was inserted.
        token_index: usize,
        /// The synthesized token type.
        ttype: u32,
    },
    /// Recovery deleted an extraneous token (single-token deletion).
    TokenDeleted {
        /// Token index of the deleted token.
        token_index: usize,
        /// The deleted token's type.
        ttype: u32,
    },
}

impl TraceEvent {
    /// One JSONL line (no trailing newline). No timestamps: output is
    /// byte-deterministic for a fixed grammar + input.
    pub fn to_json(&self) -> String {
        match self {
            TraceEvent::RuleEnter { rule, token_index } => {
                format!("{{\"type\":\"rule-enter\",\"rule\":{rule},\"token\":{token_index}}}")
            }
            TraceEvent::RuleExit { rule, token_index, alt, ok } => format!(
                "{{\"type\":\"rule-exit\",\"rule\":{rule},\"token\":{token_index},\
                 \"alt\":{alt},\"ok\":{ok}}}"
            ),
            TraceEvent::PredictStart { decision, token_index } => format!(
                "{{\"type\":\"predict-start\",\"decision\":{decision},\"token\":{token_index}}}"
            ),
            TraceEvent::PredictStop {
                decision,
                token_index,
                alt,
                lookahead,
                path,
                backtracked,
                spec_depth,
            } => {
                let path: Vec<String> = path.iter().map(u32::to_string).collect();
                format!(
                    "{{\"type\":\"predict-stop\",\"decision\":{decision},\"token\":{token_index},\
                     \"alt\":{alt},\"lookahead\":{lookahead},\"path\":[{}],\
                     \"backtracked\":{backtracked},\"spec_depth\":{spec_depth}}}",
                    path.join(",")
                )
            }
            TraceEvent::BacktrackEnter { synpred, token_index, nesting } => format!(
                "{{\"type\":\"backtrack-enter\",\"synpred\":{synpred},\"token\":{token_index},\
                 \"nesting\":{nesting}}}"
            ),
            TraceEvent::BacktrackExit { synpred, token_index, matched, consumed, nesting } => {
                format!(
                    "{{\"type\":\"backtrack-exit\",\"synpred\":{synpred},\"token\":{token_index},\
                     \"matched\":{matched},\"consumed\":{consumed},\"nesting\":{nesting}}}"
                )
            }
            TraceEvent::MemoHit { kind, id, token_index, success } => format!(
                "{{\"type\":\"memo-hit\",\"kind\":{},\"id\":{id},\"token\":{token_index},\
                 \"success\":{success}}}",
                quote(kind.as_str())
            ),
            TraceEvent::MemoWrite { kind, id, token_index, success } => format!(
                "{{\"type\":\"memo-write\",\"kind\":{},\"id\":{id},\"token\":{token_index},\
                 \"success\":{success}}}",
                quote(kind.as_str())
            ),
            TraceEvent::Sempred { pred, token_index, outcome } => format!(
                "{{\"type\":\"sempred\",\"pred\":{},\"token\":{token_index},\
                 \"outcome\":{outcome}}}",
                quote(pred)
            ),
            TraceEvent::SyntaxError { token_index, speculating } => format!(
                "{{\"type\":\"syntax-error\",\"token\":{token_index},\
                 \"speculating\":{speculating}}}"
            ),
            TraceEvent::Recover { token_index, rule } => {
                format!("{{\"type\":\"recover\",\"token\":{token_index},\"rule\":{rule}}}")
            }
            TraceEvent::SyncSkip { token_index, skipped } => {
                format!("{{\"type\":\"sync-skip\",\"token\":{token_index},\"skipped\":{skipped}}}")
            }
            TraceEvent::TokenInserted { token_index, ttype } => {
                format!("{{\"type\":\"token-inserted\",\"token\":{token_index},\"ttype\":{ttype}}}")
            }
            TraceEvent::TokenDeleted { token_index, ttype } => {
                format!("{{\"type\":\"token-deleted\",\"token\":{token_index},\"ttype\":{ttype}}}")
            }
        }
    }

    /// Parses a value produced by [`TraceEvent::to_json`].
    ///
    /// # Errors
    /// Returns a description when `value` is not a trace event.
    pub fn from_json(value: &Json) -> Result<TraceEvent, String> {
        let num = |name: &str| {
            value.get(name).and_then(Json::as_u64).ok_or_else(|| format!("missing field {name:?}"))
        };
        let flag = |name: &str| {
            value.get(name).and_then(Json::as_bool).ok_or_else(|| format!("missing field {name:?}"))
        };
        let token = || num("token").map(|n| n as usize);
        let memo = |kind_field: &Json| {
            kind_field
                .as_str()
                .and_then(MemoKind::from_name)
                .ok_or_else(|| format!("bad memo kind {kind_field}"))
        };
        match value.get("type").and_then(Json::as_str) {
            Some("rule-enter") => {
                Ok(TraceEvent::RuleEnter { rule: num("rule")? as u32, token_index: token()? })
            }
            Some("rule-exit") => Ok(TraceEvent::RuleExit {
                rule: num("rule")? as u32,
                token_index: token()?,
                alt: num("alt")? as u16,
                ok: flag("ok")?,
            }),
            Some("predict-start") => Ok(TraceEvent::PredictStart {
                decision: num("decision")? as u32,
                token_index: token()?,
            }),
            Some("predict-stop") => Ok(TraceEvent::PredictStop {
                decision: num("decision")? as u32,
                token_index: token()?,
                alt: num("alt")? as u16,
                lookahead: num("lookahead")?,
                path: value
                    .get("path")
                    .and_then(Json::as_array)
                    .ok_or("missing field \"path\"")?
                    .iter()
                    .map(|v| v.as_u64().map(|n| n as u32).ok_or("bad path entry".to_string()))
                    .collect::<Result<_, _>>()?,
                backtracked: flag("backtracked")?,
                spec_depth: num("spec_depth")?,
            }),
            Some("backtrack-enter") => Ok(TraceEvent::BacktrackEnter {
                synpred: num("synpred")? as u32,
                token_index: token()?,
                nesting: num("nesting")? as u32,
            }),
            Some("backtrack-exit") => Ok(TraceEvent::BacktrackExit {
                synpred: num("synpred")? as u32,
                token_index: token()?,
                matched: flag("matched")?,
                consumed: num("consumed")?,
                nesting: num("nesting")? as u32,
            }),
            Some("memo-hit") => Ok(TraceEvent::MemoHit {
                kind: memo(value.get("kind").ok_or("missing field \"kind\"")?)?,
                id: num("id")? as u32,
                token_index: token()?,
                success: flag("success")?,
            }),
            Some("memo-write") => Ok(TraceEvent::MemoWrite {
                kind: memo(value.get("kind").ok_or("missing field \"kind\"")?)?,
                id: num("id")? as u32,
                token_index: token()?,
                success: flag("success")?,
            }),
            Some("sempred") => Ok(TraceEvent::Sempred {
                pred: value
                    .get("pred")
                    .and_then(Json::as_str)
                    .ok_or("missing field \"pred\"")?
                    .to_string(),
                token_index: token()?,
                outcome: flag("outcome")?,
            }),
            Some("syntax-error") => Ok(TraceEvent::SyntaxError {
                token_index: token()?,
                speculating: flag("speculating")?,
            }),
            Some("recover") => {
                Ok(TraceEvent::Recover { token_index: token()?, rule: num("rule")? as u32 })
            }
            Some("sync-skip") => {
                Ok(TraceEvent::SyncSkip { token_index: token()?, skipped: num("skipped")? })
            }
            Some("token-inserted") => {
                Ok(TraceEvent::TokenInserted { token_index: token()?, ttype: num("ttype")? as u32 })
            }
            Some("token-deleted") => {
                Ok(TraceEvent::TokenDeleted { token_index: token()?, ttype: num("ttype")? as u32 })
            }
            Some(other) => Err(format!("unknown event type {other:?}")),
            None => Err("missing event type".into()),
        }
    }
}

/// A consumer of [`TraceEvent`]s. The parser calls [`TraceSink::event`]
/// synchronously; implementations should be cheap (buffer, don't block).
pub trait TraceSink {
    /// Consume one event.
    fn event(&mut self, event: &TraceEvent);

    /// Flush any buffered output.
    ///
    /// # Errors
    /// Propagates I/O errors from writer-backed sinks.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every event (tracing disabled).
#[derive(Debug, Default, Clone, Copy)]
pub struct NopSink;

impl TraceSink for NopSink {
    fn event(&mut self, _event: &TraceEvent) {}
}

/// An in-memory sink holding the most recent events (bounded), or every
/// event (unbounded).
#[derive(Debug, Default)]
pub struct RingSink {
    events: VecDeque<TraceEvent>,
    capacity: Option<usize>,
    seen: u64,
}

impl RingSink {
    /// A ring keeping the latest `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink { events: VecDeque::new(), capacity: Some(capacity), seen: 0 }
    }

    /// A sink that keeps every event.
    pub fn unbounded() -> Self {
        RingSink::default()
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter()
    }

    /// Total events received, including any evicted from the ring.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.seen - self.events.len() as u64
    }

    /// Consumes the sink, returning the buffered events oldest-first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_iter().collect()
    }
}

impl TraceSink for RingSink {
    fn event(&mut self, event: &TraceEvent) {
        self.seen += 1;
        if let Some(cap) = self.capacity {
            if cap == 0 {
                return;
            }
            if self.events.len() == cap {
                self.events.pop_front();
            }
        }
        self.events.push_back(event.clone());
    }
}

/// Streams events to a writer, one JSON object per line, preceded by a
/// `{"type":"schema","stream":"trace","version":…}` header line (written
/// lazily before the first event).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<io::Error>,
    headed: bool,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing JSONL to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink { out, error: None, headed: false }
    }

    /// Consumes the sink, returning the writer and the first write error
    /// encountered (if any; subsequent events are dropped after one).
    pub fn into_inner(self) -> (W, Option<io::Error>) {
        (self.out, self.error)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn event(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if !self.headed {
            self.headed = true;
            let header = schema::StreamKind::Trace.header_line();
            if let Err(e) = writeln!(self.out, "{header}") {
                self.error = Some(e);
                return;
            }
        }
        if let Err(e) = writeln!(self.out, "{}", event.to_json()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// 1-in-N trace sampling: forwards every `n`-th *top-level prediction
/// window* — a [`TraceEvent::PredictStart`] at speculation window depth
/// 0 through its matching [`TraceEvent::PredictStop`], including every
/// nested event in between — and drops the windows in between. Events
/// outside any prediction window (rule spans, recovery) always pass
/// through, so the sampled stream keeps its structural skeleton.
///
/// Sampling is counter-based, not random: the k-th top-level window is
/// kept iff `k % n == 0`, so a sampled stream for a given grammar +
/// input is as byte-deterministic as the full one, and `n = 1` is
/// byte-identical to the unsampled stream. This turns full tracing into
/// a dial (1/64 keeps the event stream's shape at ~1/64 the cost)
/// rather than the on/off cliff the always-on metrics substrate sits
/// beneath; see DESIGN.md's two-tier observability section.
///
/// Windows nest via the same pop-until-match discipline as the coverage
/// fold: a `PredictStop` closes stack entries down to its decision id,
/// so a top-level prediction abandoned by a no-viable error (which never
/// emits its stop) is closed by the next outer stop — until then its
/// dangling entry keeps the sink in that window's fate.
pub struct SamplingSink<'a> {
    inner: &'a mut dyn TraceSink,
    n: u64,
    windows: u64,
    /// Decision ids of the open prediction windows (outermost first).
    stack: Vec<u32>,
    /// Whether the current top-level window is forwarded.
    active: bool,
}

impl<'a> SamplingSink<'a> {
    /// Samples 1 in `n` top-level prediction windows into `inner`
    /// (`n = 0` is treated as 1: keep everything).
    pub fn new(inner: &'a mut dyn TraceSink, n: u64) -> Self {
        SamplingSink { inner, n: n.max(1), windows: 0, stack: Vec::new(), active: true }
    }

    /// Top-level prediction windows seen so far (kept and dropped).
    pub fn windows(&self) -> u64 {
        self.windows
    }
}

impl TraceSink for SamplingSink<'_> {
    fn event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::PredictStart { decision, .. } => {
                if self.stack.is_empty() {
                    self.active = self.windows.is_multiple_of(self.n);
                    self.windows += 1;
                }
                self.stack.push(*decision);
                if self.active {
                    self.inner.event(event);
                }
            }
            TraceEvent::PredictStop { decision, .. } => {
                // The stop belongs to the window it closes: decide
                // forwarding before popping.
                let forward = self.stack.is_empty() || self.active;
                if forward {
                    self.inner.event(event);
                }
                while let Some(top) = self.stack.pop() {
                    if top == *decision {
                        break;
                    }
                }
            }
            _ => {
                if self.stack.is_empty() || self.active {
                    self.inner.event(event);
                }
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Parses a JSONL event stream (as emitted by [`JsonlSink`]) back into
/// events; blank lines are skipped. A leading schema header line is
/// validated and consumed; headerless streams (pre-versioning exports,
/// in-memory dumps) are accepted as-is.
///
/// # Errors
/// Returns `(1-based line, description)` for the first malformed line,
/// including a header that names another stream or an unsupported
/// version.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, (usize, String)> {
    let mut events = Vec::new();
    let mut first = true;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| (i + 1, e))?;
        if std::mem::take(&mut first) && schema::parse_schema_header(&value).is_some() {
            schema::check_header(&value, schema::StreamKind::Trace).map_err(|e| (i + 1, e))?;
            continue;
        }
        events.push(TraceEvent::from_json(&value).map_err(|e| (i + 1, e))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RuleEnter { rule: 0, token_index: 0 },
            TraceEvent::RuleExit { rule: 0, token_index: 7, alt: 2, ok: true },
            TraceEvent::PredictStart { decision: 0, token_index: 0 },
            TraceEvent::PredictStop {
                decision: 0,
                token_index: 0,
                alt: 2,
                lookahead: 3,
                path: vec![0, 1, 4],
                backtracked: true,
                spec_depth: 3,
            },
            TraceEvent::BacktrackEnter { synpred: 1, token_index: 5, nesting: 0 },
            TraceEvent::BacktrackExit {
                synpred: 1,
                token_index: 5,
                matched: false,
                consumed: 4,
                nesting: 0,
            },
            TraceEvent::MemoHit { kind: MemoKind::Rule, id: 3, token_index: 6, success: true },
            TraceEvent::MemoWrite {
                kind: MemoKind::SynPred,
                id: 1,
                token_index: 5,
                success: false,
            },
            TraceEvent::Sempred { pred: "isTypeName".into(), token_index: 2, outcome: true },
            TraceEvent::SyntaxError { token_index: 9, speculating: true },
            TraceEvent::Recover { token_index: 9, rule: 2 },
            TraceEvent::SyncSkip { token_index: 9, skipped: 3 },
            TraceEvent::TokenInserted { token_index: 4, ttype: 7 },
            TraceEvent::TokenDeleted { token_index: 5, ttype: 8 },
        ]
    }

    #[test]
    fn events_round_trip_through_json() {
        for event in sample_events() {
            let line = event.to_json();
            let parsed = TraceEvent::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(parsed, event, "{line}");
            assert_eq!(parsed.to_json(), line, "re-serialization is byte-stable");
        }
    }

    #[test]
    fn jsonl_stream_round_trips() {
        let events = sample_events();
        let mut sink = JsonlSink::new(Vec::new());
        for e in &events {
            sink.event(e);
        }
        sink.flush().unwrap();
        let (bytes, error) = sink.into_inner();
        assert!(error.is_none());
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("{\"type\":\"schema\",\"stream\":\"trace\",\"version\":2}\n"),
            "{text}"
        );
        assert_eq!(parse_jsonl(&text).unwrap(), events);
        // Headerless streams stay parseable (pre-versioning exports).
        let (_, body) = text.split_once('\n').unwrap();
        assert_eq!(parse_jsonl(body).unwrap(), events);
    }

    #[test]
    fn parse_jsonl_rejects_mismatched_schema() {
        let (line, err) =
            parse_jsonl("{\"type\":\"schema\",\"stream\":\"trace\",\"version\":9}\n").unwrap_err();
        assert_eq!(line, 1);
        assert!(err.contains("version 9"), "{err}");
        let (_, err) =
            parse_jsonl("{\"type\":\"schema\",\"stream\":\"diagnostics\",\"version\":1}\n")
                .unwrap_err();
        assert!(err.contains("stream mismatch"), "{err}");
    }

    #[test]
    fn parse_jsonl_reports_the_bad_line() {
        let (line, _) = parse_jsonl(
            "{\"type\":\"syntax-error\",\"token\":1,\"speculating\":false}\nnot json\n",
        )
        .unwrap_err();
        assert_eq!(line, 2);
        let (line, _) = parse_jsonl("{\"type\":\"martian\"}").unwrap_err();
        assert_eq!(line, 1);
    }

    /// A stream with three top-level prediction windows (the second
    /// containing a nested prediction inside a backtrack) plus
    /// out-of-window structural events.
    fn windowed_events() -> Vec<TraceEvent> {
        let stop = |decision: u32| TraceEvent::PredictStop {
            decision,
            token_index: 0,
            alt: 1,
            lookahead: 1,
            path: vec![0],
            backtracked: false,
            spec_depth: 0,
        };
        vec![
            TraceEvent::RuleEnter { rule: 0, token_index: 0 },
            TraceEvent::PredictStart { decision: 0, token_index: 0 },
            stop(0),
            TraceEvent::PredictStart { decision: 1, token_index: 1 },
            TraceEvent::BacktrackEnter { synpred: 0, token_index: 1, nesting: 0 },
            TraceEvent::PredictStart { decision: 2, token_index: 1 },
            stop(2),
            TraceEvent::BacktrackExit {
                synpred: 0,
                token_index: 1,
                matched: true,
                consumed: 2,
                nesting: 0,
            },
            stop(1),
            TraceEvent::PredictStart { decision: 0, token_index: 3 },
            stop(0),
            TraceEvent::RuleExit { rule: 0, token_index: 4, alt: 1, ok: true },
        ]
    }

    #[test]
    fn sampling_one_in_one_is_byte_identical() {
        let mut full = RingSink::unbounded();
        let mut sampled_inner = RingSink::unbounded();
        {
            let mut sampled = SamplingSink::new(&mut sampled_inner, 1);
            for e in windowed_events() {
                full.event(&e);
                sampled.event(&e);
            }
            assert_eq!(sampled.windows(), 3);
        }
        assert_eq!(sampled_inner.into_events(), full.into_events());
    }

    #[test]
    fn sampling_keeps_whole_windows_and_skeleton() {
        let mut inner = RingSink::unbounded();
        {
            let mut sampled = SamplingSink::new(&mut inner, 2);
            for e in windowed_events() {
                sampled.event(&e);
            }
        }
        let kept = inner.into_events();
        // Windows 0 (decision 0) and 2 (decision 0 again) survive; window
        // 1 — including its nested decision-2 prediction — is dropped
        // whole. Out-of-window rule spans always pass.
        let kinds: Vec<String> = kept
            .iter()
            .map(|e| match e {
                TraceEvent::RuleEnter { .. } => "enter".into(),
                TraceEvent::RuleExit { .. } => "exit".into(),
                TraceEvent::PredictStart { decision, .. } => format!("start{decision}"),
                TraceEvent::PredictStop { decision, .. } => format!("stop{decision}"),
                other => panic!("unexpected sampled event {other:?}"),
            })
            .collect();
        assert_eq!(kinds, ["enter", "start0", "stop0", "start0", "stop0", "exit"]);
    }

    #[test]
    fn sampling_closes_abandoned_windows_on_outer_stop() {
        // A no-viable inner prediction never emits its stop; the outer
        // stop's pop-until-match must still close both entries so the
        // next window gets a fresh sampling decision.
        let mut inner = RingSink::unbounded();
        let mut sampled = SamplingSink::new(&mut inner, 2);
        sampled.event(&TraceEvent::PredictStart { decision: 0, token_index: 0 });
        sampled.event(&TraceEvent::PredictStart { decision: 1, token_index: 0 });
        sampled.event(&TraceEvent::PredictStop {
            decision: 0,
            token_index: 0,
            alt: 1,
            lookahead: 1,
            path: vec![],
            backtracked: false,
            spec_depth: 0,
        });
        assert!(sampled.stack.is_empty(), "outer stop closes the dangling inner entry");
        sampled.event(&TraceEvent::PredictStart { decision: 2, token_index: 1 });
        assert_eq!(sampled.windows(), 2);
    }

    #[test]
    fn ring_sink_bounds_and_counts() {
        let mut sink = RingSink::new(2);
        for e in sample_events() {
            sink.event(&e);
        }
        assert_eq!(sink.seen(), 14);
        assert_eq!(sink.events().count(), 2);
        assert_eq!(sink.dropped(), 12);
        let kept = sink.into_events();
        assert!(matches!(kept[1], TraceEvent::TokenDeleted { .. }), "{kept:?}");

        let mut all = RingSink::unbounded();
        for e in sample_events() {
            all.event(&e);
        }
        assert_eq!(all.dropped(), 0);
        assert_eq!(all.into_events(), sample_events());
    }
}
