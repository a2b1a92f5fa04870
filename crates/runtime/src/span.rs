//! Request-scoped hierarchical spans: a cheap fold over the
//! [`TraceEvent`] stream that reconstructs the parse as a tree of
//! nested spans — parse → per-rule → per-decision → speculative
//! sub-parse — with memo/error/fuel annotations attached to the
//! innermost enclosing span.
//!
//! The fold is deliberately timestamp-free: span extents are token
//! indices, so a [`SpanTree`] is **byte-deterministic** for a given
//! grammar + input, independent of wall-clock, worker count, or
//! machine. Wall-clock belongs in the capture envelope around a tree
//! (see `crates/serve`), never inside it.
//!
//! Three consumers share this module:
//!
//! * [`crate::Parser`] owns an optional [`SpanRecorder`] and feeds it
//!   from [`Parser::emit`], which builds events only while a recorder
//!   or a trace sink is attached, and with packed rule spans and leaf
//!   predictions straight from the parse — enable with
//!   [`Parser::enable_span_recording`], harvest with
//!   [`Parser::span_tree`].
//! * `llstar serve` persists a schema-versioned exemplar capture of a
//!   request's tree when the request is slow, errors, or trips its
//!   budget.
//! * `llstar spans` renders a tree as a text timeline/flamegraph or a
//!   Chrome `trace_event` document ([`SpanTree::to_chrome_trace`], the
//!   one Chrome exporter: `llstar coverage --chrome-trace` folds its
//!   event stream into a tree the same way, [`SpanTree::from_trace`]).
//!
//! The module also hosts the W3C `traceparent` helpers used by the
//! serve transports: lenient parsing (garbage never faults a request)
//! and deterministic FNV-1a trace-id derivation so the same request
//! gets the same id regardless of which worker ran it.
//!
//! [`Parser::emit`]: crate::Parser
//! [`Parser::enable_span_recording`]: crate::Parser::enable_span_recording
//! [`Parser::span_tree`]: crate::Parser::span_tree

use crate::trace::TraceEvent;
use llstar_core::json::{quote, Json};
use llstar_core::schema::SPANS_STREAM_VERSION;
use llstar_core::GrammarAnalysis;
use llstar_grammar::Grammar;
use std::fmt::Write as _;

/// Arena cap for one recorded parse: past this many nodes the recorder
/// keeps matching open/close events on a virtual stack but stops
/// materializing nodes (the tree is marked `truncated`). 64 Ki nodes ×
/// ~136 bytes ≈ 9 MB, plus the deferred record buffer's ~8 MB ceiling
/// (see `LOG_FACTOR`) — bounded per worker even for pathological
/// inputs.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole parse (the synthetic root, node 0).
    Parse,
    /// One rule invocation (`id` = rule index).
    Rule,
    /// One prediction (`id` = decision index).
    Predict,
    /// One speculative sub-parse (`id` = syntactic predicate index).
    Backtrack,
}

impl SpanKind {
    /// The wire name (`parse` / `rule` / `predict` / `backtrack`).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Parse => "parse",
            SpanKind::Rule => "rule",
            SpanKind::Predict => "predict",
            SpanKind::Backtrack => "backtrack",
        }
    }

    fn from_name(name: &str) -> Option<SpanKind> {
        Some(match name {
            "parse" => SpanKind::Parse,
            "rule" => SpanKind::Rule,
            "predict" => SpanKind::Predict,
            "backtrack" => SpanKind::Backtrack,
            _ => return None,
        })
    }
}

/// Instant-event tallies attached to the innermost open span. Only
/// non-zero fields are serialized, so quiet spans stay one short line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCounters {
    /// Packrat memo-table hits.
    pub memo_hits: u64,
    /// Packrat memo-table entries written.
    pub memo_writes: u64,
    /// Syntax errors observed.
    pub errors: u64,
    /// Error-recovery engagements.
    pub recovers: u64,
    /// Tokens skipped by sync-and-return resynchronization.
    pub skipped: u64,
    /// Tokens inserted by single-token recovery.
    pub inserted: u64,
    /// Tokens deleted by single-token recovery.
    pub deleted: u64,
    /// Semantic predicates evaluated.
    pub sempreds: u64,
}

impl SpanCounters {
    /// The non-zero tallies by wire name, in serialization order.
    pub fn nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("memo-hits", self.memo_hits),
            ("memo-writes", self.memo_writes),
            ("errors", self.errors),
            ("recovers", self.recovers),
            ("skipped", self.skipped),
            ("inserted", self.inserted),
            ("deleted", self.deleted),
            ("sempreds", self.sempreds),
        ]
        .into_iter()
        .filter(|&(_, value)| value != 0)
    }
}

/// One span. Nodes live in a flat arena ([`SpanTree::nodes`]) in
/// depth-first open order; `parent` indexes into the same arena (the
/// root is node 0 and is its own parent). Extents are token indices:
/// `[start, end)` in the request's token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// What this span covers.
    pub kind: SpanKind,
    /// Rule / decision / synpred index (0 for the root).
    pub id: u32,
    /// Arena index of the enclosing span (root: 0).
    pub parent: usize,
    /// First token index covered.
    pub start: u64,
    /// One past the last token index covered.
    pub end: u64,
    /// Chosen alternative (rule and predict spans).
    pub alt: u16,
    /// Whether the span completed successfully.
    pub ok: bool,
    /// Effective lookahead depth (predict spans).
    pub lookahead: u64,
    /// Deepest speculation token count (predict spans).
    pub spec_depth: u64,
    /// Whether the prediction fell over to backtracking.
    pub backtracked: bool,
    /// Whether the speculative sub-parse matched (backtrack spans).
    pub matched: bool,
    /// Tokens consumed speculatively (backtrack spans).
    pub consumed: u64,
    /// Closed synthetically (failed prediction, truncated stream, or
    /// pop-until-match unwinding) rather than by its own close event.
    pub synthetic: bool,
    /// Instant-event tallies scoped to this span.
    pub counters: SpanCounters,
}

impl SpanNode {
    fn open(kind: SpanKind, id: u32, parent: usize, start: u64) -> SpanNode {
        SpanNode {
            kind,
            id,
            parent,
            start,
            end: start,
            alt: 0,
            ok: true,
            lookahead: 0,
            spec_depth: 0,
            backtracked: false,
            matched: false,
            consumed: 0,
            synthetic: false,
            counters: SpanCounters::default(),
        }
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"kind\":{},\"id\":{},\"parent\":{},\"start\":{},\"end\":{}",
            quote(self.kind.name()),
            self.id,
            self.parent,
            self.start,
            self.end
        );
        match self.kind {
            SpanKind::Parse => {}
            SpanKind::Rule => {
                let _ = write!(out, ",\"alt\":{},\"ok\":{}", self.alt, self.ok);
            }
            SpanKind::Predict => {
                let _ = write!(
                    out,
                    ",\"alt\":{},\"lookahead\":{},\"spec-depth\":{},\"backtracked\":{},\"ok\":{}",
                    self.alt, self.lookahead, self.spec_depth, self.backtracked, self.ok
                );
            }
            SpanKind::Backtrack => {
                let _ = write!(out, ",\"matched\":{},\"consumed\":{}", self.matched, self.consumed);
            }
        }
        if self.synthetic {
            out.push_str(",\"synthetic\":true");
        }
        for (key, value) in self.counters.nonzero() {
            let _ = write!(out, ",\"{key}\":{value}");
        }
        out.push('}');
        out
    }

    fn from_json(value: &Json) -> Result<SpanNode, String> {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .and_then(SpanKind::from_name)
            .ok_or("span node has no valid \"kind\"")?;
        let u = |k: &str| value.get(k).and_then(Json::as_u64).unwrap_or(0);
        let b = |k: &str| value.get(k).and_then(Json::as_bool).unwrap_or(false);
        let mut node = SpanNode::open(kind, u("id") as u32, u("parent") as usize, u("start"));
        node.end = u("end");
        node.alt = u("alt") as u16;
        node.ok = value.get("ok").and_then(Json::as_bool).unwrap_or(true);
        node.lookahead = u("lookahead");
        node.spec_depth = u("spec-depth");
        node.backtracked = b("backtracked");
        node.matched = b("matched");
        node.consumed = u("consumed");
        node.synthetic = b("synthetic");
        node.counters = SpanCounters {
            memo_hits: u("memo-hits"),
            memo_writes: u("memo-writes"),
            errors: u("errors"),
            recovers: u("recovers"),
            skipped: u("skipped"),
            inserted: u("inserted"),
            deleted: u("deleted"),
            sempreds: u("sempreds"),
        };
        Ok(node)
    }
}

/// An entry on the fold's open-span stack. `node: None` marks a
/// *virtual* open — the arena was full, so no node was materialized,
/// but the entry still participates in pop-until-match so later closes
/// resolve against the right spans.
struct OpenSpan {
    key: (SpanKind, u32),
    node: Option<usize>,
}

/// Buffered-record opcodes (see [`LogRec`]). Ops with an `At` suffix
/// carry only an end position — the [`SpanRecorder::apply_named`]
/// bridge, which has no event payload to forward.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    RuleEnter,
    RuleExit,
    PredictStart,
    PredictStop,
    /// A `PredictStart` and its `PredictStop` with nothing between.
    PredictLeaf,
    /// [`Op::PredictLeaf`] packed into one word
    /// ([`SpanRecorder::predict_leaf`]).
    LeafWord,
    PredictStopAt,
    BtEnter,
    BtExit,
    BtExitAt,
    MemoHit,
    MemoWrite,
    Sempred,
    Error,
    Recover,
    SyncSkip,
    Inserted,
    Deleted,
    /// Advance `max_token` only (unknown named kinds).
    Touch,
    /// A parser rule's enter and exit in one record, logged at exit
    /// ([`RuleSpan`]).
    RuleSpan,
}

impl Op {
    /// Every op, indexed by its discriminant (decodes [`LogRec::unpack`]).
    const ALL: [Op; 20] = [
        Op::RuleEnter,
        Op::RuleExit,
        Op::PredictStart,
        Op::PredictStop,
        Op::PredictLeaf,
        Op::LeafWord,
        Op::PredictStopAt,
        Op::BtEnter,
        Op::BtExit,
        Op::BtExitAt,
        Op::MemoHit,
        Op::MemoWrite,
        Op::Sempred,
        Op::Error,
        Op::Recover,
        Op::SyncSkip,
        Op::Inserted,
        Op::Deleted,
        Op::Touch,
        Op::RuleSpan,
    ];

    /// The op of a logged record's first word. Ops fit in five bits,
    /// below [`Op::LeafWord`]'s packed fields.
    fn of(head: u64) -> Op {
        Op::ALL[(head & 0x1F) as usize]
    }

    /// Log words a record with this op takes.
    fn words(self) -> usize {
        match self {
            Op::LeafWord => 1,
            Op::RuleSpan => 3,
            _ => 2,
        }
    }
}

/// One buffered fold input. Recording must cost a few nanoseconds per
/// event — the serve gate holds span recording to ≤ 5% per-request
/// overhead — so [`SpanRecorder::apply`] only appends these records,
/// packed into two machine words ([`LogRec::pack`]); the arena fold
/// runs lazily at [`SpanRecorder::tree`] time. Positions and extents
/// saturate at `u32::MAX` tokens. The parser's rule spans are packed
/// differently ([`RuleSpan`]).
#[derive(Clone, Copy)]
struct LogRec {
    op: Op,
    /// `ok` / `matched` / `backtracked`, depending on `op`.
    flag: bool,
    /// Chosen alternative (rule/predict closes).
    alt: u16,
    /// Rule / decision / synpred index.
    id: u32,
    /// Token position (start or end, depending on `op`).
    a: u32,
    /// Lookahead / consumed / skipped, depending on `op`. Predict
    /// closes pack the speculation depth (saturated at 255) into the
    /// high byte and the lookahead (saturated at 2^24 − 1) below it.
    b: u32,
}

/// Saturating lookahead for the packed predict-close payload.
const LOOKAHEAD_MASK: u32 = 0x00FF_FFFF;

#[inline]
fn sat(v: u64) -> u32 {
    v.min(u32::MAX as u64) as u32
}

/// The deferred arena fold: consumes [`LogRec`]s, produces the node
/// arena. The close discipline mirrors the chrome exporter: a close
/// with no matching open is dropped, and closing a span synthetically
/// closes anything opened after it (failed predictions emit no
/// `predict-stop`, so ill-nesting is normal, not exceptional).
struct Fold {
    nodes: Vec<SpanNode>,
    stack: Vec<OpenSpan>,
    capacity: usize,
    dropped: u64,
    max_token: u64,
}

/// Records a [`TraceEvent`] stream for span reconstruction. `apply` is
/// the per-event hot path — a bounded buffer append, cheap enough to
/// leave enabled on every parse — while the fold into a span arena is
/// deferred to [`SpanRecorder::tree`]. The buffer is capped at
/// `LOG_FACTOR` records per arena slot; events past the cap are
/// dropped (counted, and the tree is marked truncated), which bounds
/// both memory and harvest time for pathological inputs.
pub struct SpanRecorder {
    /// Packed records of one to three words: [`LogRec::pack`],
    /// [`Op::LeafWord`] and [`RuleSpan`].
    log: Vec<u64>,
    /// Events the fold may still take: `LOG_FACTOR` per arena slot,
    /// less what earlier flushes folded. A record stands for one or two
    /// events (a leaf prediction or a rule span two), and
    /// [`SpanRecorder::flush`] folds exactly the events that fit, in
    /// event order, so the cap cuts the stream where an event-by-event
    /// log would.
    log_capacity: usize,
    /// Words the log may hold: two per event the fold may take, the
    /// most any record spends per event, so a record the log has no
    /// room for comes after the cap in event order.
    log_words: usize,
    /// Events past the cap.
    log_dropped: u64,
    /// Speculation nesting. Events inside a speculative sub-parse are
    /// suppressed: the sub-parse is represented by its backtrack span
    /// alone (plus `spec-depth`/`backtracked` on the prediction that
    /// triggered it), and the committed re-parse that follows records
    /// the real structure. Backtracking grammars otherwise emit an
    /// order of magnitude more events than tokens, which would blow
    /// the recording budget and the buffer cap for no reader value.
    bt_depth: u32,
    fold: Fold,
}

/// Buffered events allowed per arena node slot. Opens are roughly
/// 40% of a trace, so 8× leaves headroom for tallies and the closes of
/// dropped opens: 64 Ki nodes → 512 Ki events in at most 1 Mi log
/// words ≈ 8 MB ceiling.
const LOG_FACTOR: usize = 8;

impl SpanRecorder {
    /// A recorder with the default arena cap.
    pub fn new() -> SpanRecorder {
        SpanRecorder::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A recorder retaining at most `capacity` nodes (≥ 1; the root
    /// always exists). Spans past the cap are counted in `dropped` and
    /// the resulting tree is marked truncated.
    pub fn with_capacity(capacity: usize) -> SpanRecorder {
        let capacity = capacity.max(1);
        let mut fold =
            Fold { nodes: Vec::new(), stack: Vec::new(), capacity, dropped: 0, max_token: 0 };
        fold.nodes.push(SpanNode::open(SpanKind::Parse, 0, 0, 0));
        SpanRecorder {
            log: Vec::new(),
            log_capacity: capacity.saturating_mul(LOG_FACTOR),
            log_words: capacity.saturating_mul(LOG_FACTOR).saturating_mul(2),
            log_dropped: 0,
            bt_depth: 0,
            fold,
        }
    }

    /// Rearms for a fresh parse, keeping allocations warm.
    pub fn clear(&mut self) {
        self.log.clear();
        self.log_capacity = self.fold.capacity.saturating_mul(LOG_FACTOR);
        self.log_words = self.log_capacity.saturating_mul(2);
        self.log_dropped = 0;
        self.bt_depth = 0;
        self.fold.nodes.clear();
        self.fold.nodes.push(SpanNode::open(SpanKind::Parse, 0, 0, 0));
        self.fold.stack.clear();
        self.fold.dropped = 0;
        self.fold.max_token = 0;
    }

    /// Replays the buffered records through the fold in event order.
    /// A rule span, logged when its rule exited, opens before the
    /// record the log had reached when the rule was entered; rules
    /// entered at the same point open outermost first, that is, in
    /// reverse order of exit. Only the first `log_capacity` events are
    /// folded; the rest count as dropped.
    fn flush(&mut self) {
        let log = std::mem::take(&mut self.log);
        let mut opens = Vec::new();
        let mut at = 0;
        while at < log.len() {
            if let Some(span) = RuleSpan::unpack(&log[at..]) {
                opens.push((at - span.inner, std::cmp::Reverse(at)));
            }
            at += Op::of(log[at]).words();
        }
        opens.sort_unstable();
        let mut opens = opens.into_iter().peekable();
        let mut at = 0;
        while at < log.len() {
            while let Some((_, std::cmp::Reverse(exit))) = opens.next_if(|&(mark, _)| mark <= at) {
                let span = RuleSpan::unpack(&log[exit..]).expect("opens index rule spans");
                if self.admit(1) == 1 {
                    self.fold.step(LogRec::at(Op::RuleEnter, span.rule, span.start));
                }
            }
            let op = Op::of(log[at]);
            match op {
                Op::RuleSpan => {
                    let span = RuleSpan::unpack(&log[at..]).expect("a rule span");
                    if self.admit(1) == 1 {
                        let exit = LogRec::at(Op::RuleExit, span.rule, span.end);
                        self.fold.step(LogRec { flag: span.ok, alt: span.alt, ..exit });
                    }
                }
                Op::LeafWord | Op::PredictLeaf => {
                    let rec = match op {
                        Op::LeafWord => LogRec::unpack_leaf(log[at]),
                        _ => LogRec::unpack([log[at], log[at + 1]]),
                    };
                    match self.admit(2) {
                        2 => self.fold.step(rec),
                        // Room for the start only.
                        1 => self.fold.step(LogRec { op: Op::PredictStart, alt: 0, b: 0, ..rec }),
                        _ => {}
                    }
                }
                _ => {
                    if self.admit(1) == 1 {
                        self.fold.step(LogRec::unpack([log[at], log[at + 1]]));
                    }
                }
            }
            at += op.words();
        }
        self.log = log;
        self.log.clear();
        self.log_words = self.log_capacity.saturating_mul(2);
    }

    /// Takes up to `events` from the event budget; returns how many fit
    /// and counts the rest as dropped.
    fn admit(&mut self, events: usize) -> usize {
        let fit = events.min(self.log_capacity);
        self.log_capacity -= fit;
        self.log_dropped += (events - fit) as u64;
        fit
    }

    /// Materialized nodes so far (including the root); folds pending
    /// records first.
    pub fn len(&mut self) -> usize {
        self.flush();
        self.fold.nodes.len()
    }

    /// True when only the synthetic root exists.
    pub fn is_empty(&mut self) -> bool {
        self.len() <= 1
    }

    /// Spans that exceeded the arena cap plus records that exceeded
    /// the buffer cap.
    pub fn dropped(&mut self) -> u64 {
        self.flush();
        self.fold.dropped + self.log_dropped
    }

    #[inline]
    fn push(&mut self, rec: LogRec) {
        if self.log.len() < self.log_words {
            self.log.extend_from_slice(&rec.pack());
        } else {
            self.log_dropped += 1;
        }
    }
}

impl Fold {
    fn innermost(&self) -> usize {
        self.stack.iter().rev().find_map(|o| o.node).unwrap_or(0)
    }

    fn open(&mut self, kind: SpanKind, id: u32, start: u64) {
        let node = if self.nodes.len() < self.capacity {
            let idx = self.nodes.len();
            self.nodes.push(SpanNode::open(kind, id, self.innermost(), start));
            Some(idx)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(OpenSpan { key: (kind, id), node });
    }

    /// Pop-until-match: unmatched opens above the target close
    /// synthetically at `pos`; a close with no open match is dropped.
    /// The match is located top-down — in the well-nested common case
    /// that is a single comparison against the top of the stack, which
    /// keeps the fold O(1) per event regardless of rule-stack depth.
    fn close(&mut self, key: (SpanKind, u32), pos: u64, apply: impl FnOnce(&mut SpanNode)) {
        let Some(target) = self.stack.iter().rposition(|o| o.key == key) else {
            return;
        };
        while self.stack.len() > target + 1 {
            let open = self.stack.pop().expect("entries above target");
            if let Some(idx) = open.node {
                let node = &mut self.nodes[idx];
                node.synthetic = true;
                node.end = node.end.max(node.start.max(pos.min(self.max_token)));
            }
        }
        let open = self.stack.pop().expect("target entry");
        if let Some(idx) = open.node {
            apply(&mut self.nodes[idx]);
        }
    }

    fn tally(&mut self, pos: u64, bump: impl FnOnce(&mut SpanCounters)) {
        self.max_token = self.max_token.max(pos);
        let idx = self.innermost();
        bump(&mut self.nodes[idx].counters);
    }

    /// Folds one buffered record into the arena.
    fn step(&mut self, rec: LogRec) {
        let pos = rec.a as u64;
        self.max_token = self.max_token.max(pos);
        match rec.op {
            Op::RuleEnter => self.open(SpanKind::Rule, rec.id, pos),
            Op::RuleExit => {
                let (alt, ok) = (rec.alt, rec.flag);
                self.close((SpanKind::Rule, rec.id), pos, |n| {
                    n.end = n.end.max(pos);
                    n.alt = alt;
                    n.ok = ok;
                });
            }
            Op::PredictStart => self.open(SpanKind::Predict, rec.id, pos),
            Op::PredictLeaf => {
                self.step(LogRec { op: Op::PredictStart, alt: 0, b: 0, ..rec });
                self.step(LogRec { op: Op::PredictStop, ..rec });
            }
            Op::PredictStop => {
                // `a` is the *start* index; the span extends over the
                // effective lookahead (unpacked from `b`'s low bits —
                // the speculation depth rides in the high byte).
                let (alt, lookahead, backtracked, spec_depth) =
                    (rec.alt, (rec.b & LOOKAHEAD_MASK) as u64, rec.flag, (rec.b >> 24) as u64);
                let end = pos + lookahead;
                self.max_token = self.max_token.max(end);
                self.close((SpanKind::Predict, rec.id), end, |n| {
                    n.end = n.end.max(end);
                    n.alt = alt;
                    n.lookahead = lookahead;
                    n.backtracked = backtracked;
                    n.spec_depth = spec_depth;
                    n.ok = true;
                });
            }
            Op::PredictStopAt => {
                // Named bridge: no lookahead payload, so the extent is
                // the post-decision position.
                self.close((SpanKind::Predict, rec.id), pos, |n| {
                    n.end = n.end.max(pos);
                    n.lookahead = (pos.max(n.start) - n.start).max(1);
                    n.ok = true;
                });
            }
            Op::BtEnter => self.open(SpanKind::Backtrack, rec.id, pos),
            Op::BtExit => {
                // The stream rewinds after speculation, so the exit
                // index may equal the start; the span covers what the
                // speculative sub-parse actually consumed.
                let (matched, consumed) = (rec.flag, rec.b as u64);
                self.close((SpanKind::Backtrack, rec.id), pos, |n| {
                    n.end = n.end.max(n.start + consumed).max(pos);
                    n.matched = matched;
                    n.consumed = consumed;
                    n.ok = matched;
                });
            }
            Op::BtExitAt => {
                self.close((SpanKind::Backtrack, rec.id), pos, |n| {
                    n.end = n.end.max(pos);
                    n.consumed = pos.max(n.start) - n.start;
                    n.matched = true;
                    n.ok = true;
                });
            }
            Op::MemoHit => self.tally(pos, |c| c.memo_hits += 1),
            Op::MemoWrite => self.tally(pos, |c| c.memo_writes += 1),
            Op::Sempred => self.tally(pos, |c| c.sempreds += 1),
            Op::Error => self.tally(pos, |c| c.errors += 1),
            Op::Recover => self.tally(pos, |c| c.recovers += 1),
            Op::SyncSkip => {
                let skipped = rec.b as u64;
                self.tally(pos, |c| c.skipped += skipped);
            }
            Op::Inserted => self.tally(pos, |c| c.inserted += 1),
            Op::Deleted => self.tally(pos, |c| c.deleted += 1),
            Op::Touch => {}
            Op::LeafWord | Op::RuleSpan => {
                unreachable!("flush decodes packed records")
            }
        }
    }
}

impl SpanRecorder {
    /// Records one runtime event: a buffer append, no fold (see
    /// [`SpanRecorder::tree`]). Backtrack events maintain the
    /// speculation depth; everything inside a speculative sub-parse is
    /// suppressed (see the `bt_depth` field).
    ///
    /// Always inlined: at each `Parser::emit` site the event kind is a
    /// constant, so the match folds to the one record push. Called out
    /// of line, every recorded event is built on the stack and matched
    /// again; on the smoke corpus (2-core x86-64 host) that moved the
    /// `spans_overhead` gate statistic from ~1.7% to ~4.7% of its 5%
    /// budget.
    #[inline(always)]
    pub fn apply(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::BacktrackEnter { synpred, token_index, .. } => {
                if self.bt_depth == 0 {
                    self.push(LogRec::at(Op::BtEnter, *synpred, sat(*token_index as u64)));
                }
                self.bt_depth += 1;
                return;
            }
            TraceEvent::BacktrackExit { synpred, token_index, matched, consumed, .. } => {
                self.bt_depth = self.bt_depth.saturating_sub(1);
                if self.bt_depth == 0 {
                    self.push(LogRec {
                        flag: *matched,
                        b: sat(*consumed),
                        ..LogRec::at(Op::BtExit, *synpred, sat(*token_index as u64))
                    });
                }
                return;
            }
            _ => {}
        }
        if self.bt_depth > 0 {
            return;
        }
        let rec = match event {
            TraceEvent::RuleEnter { rule, token_index } => {
                LogRec::at(Op::RuleEnter, *rule, sat(*token_index as u64))
            }
            TraceEvent::RuleExit { rule, token_index, alt, ok } => LogRec {
                flag: *ok,
                alt: *alt,
                ..LogRec::at(Op::RuleExit, *rule, sat(*token_index as u64))
            },
            TraceEvent::PredictStart { decision, token_index } => {
                LogRec::at(Op::PredictStart, *decision, sat(*token_index as u64))
            }
            TraceEvent::PredictStop {
                decision,
                token_index,
                alt,
                lookahead,
                backtracked,
                spec_depth,
                ..
            } => LogRec {
                flag: *backtracked,
                alt: *alt,
                b: sat(*lookahead).min(LOOKAHEAD_MASK) | (sat(*spec_depth).min(0xFF) << 24),
                ..LogRec::at(Op::PredictStop, *decision, sat(*token_index as u64))
            },
            TraceEvent::BacktrackEnter { .. } | TraceEvent::BacktrackExit { .. } => {
                unreachable!("handled above")
            }
            TraceEvent::MemoHit { token_index, .. } => {
                LogRec::at(Op::MemoHit, 0, sat(*token_index as u64))
            }
            TraceEvent::MemoWrite { token_index, .. } => {
                LogRec::at(Op::MemoWrite, 0, sat(*token_index as u64))
            }
            TraceEvent::Sempred { token_index, .. } => {
                LogRec::at(Op::Sempred, 0, sat(*token_index as u64))
            }
            TraceEvent::SyntaxError { token_index, .. } => {
                LogRec::at(Op::Error, 0, sat(*token_index as u64))
            }
            TraceEvent::Recover { token_index, .. } => {
                LogRec::at(Op::Recover, 0, sat(*token_index as u64))
            }
            TraceEvent::SyncSkip { token_index, skipped } => LogRec {
                b: sat(*skipped),
                ..LogRec::at(Op::SyncSkip, 0, sat(*token_index as u64 + *skipped))
            },
            TraceEvent::TokenInserted { token_index, .. } => {
                LogRec::at(Op::Inserted, 0, sat(*token_index as u64))
            }
            TraceEvent::TokenDeleted { token_index, .. } => {
                LogRec::at(Op::Deleted, 0, sat(*token_index as u64))
            }
        };
        self.push(rec);
    }

    /// Records a prediction that evaluated no predicate, exactly as
    /// `apply` records its `PredictStart` followed directly by its
    /// `PredictStop` (not backtracked, no speculation), in one record.
    #[inline(always)]
    pub(crate) fn predict_leaf(
        &mut self,
        decision: u32,
        token_index: usize,
        alt: u16,
        lookahead: u64,
    ) {
        if self.bt_depth > 0 {
            return;
        }
        if self.log.len() >= self.log_words {
            self.log_dropped += 2;
            return;
        }
        let (pos, b) = (sat(token_index as u64), sat(lookahead).min(LOOKAHEAD_MASK));
        if alt < 1 << 8 && decision < 1 << 13 && b < 1 << 6 {
            self.log.push(
                Op::LeafWord as u64
                    | u64::from(alt) << 5
                    | u64::from(decision) << 13
                    | u64::from(b) << 26
                    | u64::from(pos) << 32,
            );
        } else {
            let rec = LogRec { alt, b, ..LogRec::at(Op::PredictLeaf, decision, pos) };
            self.log.extend_from_slice(&rec.pack());
        }
    }

    /// Where the log stands as a parser rule is entered; hand it back
    /// to [`SpanRecorder::rule_exit`]. Logs nothing: the entry is
    /// recorded with the exit.
    #[inline(always)]
    pub(crate) fn rule_enter(&self) -> usize {
        self.log.len()
    }

    /// Records a parser rule's `RuleEnter` and `RuleExit` events as
    /// one record: the fold places the entry back at `mark`, the log
    /// position [`SpanRecorder::rule_enter`] returned, so the tree is
    /// the one the two events give: one append per rule instead of
    /// two, and the appends are what recording costs the parse.
    ///
    /// A rule entered before the log filled up is logged even past the
    /// cap, since its entry may still fit; at most one record per rule
    /// open when the log filled.
    #[inline(always)]
    pub(crate) fn rule_exit(
        &mut self,
        mark: usize,
        rule: u32,
        start: usize,
        end: usize,
        alt: u16,
        ok: bool,
    ) {
        if self.bt_depth > 0 {
            return;
        }
        if mark >= self.log_words {
            self.log_dropped += 2;
            return;
        }
        let head = LogRec { flag: ok, alt, ..LogRec::at(Op::RuleSpan, rule, 0) }.pack()[0];
        let extent = u64::from(sat(start as u64)) | u64::from(sat(end as u64)) << 32;
        let inner = (self.log.len() - mark) as u64;
        self.log.extend_from_slice(&[head, extent, inner]);
    }

    /// Bridge for generated parsers, whose trace hook reports
    /// string-keyed `(kind, id, pos)` triples instead of full
    /// [`TraceEvent`]s (see the `trace` codegen option). Rule extents
    /// and outcomes map exactly; prediction spans lack a lookahead
    /// depth, so their extent is the post-decision position. Unknown
    /// kinds are ignored — forward compatibility over strictness.
    /// Speculation is suppressed exactly like [`SpanRecorder::apply`]:
    /// a speculative sub-parse is its backtrack span, nothing inside.
    pub fn apply_named(&mut self, kind: &str, id: u32, pos: usize) {
        let pos = sat(pos as u64);
        match kind {
            "backtrack-enter" => {
                if self.bt_depth == 0 {
                    self.push(LogRec::at(Op::BtEnter, id, pos));
                }
                self.bt_depth += 1;
                return;
            }
            "backtrack-exit" => {
                self.bt_depth = self.bt_depth.saturating_sub(1);
                if self.bt_depth == 0 {
                    self.push(LogRec::at(Op::BtExitAt, id, pos));
                }
                return;
            }
            _ => {}
        }
        if self.bt_depth > 0 {
            return;
        }
        let rec = match kind {
            "rule-enter" => LogRec::at(Op::RuleEnter, id, pos),
            "rule-exit" => LogRec { flag: true, ..LogRec::at(Op::RuleExit, id, pos) },
            "rule-fail" => LogRec::at(Op::RuleExit, id, pos),
            "predict-start" => LogRec::at(Op::PredictStart, id, pos),
            "predict-stop" => LogRec::at(Op::PredictStopAt, id, pos),
            "memo-hit" => LogRec::at(Op::MemoHit, 0, pos),
            "syntax-error" => LogRec::at(Op::Error, 0, pos),
            "recover" => LogRec::at(Op::Recover, 0, pos),
            "sync-skip" => LogRec { b: id, ..LogRec::at(Op::SyncSkip, 0, pos) },
            "token-inserted" => LogRec::at(Op::Inserted, 0, pos),
            "token-deleted" => LogRec::at(Op::Deleted, 0, pos),
            _ => LogRec::at(Op::Touch, 0, pos),
        };
        self.push(rec);
    }

    /// Folds any buffered records, closes anything still open (failed
    /// predictions, truncated streams) synthetically, extends the root
    /// over the whole token range, then snapshots the arena into a
    /// [`SpanTree`]. `rules` and `decisions` are display-name tables
    /// (rule index → name, decision index → owning-rule name); pass
    /// empty vectors when no grammar is at hand and the renderer falls
    /// back to `rule{id}` / `d{id}` labels.
    pub fn tree(&mut self, rules: Vec<String>, decisions: Vec<String>) -> SpanTree {
        self.flush();
        let fold = &mut self.fold;
        let max_token = fold.max_token;
        while let Some(open) = fold.stack.pop() {
            if let Some(idx) = open.node {
                let node = &mut fold.nodes[idx];
                node.synthetic = true;
                node.end = node.end.max(node.start).max(max_token);
            }
        }
        fold.nodes[0].end = max_token;
        let dropped = fold.dropped + self.log_dropped;
        SpanTree { rules, decisions, truncated: dropped > 0, dropped, nodes: fold.nodes.clone() }
    }
}

/// A parser rule span as logged by [`SpanRecorder::rule_exit`], three
/// words: a [`LogRec`] head (op, `ok`, `alt`, rule), `start | end << 32`,
/// and `inner`.
struct RuleSpan {
    rule: u32,
    alt: u16,
    ok: bool,
    start: u32,
    end: u32,
    /// Log words between the rule's entry and this record.
    inner: usize,
}

impl RuleSpan {
    /// The rule span at the start of `words`, or `None` for any other
    /// record.
    fn unpack(words: &[u64]) -> Option<RuleSpan> {
        if Op::of(words[0]) != Op::RuleSpan {
            return None;
        }
        let head = LogRec::unpack([words[0], 0]);
        let (start, end) = (words[1] as u32, (words[1] >> 32) as u32);
        Some(RuleSpan {
            rule: head.id,
            alt: head.alt,
            ok: head.flag,
            start,
            end,
            inner: words[2] as usize,
        })
    }
}

impl LogRec {
    /// The two words a record is logged as. Composed in registers and
    /// stored whole, a record costs about a nanosecond less than storing
    /// its six fields one by one: replaying the java8 and sql smoke
    /// corpora's event streams through `apply` took 4.1 and 4.2 ns per
    /// event against 4.9 and 5.5 (2-core x86-64 host).
    #[inline(always)]
    fn pack(self) -> [u64; 2] {
        [
            self.op as u64
                | u64::from(self.flag) << 8
                | u64::from(self.alt) << 16
                | u64::from(self.id) << 32,
            u64::from(self.a) | u64::from(self.b) << 32,
        ]
    }

    fn unpack([head, tail]: [u64; 2]) -> LogRec {
        LogRec {
            op: Op::ALL[(head & 0xFF) as usize],
            flag: head >> 8 & 1 == 1,
            alt: (head >> 16) as u16,
            id: (head >> 32) as u32,
            a: tail as u32,
            b: (tail >> 32) as u32,
        }
    }

    /// An [`Op::LeafWord`] as the [`Op::PredictLeaf`] record it packs.
    fn unpack_leaf(word: u64) -> LogRec {
        LogRec {
            op: Op::PredictLeaf,
            flag: false,
            alt: (word >> 5) as u16 & 0xFF,
            id: (word >> 13) as u32 & 0x1FFF,
            a: (word >> 32) as u32,
            b: (word >> 26) as u32 & 0x3F,
        }
    }

    #[inline]
    fn at(op: Op, id: u32, pos: u32) -> LogRec {
        LogRec { op, flag: false, alt: 0, id, a: pos, b: 0 }
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

/// The display-name tables [`SpanRecorder::tree`] takes for `grammar`:
/// rule index → rule name, and decision index → owning-rule name.
pub fn labels(grammar: &Grammar, analysis: &GrammarAnalysis) -> (Vec<String>, Vec<String>) {
    let rules = grammar.rules.iter().map(|r| r.name.clone()).collect();
    let decisions =
        analysis.atn.decisions.iter().map(|d| grammar.rule(d.rule).name.clone()).collect();
    (rules, decisions)
}

/// A finished span tree: the flat node arena plus display-name tables
/// and truncation accounting. The serialized form is one JSON object
/// (`"type":"spans"`), deterministic for a given grammar + input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// Rule index → rule name (may be empty for raw-trace input).
    pub rules: Vec<String>,
    /// Decision index → owning-rule name (may be empty).
    pub decisions: Vec<String>,
    /// Whether the arena cap dropped spans.
    pub truncated: bool,
    /// How many spans were dropped.
    pub dropped: u64,
    /// All spans, root first, in depth-first open order.
    pub nodes: Vec<SpanNode>,
}

impl SpanTree {
    /// Builds a tree by folding a replayed event stream (no grammar at
    /// hand: label tables stay empty; see [`labels`]). The node capacity
    /// holds one span per event, so the tree is never truncated.
    pub fn from_trace(events: &[TraceEvent]) -> SpanTree {
        let mut recorder = SpanRecorder::with_capacity(events.len() + 1);
        for event in events {
            recorder.apply(event);
        }
        recorder.tree(Vec::new(), Vec::new())
    }

    /// Serializes the tree as one JSON object with the stable field
    /// order `type`, `schema`, `rules`, `decisions`, `truncated`,
    /// `dropped`, `nodes`. Byte-deterministic.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"type\":\"spans\",\"schema\":{SPANS_STREAM_VERSION}");
        let table = |items: &[String]| -> String {
            let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
            format!("[{}]", quoted.join(","))
        };
        let _ = write!(
            out,
            ",\"rules\":{},\"decisions\":{},\"truncated\":{},\"dropped\":{},\"nodes\":[",
            table(&self.rules),
            table(&self.decisions),
            self.truncated,
            self.dropped
        );
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&node.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Parses the object form [`SpanTree::to_json`] writes.
    ///
    /// # Errors
    /// A description of the first malformed or missing field.
    pub fn from_json(value: &Json) -> Result<SpanTree, String> {
        if value.get("type").and_then(Json::as_str) != Some("spans") {
            return Err("not a spans document".into());
        }
        let schema = value.get("schema").and_then(Json::as_u64).ok_or("missing \"schema\"")?;
        if schema != SPANS_STREAM_VERSION {
            return Err(format!(
                "spans schema {schema} unsupported (expected {SPANS_STREAM_VERSION})"
            ));
        }
        let strings = |key: &str| -> Result<Vec<String>, String> {
            value
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("missing {key:?}"))?
                .iter()
                .map(|v| v.as_str().map(str::to_string).ok_or(format!("non-string in {key:?}")))
                .collect()
        };
        let nodes_json = value.get("nodes").and_then(Json::as_array).ok_or("missing \"nodes\"")?;
        if nodes_json.is_empty() {
            return Err("spans document has no nodes".into());
        }
        let mut nodes = Vec::with_capacity(nodes_json.len());
        for (i, n) in nodes_json.iter().enumerate() {
            let node = SpanNode::from_json(n)?;
            if node.parent >= nodes_json.len() || (i > 0 && node.parent >= i) {
                return Err(format!("node {i} has out-of-order parent {}", node.parent));
            }
            nodes.push(node);
        }
        Ok(SpanTree {
            rules: strings("rules")?,
            decisions: strings("decisions")?,
            truncated: value.get("truncated").and_then(Json::as_bool).unwrap_or(false),
            dropped: value.get("dropped").and_then(Json::as_u64).unwrap_or(0),
            nodes,
        })
    }

    fn rule_name(&self, id: u32) -> String {
        self.rules.get(id as usize).cloned().unwrap_or_else(|| format!("rule{id}"))
    }

    fn label(&self, node: &SpanNode) -> String {
        match node.kind {
            SpanKind::Parse => "parse".to_string(),
            SpanKind::Rule => self.rule_name(node.id),
            SpanKind::Predict => match self.decisions.get(node.id as usize) {
                Some(rule) => format!("predict d{} ({rule})", node.id),
                None => format!("predict d{}", node.id),
            },
            SpanKind::Backtrack => format!("synpred{}", node.id),
        }
    }

    fn annotations(&self, node: &SpanNode) -> String {
        let mut parts: Vec<String> = Vec::new();
        match node.kind {
            SpanKind::Parse => {}
            SpanKind::Rule => {
                parts.push(format!("alt={}", node.alt));
                parts.push(if node.ok { "ok".into() } else { "fail".into() });
            }
            SpanKind::Predict => {
                parts.push(format!("alt={}", node.alt));
                parts.push(format!("la={}", node.lookahead));
                if node.backtracked {
                    parts.push("backtracked".into());
                }
                if node.spec_depth > 0 {
                    parts.push(format!("spec={}", node.spec_depth));
                }
                if !node.ok {
                    parts.push("fail".into());
                }
            }
            SpanKind::Backtrack => {
                parts.push(if node.matched { "matched".into() } else { "rewound".into() });
                parts.push(format!("consumed={}", node.consumed));
            }
        }
        if node.synthetic {
            parts.push("synthetic".into());
        }
        for (name, value) in node.counters.nonzero() {
            parts.push(format!("{name}={value}"));
        }
        parts.join(" ")
    }

    /// Depth of each node (root = 0), derived from parent links.
    fn depths(&self) -> Vec<usize> {
        let mut depths = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            depths[i] = depths[node.parent] + 1;
        }
        depths
    }

    /// Renders a text timeline/flamegraph: one line per span with a
    /// bar positioned over the token axis, indented by nesting depth.
    /// `max_lines` truncates deep trees for terminal use (0 =
    /// unlimited).
    pub fn render(&self, max_lines: usize) -> String {
        const BAR_WIDTH: usize = 40;
        let total = self.nodes[0].end.max(1);
        let depths = self.depths();
        let mut out = String::new();
        let shown = if max_lines == 0 { self.nodes.len() } else { self.nodes.len().min(max_lines) };
        for (node, depth) in self.nodes.iter().zip(&depths).take(shown) {
            let lo = ((node.start.min(total) as u128 * BAR_WIDTH as u128) / total as u128) as usize;
            let hi = ((node.end.min(total) as u128 * BAR_WIDTH as u128) / total as u128) as usize;
            let hi = hi.max(lo + 1).min(BAR_WIDTH);
            let mut bar = String::with_capacity(BAR_WIDTH);
            for col in 0..BAR_WIDTH {
                bar.push(if col >= lo && col < hi { '#' } else { ' ' });
            }
            let annotations = self.annotations(node);
            let _ = writeln!(
                out,
                "|{bar}| {:indent$}{} [{}..{}){}{}",
                "",
                self.label(node),
                node.start,
                node.end,
                if annotations.is_empty() { "" } else { " " },
                annotations,
                indent = depth * 2
            );
        }
        if shown < self.nodes.len() {
            let _ = writeln!(out, "... {} more spans", self.nodes.len() - shown);
        }
        let _ = writeln!(
            out,
            "{} spans over {} tokens{}",
            self.nodes.len(),
            self.nodes[0].end,
            if self.truncated {
                format!(" (truncated: {} spans dropped)", self.dropped)
            } else {
                String::new()
            }
        );
        out
    }

    /// Exports the tree as a Chrome `trace_event` JSON document
    /// (openable in `chrome://tracing` / Perfetto). Timestamps are
    /// depth-first ordinals — span trees carry no wall-clock — so the
    /// export shows structure and relative effort, with token extents
    /// and the span's non-zero [`SpanCounters`] (memo, semantic
    /// predicate and recovery tallies) in each span's `args`. B/E pairs
    /// are emitted strictly nested.
    pub fn to_chrome_trace(&self) -> String {
        // Children of each node, in arena (depth-first open) order.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            children[node.parent].push(i);
        }
        let mut out = String::from("{\"traceEvents\":[");
        let mut any = false;
        let mut ts = 0usize;
        // Explicit stack: (node, next-child cursor). Depth-first so
        // every B gets its E after all children close.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        while let Some((idx, cursor)) = stack.pop() {
            let node = &self.nodes[idx];
            if cursor == 0 {
                if any {
                    out.push(',');
                }
                any = true;
                let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":{},\"ph\":\"B\",\"ts\":{ts},\"pid\":1,\"tid\":1,\
                     \"args\":{{\"start\":{},\"end\":{}",
                    quote(&self.label(node)),
                    quote(node.kind.name()),
                    node.start,
                    node.end,
                );
                if node.synthetic {
                    out.push_str(",\"synthetic-close\":true");
                }
                for (key, value) in node.counters.nonzero() {
                    let _ = write!(out, ",\"{key}\":{value}");
                }
                out.push_str("}}");
                ts += 1;
            }
            if let Some(&child) = children[idx].get(cursor) {
                stack.push((idx, cursor + 1));
                stack.push((child, 0));
                continue;
            }
            let _ = write!(
                out,
                ",{{\"name\":{},\"ph\":\"E\",\"ts\":{ts},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"ok\":{}}}}}",
                quote(&self.label(node)),
                node.ok
            );
            ts += 1;
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

// ---------------------------------------------------------------------
// W3C traceparent + deterministic trace ids
// ---------------------------------------------------------------------

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`, continuing from `seed` (pass
/// [`FNV_OFFSET`]-equivalent via [`fnv1a`] for a fresh hash).
fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Derives a deterministic 32-hex-digit trace id from the request
/// identity `(grammar, id, input)`. Any worker — or a re-run — computes
/// the same id for the same request, which is what keeps serve's
/// worker-count-invariance property intact once responses carry ids.
/// Never all-zero (the W3C invalid value).
pub fn derive_trace_id(grammar: &str, id: u64, input: &str) -> String {
    let mut hash = fnv1a(grammar.as_bytes());
    hash = fnv1a_from(hash, &id.to_le_bytes());
    hash = fnv1a_from(hash, input.as_bytes());
    let hi = if hash == 0 { 1 } else { hash };
    // Second half: keep folding so the two words differ.
    let lo = fnv1a_from(hash ^ 0x9e37_79b9_7f4a_7c15, input.as_bytes());
    let lo = fnv1a_from(lo, &(input.len() as u64).to_le_bytes());
    format!("{hi:016x}{lo:016x}")
}

/// Derives a deterministic 16-hex-digit span id from a trace id and a
/// salt (e.g. the responding component name). Never all-zero.
pub fn derive_span_id(trace_id: &str, salt: &str) -> String {
    let mut hash = fnv1a(trace_id.as_bytes());
    hash = fnv1a_from(hash, salt.as_bytes());
    format!("{:016x}", if hash == 0 { 1 } else { hash })
}

/// Leniently parses a W3C `traceparent` header value into
/// `(trace_id, parent_span_id)`, both lowercased. Returns `None` — never
/// an error — for anything malformed: wrong field count or width,
/// non-hex digits, the forbidden all-zero ids, or the invalid `ff`
/// version. Callers fall back to a freshly derived id, so a garbage
/// header can degrade tracing but never fail a request.
pub fn parse_traceparent(value: &str) -> Option<(String, String)> {
    let value = value.trim().to_ascii_lowercase();
    let mut parts = value.split('-');
    let version = parts.next()?;
    let trace_id = parts.next()?;
    let parent_id = parts.next()?;
    let flags = parts.next()?;
    if version.len() != 2 || trace_id.len() != 32 || parent_id.len() != 16 || flags.len() != 2 {
        return None;
    }
    // Future versions may append fields; version 00 must have exactly 4.
    if version == "00" && parts.next().is_some() {
        return None;
    }
    let hex = |s: &str| s.bytes().all(|b| b.is_ascii_hexdigit());
    if !hex(version) || !hex(trace_id) || !hex(parent_id) || !hex(flags) {
        return None;
    }
    if version == "ff" {
        return None;
    }
    let zero = |s: &str| s.bytes().all(|b| b == b'0');
    if zero(trace_id) || zero(parent_id) {
        return None;
    }
    Some((trace_id.to_string(), parent_id.to_string()))
}

/// Renders a version-00 `traceparent` value with the sampled flag set.
pub fn format_traceparent(trace_id: &str, span_id: &str) -> String {
    format!("00-{trace_id}-{span_id}-01")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NopHooks;
    use crate::parser::Parser;
    use crate::stream::TokenStream;
    use crate::trace::MemoKind;
    use llstar_core::analyze;
    use llstar_grammar::{apply_peg_mode, parse_grammar};

    fn demo() -> (llstar_grammar::Grammar, llstar_core::GrammarAnalysis) {
        let g = apply_peg_mode(
            parse_grammar(
                r#"
                grammar Demo;
                s : stmt* EOF ;
                stmt : ID '=' expr ';' ;
                expr : term ('+' term)* ;
                term : ID | INT ;
                ID : [a-z]+ ;
                INT : [0-9]+ ;
                WS : [ ]+ -> skip ;
                "#,
            )
            .expect("grammar"),
        );
        let a = analyze(&g);
        (g, a)
    }

    fn record(input: &str) -> SpanTree {
        let (g, a) = demo();
        let scanner = g.lexer.build().expect("lexer");
        let tokens = TokenStream::new(scanner.tokenize(input).expect("lexes"));
        let mut parser = Parser::new(&g, &a, tokens, NopHooks);
        parser.enable_span_recording();
        parser.parse_to_eof("s").expect("parses");
        parser.span_tree().expect("recording was enabled")
    }

    #[test]
    fn fold_builds_a_well_formed_deterministic_tree() {
        let tree = record("a = 1 + b; c = 2;");
        assert!(tree.nodes.len() > 4, "rules and decisions produce spans");
        assert_eq!(tree.nodes[0].kind, SpanKind::Parse, "node 0 is the synthetic root");
        assert!(!tree.truncated);
        for (i, node) in tree.nodes.iter().enumerate().skip(1) {
            assert!(node.parent < i, "parents precede children (node {i})");
            assert!(node.end >= node.start, "spans are forward extents (node {i})");
        }
        assert!(
            tree.nodes
                .iter()
                .any(|n| n.kind == SpanKind::Rule && tree.rules[n.id as usize] == "stmt"),
            "per-rule spans carry rule ids"
        );
        assert!(
            tree.nodes.iter().any(|n| n.kind == SpanKind::Predict),
            "per-decision spans present"
        );
        // Byte-determinism: same input, same tree.
        assert_eq!(tree.to_json(), record("a = 1 + b; c = 2;").to_json());
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let tree = record("a = 1; b = a + 2;");
        let text = tree.to_json();
        let parsed =
            SpanTree::from_json(&Json::parse(&text).expect("valid JSON")).expect("round trips");
        assert_eq!(parsed, tree);
        assert_eq!(parsed.to_json(), text, "serialization is canonical");
    }

    #[test]
    fn arena_cap_drops_spans_but_keeps_nesting_sound() {
        let (g, a) = demo();
        let scanner = g.lexer.build().expect("lexer");
        let input = "a = 1 + b + c; d = 2;";
        let tokens = TokenStream::new(scanner.tokenize(input).expect("lexes"));
        let mut ring = crate::trace::RingSink::unbounded();
        let mut parser = Parser::new(&g, &a, tokens, NopHooks);
        parser.set_trace_sink(&mut ring);
        parser.parse_to_eof("s").expect("parses");
        let events: Vec<TraceEvent> = ring.into_events();

        let mut capped = SpanRecorder::with_capacity(4);
        for e in &events {
            capped.apply(e);
        }
        let tree = capped.tree(Vec::new(), Vec::new());
        assert!(tree.truncated && tree.dropped > 0, "cap engaged");
        assert_eq!(tree.nodes.len(), 4, "arena respects the cap");
        for (i, node) in tree.nodes.iter().enumerate().skip(1) {
            assert!(node.parent < i, "nesting stays sound under truncation");
        }
    }

    #[test]
    fn unmatched_close_is_dropped_and_dangling_opens_close_synthetically() {
        let mut r = SpanRecorder::new();
        // Close without open: dropped.
        r.apply(&TraceEvent::RuleExit { rule: 7, token_index: 3, alt: 1, ok: true });
        assert_eq!(r.len(), 1, "unmatched close creates nothing");
        // Failed prediction: no predict-stop; rule close pops it.
        r.apply(&TraceEvent::RuleEnter { rule: 1, token_index: 0 });
        r.apply(&TraceEvent::PredictStart { decision: 2, token_index: 0 });
        r.apply(&TraceEvent::RuleExit { rule: 1, token_index: 2, alt: 0, ok: false });
        // Still-open span at end of stream.
        r.apply(&TraceEvent::RuleEnter { rule: 3, token_index: 2 });
        let tree = r.tree(Vec::new(), Vec::new());
        let predict = tree.nodes.iter().find(|n| n.kind == SpanKind::Predict).expect("kept");
        assert!(predict.synthetic, "failed prediction closed synthetically");
        let dangling =
            tree.nodes.iter().find(|n| n.kind == SpanKind::Rule && n.id == 3).expect("kept");
        assert!(dangling.synthetic, "end-of-stream dangle closed synthetically");
    }

    #[test]
    fn recorder_clear_resets_for_reuse() {
        let mut r = SpanRecorder::new();
        r.apply(&TraceEvent::RuleEnter { rule: 0, token_index: 0 });
        r.apply(&TraceEvent::RuleExit { rule: 0, token_index: 5, alt: 1, ok: true });
        let first = r.tree(Vec::new(), Vec::new());
        r.clear();
        r.apply(&TraceEvent::RuleEnter { rule: 0, token_index: 0 });
        r.apply(&TraceEvent::RuleExit { rule: 0, token_index: 5, alt: 1, ok: true });
        let second = r.tree(Vec::new(), Vec::new());
        assert_eq!(first.to_json(), second.to_json(), "clear() is a full rearm");
    }

    #[test]
    fn render_and_chrome_export_are_well_formed() {
        let tree = record("a = 1 + 2;");
        let text = tree.render(0);
        assert!(text.contains("parse"), "{text}");
        assert!(text.contains("stmt"), "labels resolve through the rule table: {text}");
        assert!(text.contains("spans over"), "{text}");
        let limited = tree.render(2);
        assert!(limited.contains("more spans"), "{limited}");

        let chrome = tree.to_chrome_trace();
        let doc = Json::parse(&chrome).expect("chrome export is valid JSON");
        let records = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        let mut depth = 0i64;
        for r in records {
            match r.get("ph").and_then(Json::as_str).unwrap() {
                "B" => depth += 1,
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0, "E without matching B");
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert_eq!(depth, 0, "B/E pairs balance");
        assert_eq!(records.len(), tree.nodes.len() * 2, "one B and one E per span");
    }

    #[test]
    fn from_trace_fallback_uses_placeholder_labels() {
        let events = vec![
            TraceEvent::RuleEnter { rule: 5, token_index: 0 },
            TraceEvent::RuleExit { rule: 5, token_index: 2, alt: 1, ok: true },
        ];
        let tree = SpanTree::from_trace(&events);
        assert!(tree.render(0).contains("rule5"), "{}", tree.render(0));
    }

    #[test]
    fn chrome_export_carries_span_counters_in_args() {
        let events = vec![
            TraceEvent::RuleEnter { rule: 0, token_index: 0 },
            TraceEvent::MemoHit { kind: MemoKind::Rule, id: 0, token_index: 0, success: true },
            TraceEvent::Sempred { pred: "p".into(), token_index: 1, outcome: true },
            TraceEvent::RuleExit { rule: 0, token_index: 2, alt: 1, ok: true },
        ];
        let chrome = SpanTree::from_trace(&events).to_chrome_trace();
        assert!(
            chrome.contains("\"args\":{\"start\":0,\"end\":2,\"memo-hits\":1,\"sempreds\":1}"),
            "{chrome}"
        );
    }

    #[test]
    fn log_records_round_trip_through_their_packed_words() {
        for (code, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, code, "Op::ALL is in discriminant order");
            for flag in [false, true] {
                let rec = LogRec { op, flag, alt: 0xBEEF, id: u32::MAX - 1, a: 7, b: u32::MAX };
                let back = LogRec::unpack(rec.pack());
                assert!(back.op == op && back.flag == flag);
                assert_eq!((back.alt, back.id, back.a, back.b), (rec.alt, rec.id, rec.a, rec.b));
            }
        }
    }

    /// Parser-logged rule spans, one-word leaves and a leaf past a
    /// leaf word's fields fold like the events they stand for.
    #[test]
    fn rule_spans_and_leaves_fold_like_their_events() {
        let mut packed = SpanRecorder::new();
        let outer = packed.rule_enter();
        packed.predict_leaf(9_000, 0, 300, 70);
        let inner = packed.rule_enter();
        packed.predict_leaf(3, 1, 2, 1);
        packed.rule_exit(inner, 70_000, 1, 4, 2, true);
        packed.rule_exit(outer, 5, 0, 6, 1, false);
        let stop = |decision, token_index, alt, lookahead| TraceEvent::PredictStop {
            decision,
            token_index,
            alt,
            lookahead,
            path: Vec::new(),
            backtracked: false,
            spec_depth: 0,
        };
        let mut events = SpanRecorder::new();
        for event in [
            TraceEvent::RuleEnter { rule: 5, token_index: 0 },
            TraceEvent::PredictStart { decision: 9_000, token_index: 0 },
            stop(9_000, 0, 300, 70),
            TraceEvent::RuleEnter { rule: 70_000, token_index: 1 },
            TraceEvent::PredictStart { decision: 3, token_index: 1 },
            stop(3, 1, 2, 1),
            TraceEvent::RuleExit { rule: 70_000, token_index: 4, alt: 2, ok: true },
            TraceEvent::RuleExit { rule: 5, token_index: 6, alt: 1, ok: false },
        ] {
            events.apply(&event);
        }
        let tree = packed.tree(Vec::new(), Vec::new());
        assert_eq!(tree.nodes.len(), 5);
        assert_eq!(tree.to_json(), events.tree(Vec::new(), Vec::new()).to_json());
    }

    #[test]
    fn named_bridge_mirrors_the_event_fold() {
        let mut r = SpanRecorder::new();
        r.apply_named("rule-enter", 1, 0);
        r.apply_named("predict-start", 3, 0);
        r.apply_named("predict-stop", 3, 1);
        r.apply_named("memo-hit", 0, 1);
        r.apply_named("rule-exit", 1, 4);
        r.apply_named("no-such-kind", 9, 9);
        let tree = r.tree(Vec::new(), Vec::new());
        assert_eq!(tree.nodes.len(), 3, "unknown kinds are ignored");
        let predict = tree.nodes.iter().find(|n| n.kind == SpanKind::Predict).expect("mapped");
        assert_eq!((predict.start, predict.end, predict.lookahead), (0, 1, 1));
        let rule = tree.nodes.iter().find(|n| n.kind == SpanKind::Rule).expect("mapped");
        assert!(rule.ok && rule.end == 4);
        // The memo-hit arrived after the prediction closed, so the rule
        // span was innermost at that point.
        assert_eq!(rule.counters.memo_hits, 1, "tally lands on the innermost open span");
        assert_eq!(predict.counters.memo_hits, 0);
    }

    #[test]
    fn traceparent_parses_leniently_and_round_trips() {
        let (t, p) = parse_traceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
            .expect("valid header");
        assert_eq!(t, "0af7651916cd43dd8448eb211c80319c");
        assert_eq!(p, "b7ad6b7169203331");
        // Uppercase + padding are tolerated.
        assert!(parse_traceparent("  00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-00  ")
            .is_some());
        for garbage in [
            "",
            "garbage",
            "00-short-b7ad6b7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331", // missing flags
            "00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
            "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // invalid version
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x", // v00 extra field
            "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // non-hex version
        ] {
            assert!(parse_traceparent(garbage).is_none(), "{garbage:?} must be rejected");
        }
        let trace = derive_trace_id("Demo", 7, "a = 1;");
        assert_eq!(trace.len(), 32);
        assert_eq!(trace, derive_trace_id("Demo", 7, "a = 1;"), "derivation is deterministic");
        assert_ne!(trace, derive_trace_id("Demo", 8, "a = 1;"), "id feeds the hash");
        let span = derive_span_id(&trace, "serve");
        assert_eq!(span.len(), 16);
        let header = format_traceparent(&trace, &span);
        let (t2, p2) = parse_traceparent(&header).expect("formatted header parses");
        assert_eq!((t2, p2), (trace, span));
    }
}
