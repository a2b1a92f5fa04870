//! The parser's optional observers behind one field ([`Observers`]):
//! the span recorder, a trace sink, the coverage recorder and
//! per-decision prediction timing. `None` while nothing is attached, so
//! an unobserved parse pays one null check per event site; otherwise
//! the site makes one call, and this module alone decides what each
//! observer takes. Events reach it as closures, built only for an
//! observer that takes them.
//!
//! Span recording, the one observer a production daemon runs, is
//! inlined at the event sites. The sink, coverage and the clock sit in
//! a second box ([`Cold`]) fed by `#[cold]` out-of-line methods, and the
//! parser's rule and prediction code is compiled twice, over
//! `const COLD: bool`: the copy that runs while that box is empty holds
//! no call into it. With those calls compiled into the span-recording
//! parse, `spans_overhead --quick --gate` read about two points higher
//! (2-core x86-64 host).

use crate::coverage::CoverageRecorder;
use crate::span::SpanRecorder;
use crate::trace::{TraceEvent, TraceSink};
use std::time::Instant;

/// The observers attached to one parser.
#[derive(Default)]
pub(crate) struct Observers<'g> {
    /// Owned, unlike the sink: recycled sessions harvest a tree per parse.
    pub(crate) spans: Option<SpanRecorder>,
    /// Everything else; `None` while none of it is attached.
    pub(crate) cold: Option<Box<Cold<'g>>>,
}

/// The observers fed out of line: a trace sink, the coverage recorder
/// and decision timing.
#[derive(Default)]
pub(crate) struct Cold<'g> {
    pub(crate) trace: Option<&'g mut dyn TraceSink>,
    pub(crate) coverage: Option<CoverageRecorder>,
    /// Prediction nanoseconds per decision; never in the deterministic
    /// trace stream or coverage map.
    pub(crate) timing: Option<Vec<u64>>,
    /// The DFA path buffer depth-0 coverage lends every depth-0
    /// prediction (they never nest).
    path: Vec<u32>,
    /// Start times of the open predictions (they nest through
    /// speculation), innermost last.
    clocks: Vec<Instant>,
}

/// A prediction that chose an alternative, as its observers see it.
#[derive(Clone, Copy)]
pub(crate) struct Predicted {
    pub(crate) decision: u32,
    pub(crate) token_index: usize,
    pub(crate) alt: u16,
    pub(crate) lookahead: u64,
    pub(crate) backtracked: bool,
    pub(crate) spec_depth: u64,
}

impl<'g> Observers<'g> {
    /// The out-of-line observers, attached on first use.
    pub(crate) fn cold(&mut self) -> &mut Cold<'g> {
        self.cold.get_or_insert_with(Box::default)
    }

    /// The out-of-line observers, in the `COLD` parser code only.
    #[inline(always)]
    fn cold_if<const COLD: bool>(&mut self) -> Option<&mut Cold<'g>> {
        if COLD {
            self.cold.as_deref_mut()
        } else {
            None
        }
    }

    /// Whether nothing is attached any more.
    pub(crate) fn is_empty(&self) -> bool {
        self.spans.is_none() && self.cold.is_none()
    }

    /// Detaches the coverage recorder, and the cold box once it holds
    /// nothing else.
    pub(crate) fn take_coverage(&mut self) -> Option<CoverageRecorder> {
        let cold = self.cold.as_deref_mut()?;
        let coverage = cold.coverage.take();
        if cold.trace.is_none() && cold.timing.is_none() {
            self.cold = None;
        }
        coverage
    }

    /// Rearms the per-parse state (span log, timing) for a fresh parse.
    /// The coverage map spans parses until it is taken.
    pub(crate) fn reset(&mut self) {
        if let Some(spans) = &mut self.spans {
            spans.clear();
        }
        if let Some(cold) = &mut self.cold {
            if let Some(timing) = &mut cold.timing {
                timing.fill(0);
            }
            cold.clocks.clear();
        }
    }

    /// One runtime event: built inline for the span log, where the
    /// recorder's match folds to one push, and again inside the cold
    /// call, so the parser's frame never holds one.
    #[inline(always)]
    pub(crate) fn event(&mut self, event: impl Fn() -> TraceEvent) {
        if let Some(spans) = &mut self.spans {
            spans.apply(&event());
        }
        if let Some(cold) = &mut self.cold {
            cold.event(event);
        }
    }

    /// A rule invocation starts at `token_index`; returns the span
    /// recorder's mark for [`Observers::rule_exit`].
    #[inline(always)]
    pub(crate) fn rule_enter<const COLD: bool>(&mut self, rule: u32, token_index: usize) -> usize {
        if let Some(cold) = self.cold_if::<COLD>() {
            cold.event(move || TraceEvent::RuleEnter { rule, token_index });
        }
        // The span recorder logs the rule once, at exit.
        self.spans.as_ref().map_or(0, SpanRecorder::rule_enter)
    }

    /// A rule invocation ends, at speculation depth `speculating`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rule_exit<const COLD: bool>(
        &mut self,
        mark: usize,
        rule: u32,
        start: usize,
        end: usize,
        alt: u16,
        ok: bool,
        speculating: u32,
    ) {
        if let Some(spans) = &mut self.spans {
            spans.rule_exit(mark, rule, start, end, alt, ok);
        }
        if let Some(cold) = self.cold_if::<COLD>() {
            cold.rule_exit(rule, end, alt, ok, speculating);
        }
    }

    /// A prediction starts. Returns the DFA path buffer, holding the
    /// start state when the walk records its path (for a sink, and for
    /// coverage at depth 0, the only depth it counts), and whether
    /// `PredictStart` went out (at once only for a sink).
    #[inline(always)]
    pub(crate) fn predict_start<const COLD: bool>(
        &mut self,
        decision: u32,
        token_index: usize,
        speculating: u32,
    ) -> (Vec<u32>, bool) {
        let Some(cold) = self.cold_if::<COLD>() else { return (Vec::new(), false) };
        let (path, tracing) = cold.predict_start(decision, speculating);
        if tracing {
            self.predict_open(decision, token_index);
        }
        (path, tracing)
    }

    /// The prediction's start event, once the DFA walk stops short of an
    /// accept state; without a sink a bare walk is one leaf record.
    #[cold]
    #[inline(never)]
    pub(crate) fn predict_open(&mut self, decision: u32, token_index: usize) {
        self.event(move || TraceEvent::PredictStart { decision, token_index });
    }

    /// The prediction chose an alternative; `opened` when its start
    /// event went out.
    #[inline(always)]
    pub(crate) fn predict_stop<const COLD: bool>(
        &mut self,
        p: Predicted,
        opened: bool,
        speculating: u32,
        path: Vec<u32>,
    ) {
        if let Some(spans) = &mut self.spans {
            if opened {
                spans.apply(&p.stop_event(Vec::new()));
            } else {
                spans.predict_leaf(p.decision, p.token_index, p.alt, p.lookahead);
            }
        }
        if let Some(cold) = self.cold_if::<COLD>() {
            cold.predict_stop(p, opened, speculating == 0, path);
        }
    }

    /// The prediction found no viable alternative: only its time counts.
    #[inline(always)]
    pub(crate) fn predict_fail<const COLD: bool>(&mut self, decision: u32) {
        if let Some(cold) = self.cold_if::<COLD>() {
            cold.stop_clock(decision);
        }
    }
}

impl Predicted {
    /// The `PredictStop` event, walked along `path`.
    fn stop_event(self, path: Vec<u32>) -> TraceEvent {
        TraceEvent::PredictStop {
            decision: self.decision,
            token_index: self.token_index,
            alt: self.alt,
            lookahead: self.lookahead,
            path,
            backtracked: self.backtracked,
            spec_depth: self.spec_depth,
        }
    }
}

impl Cold<'_> {
    /// Sends one event to the coverage recorder (memo counts) and the
    /// sink.
    #[cold]
    #[inline(never)]
    fn event(&mut self, event: impl Fn() -> TraceEvent) {
        let event = event();
        if let Some(coverage) = &mut self.coverage {
            match event {
                TraceEvent::MemoHit { .. } => coverage.memo(true),
                TraceEvent::MemoWrite { .. } => coverage.memo(false),
                _ => {}
            }
        }
        if let Some(sink) = &mut self.trace {
            sink.event(&event);
        }
    }

    #[cold]
    #[inline(never)]
    fn rule_exit(&mut self, rule: u32, end: usize, alt: u16, ok: bool, speculating: u32) {
        // Coverage counts successful exits at depth 0.
        if let (Some(coverage), true, 0) = (&mut self.coverage, ok, speculating) {
            coverage.rule_exit(rule, alt);
        }
        if let Some(sink) = &mut self.trace {
            sink.event(&TraceEvent::RuleExit { rule, token_index: end, alt, ok });
        }
    }

    /// Starts the clock and the path a prediction's observers need;
    /// returns the path and whether a trace sink is attached.
    #[cold]
    #[inline(never)]
    fn predict_start(&mut self, decision: u32, speculating: u32) -> (Vec<u32>, bool) {
        if self.timing.is_some() {
            self.clocks.push(Instant::now());
        }
        let mut path = Vec::new();
        if let Some(coverage) = &mut self.coverage {
            coverage.predict_start(decision);
            if speculating == 0 {
                path = std::mem::take(&mut self.path);
                path.clear();
                path.push(0);
            }
        }
        let tracing = self.trace.is_some();
        if tracing && path.is_empty() {
            path.push(0);
        }
        (path, tracing)
    }

    #[cold]
    #[inline(never)]
    fn predict_stop(&mut self, p: Predicted, opened: bool, counted: bool, path: Vec<u32>) {
        if let Some(coverage) = &mut self.coverage {
            coverage.predict_stop(p.decision, &path, p.lookahead, p.backtracked, counted);
        }
        match &mut self.trace {
            Some(sink) if opened => sink.event(&p.stop_event(path)),
            _ if counted => self.path = path,
            _ => {}
        }
        self.stop_clock(p.decision);
    }

    /// Adds the innermost open prediction's time to `decision`.
    #[cold]
    #[inline(never)]
    fn stop_clock(&mut self, decision: u32) {
        if let (Some(timing), Some(clock)) = (&mut self.timing, self.clocks.pop()) {
            if let Some(slot) = timing.get_mut(decision as usize) {
                *slot += clock.elapsed().as_nanos() as u64;
            }
        }
    }
}
