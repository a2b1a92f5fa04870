//! The always-on metrics substrate: cheap enough to stay enabled in
//! every engine, rich enough to reproduce the paper's Tables 3–4
//! signals (lookahead depth, backtrack rate, memo traffic) live.
//!
//! Two tiers of observability coexist (see DESIGN.md):
//!
//! * **Sampled traces** ([`crate::trace`]): every event, full fidelity,
//!   event-per-token cost — a dial via `SamplingSink`, for debugging.
//! * **Always-on metrics** (this module): a handful of unconditional
//!   array increments per *prediction* (not per token), no per-event
//!   allocation, no `Option<sink>` branch — cheap enough for
//!   `llstar serve`-style deployments to leave on under load.
//!
//! [`ParseStats`], the paper's Tables 3–4 per parse, is a view over
//! these counters rather than a second fold.
//!
//! [`ParseMetrics`] is the one accumulator: a parser's per-parse
//! counters (cleared by [`Parser::reset`]), a session's lifetime sum
//! and each [`MetricsRegistry`] slot are all `ParseMetrics`, added
//! together with [`ParseMetrics::merge`]. [`MetricsSnapshot`] is only
//! the labelled export and import form (grammar fingerprint, rule
//! names, exemplars; deterministic JSON for parity testing, Prometheus
//! text exposition for scraping), built by [`ParseMetrics::snapshot`]
//! when something is exported. The registry keys slots by `(grammar
//! fingerprint, engine)` and gives every handle its own mutex-guarded
//! slot, so concurrent recorders never contend; a snapshot merges the
//! label's slots.
//!
//! [`Parser::reset`]: crate::Parser::reset
//! [`ParseStats`]: crate::ParseStats

use llstar_core::schema::{self, StreamKind};
use llstar_core::Json;
use std::iter::once;
use std::sync::{Arc, Mutex};

/// Buckets in a per-decision lookahead-depth histogram: 16 linear
/// (0..15) then two sub-buckets per power of two — exact for the depths
/// the paper reports (Table 3's k ≤ 3 common case), log-resolution out
/// to 4095, clamped above.
pub const DEPTH_BUCKETS: usize = 32;

/// Buckets in the wide histograms (tokens/parse, memo entries/parse,
/// parse latency in microseconds): same log-linear layout, covering
/// values below 2^28 before clamping.
pub const WIDE_BUCKETS: usize = 64;

/// Nominal bytes per memo-table entry, used to render `memo-entries`
/// counters as a `llstar_memo_bytes` gauge. A fixed constant (rather
/// than `size_of` some engine's entry) keeps the exposition identical
/// across engines, whose in-memory entry layouts differ.
pub const MEMO_ENTRY_BYTES: u64 = 16;

/// Log-linear bucket index of `v` in an `n`-bucket histogram: identity
/// below 16, then `16 + 2·(msb−4) + second-highest-bit`, clamped. Pure
/// bit arithmetic — the hot path is `hist[bucket_of(v, N)] += 1`.
#[inline]
pub fn bucket_of(v: u64, n: usize) -> usize {
    if v < 16 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (msb - 1)) & 1) as usize;
        (16 + (msb - 4) * 2 + sub).min(n - 1)
    }
}

/// Inclusive lower bound of bucket `idx` (the smallest value that lands
/// in it).
pub fn bucket_lower(idx: usize) -> u64 {
    if idx < 16 {
        idx as u64
    } else {
        let e = (idx - 16) / 2 + 4;
        let sub = ((idx - 16) % 2) as u64;
        (1u64 << e) + sub * (1u64 << (e - 1))
    }
}

/// Inclusive upper bound of bucket `idx` in an `n`-bucket histogram
/// (`u64::MAX` for the clamp bucket).
pub fn bucket_upper(idx: usize, n: usize) -> u64 {
    if idx + 1 >= n {
        u64::MAX
    } else {
        bucket_lower(idx + 1) - 1
    }
}

/// Approximate `q`-quantile of a log-linear histogram: the upper bound
/// of the first bucket whose cumulative count reaches the target.
///
/// Boundary contract (pinned by `quantile_boundaries` below):
/// * empty histogram (or empty slice) → 0, for any `q`;
/// * `q ≤ 0` (and NaN) → the **lower** bound of the first non-empty
///   bucket — the minimum recorded value's bucket floor, not its
///   ceiling;
/// * `q ≥ 1` → the maximum non-empty bucket's upper bound (clamped to
///   its lower bound for the unbounded clamp bucket);
/// * out-of-range `q` is clamped into `[0, 1]` rather than producing a
///   nonsense rank.
pub fn hist_quantile(hist: &[u64], q: f64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    // NaN compares false everywhere, so `clamp` alone won't scrub it.
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    if q <= 0.0 {
        // Rank 0: the smallest recorded value. Its bucket's *lower*
        // bound is the honest answer (the upper bound would overstate
        // the minimum by up to a bucket width).
        let first = hist.iter().position(|&c| c != 0).unwrap_or(0);
        return bucket_lower(first);
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (idx, &c) in hist.iter().enumerate() {
        cum += c;
        if cum >= target {
            let upper = bucket_upper(idx, hist.len());
            // The clamp bucket has no finite upper bound; report its
            // lower bound so quantiles stay meaningful.
            return if upper == u64::MAX { bucket_lower(idx) } else { upper };
        }
    }
    bucket_lower(hist.len() - 1)
}

/// Per-decision metric slots: prediction count, lookahead aggregates,
/// backtrack and speculation totals, and the depth histogram. Every
/// field updates with one unconditional add per completed prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionCounters {
    /// Completed predictions (all speculation depths — the byte-level
    /// prediction sequence is identical across engines, so counting
    /// everything keeps parity trivial).
    pub events: u64,
    /// Sum of effective lookahead depths (`max(DFA depth, 1, deepest
    /// speculation)` — the same quantity `predict-stop` reports).
    pub la_sum: u64,
    /// Deepest effective lookahead seen.
    pub la_max: u64,
    /// Predictions that fell over to backtracking.
    pub backtracks: u64,
    /// Sum of deepest-speculation token counts.
    pub spec_sum: u64,
    /// Log-linear histogram of effective lookahead depth.
    pub hist: [u64; DEPTH_BUCKETS],
}

impl DecisionCounters {
    /// All-zero counters.
    pub fn new() -> DecisionCounters {
        DecisionCounters {
            events: 0,
            la_sum: 0,
            la_max: 0,
            backtracks: 0,
            spec_sum: 0,
            hist: [0; DEPTH_BUCKETS],
        }
    }

    /// Folds one completed prediction in.
    #[inline]
    pub fn record(&mut self, lookahead: u64, backtracked: bool, spec: u64) {
        self.events += 1;
        self.la_sum += lookahead;
        self.la_max = self.la_max.max(lookahead);
        self.backtracks += backtracked as u64;
        self.spec_sum += spec;
        self.hist[bucket_of(lookahead, DEPTH_BUCKETS)] += 1;
    }

    /// Adds `other` into `self`, cell by cell (`la_max` via max).
    pub fn merge(&mut self, other: &DecisionCounters) {
        self.events += other.events;
        self.la_sum += other.la_sum;
        self.la_max = self.la_max.max(other.la_max);
        self.backtracks += other.backtracks;
        self.spec_sum += other.spec_sum;
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    /// Whether nothing was recorded (zero-event decisions are omitted
    /// from snapshots).
    pub fn is_zero(&self) -> bool {
        self.events == 0
    }

    /// Median effective lookahead (histogram estimate).
    pub fn p50_lookahead(&self) -> u64 {
        hist_quantile(&self.hist, 0.50)
    }

    /// 99th-percentile effective lookahead (histogram estimate).
    pub fn p99_lookahead(&self) -> u64 {
        hist_quantile(&self.hist, 0.99)
    }
}

impl Default for DecisionCounters {
    fn default() -> Self {
        Self::new()
    }
}

/// The metric accumulator: one [`DecisionCounters`] row per decision
/// plus parse-level counters and histograms, and the timing tier
/// (parse latency). A parser's own counters are cleared by
/// [`Parser::reset`] (no carry-over between inputs); long-lived sums —
/// a session's, a registry slot's — are `ParseMetrics` too, which
/// parses are [merged](ParseMetrics::merge) into.
///
/// [`Parser::reset`]: crate::Parser::reset
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMetrics {
    decisions: Vec<DecisionCounters>,
    parses: u64,
    tokens: u64,
    memo_hits: u64,
    memo_entries: u64,
    tokens_hist: [u64; WIDE_BUCKETS],
    memo_hist: [u64; WIDE_BUCKETS],
    /// Parse latency in microseconds (timing tier; a parser never
    /// records it, its accumulators do).
    latency_hist: [u64; WIDE_BUCKETS],
    /// Total wall-clock microseconds across recorded latencies.
    elapsed_micros: u64,
    /// `memo_entries` at the last `finish_parse`, so the per-parse memo
    /// histogram records deltas.
    memo_mark: u64,
    /// A/B switch for the overhead bench **only**: the default (`true`)
    /// hot path is unconditional increments; flipping this off restores
    /// the metrics-free baseline so `metrics_overhead` rows can measure
    /// the substrate's real cost; the parser's `ParseStats` view then
    /// reads zero too. Not reset by [`ParseMetrics::reset`].
    enabled: bool,
}

impl ParseMetrics {
    /// All-zero metrics shaped for `decision_count` decisions.
    pub fn new(decision_count: usize) -> ParseMetrics {
        ParseMetrics {
            decisions: vec![DecisionCounters::new(); decision_count],
            parses: 0,
            tokens: 0,
            memo_hits: 0,
            memo_entries: 0,
            tokens_hist: [0; WIDE_BUCKETS],
            memo_hist: [0; WIDE_BUCKETS],
            latency_hist: [0; WIDE_BUCKETS],
            elapsed_micros: 0,
            memo_mark: 0,
            enabled: true,
        }
    }

    /// Folds one completed prediction of `decision` in.
    #[inline]
    pub fn record_predict(
        &mut self,
        decision: usize,
        lookahead: u64,
        backtracked: bool,
        spec: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.decisions[decision].record(lookahead, backtracked, spec);
    }

    /// Counts one memo-table hit.
    #[inline]
    pub fn record_memo_hit(&mut self) {
        self.memo_hits += self.enabled as u64;
    }

    /// Counts one memo-table write (an entry coming into existence).
    #[inline]
    pub fn record_memo_write(&mut self) {
        self.memo_entries += self.enabled as u64;
    }

    /// Marks one successful parse: bumps the parse counter, credits the
    /// tokens consumed, and folds the per-parse token and memo-entry
    /// histograms.
    pub fn finish_parse(&mut self, tokens: u64) {
        if !self.enabled {
            return;
        }
        self.parses += 1;
        self.tokens += tokens;
        self.tokens_hist[bucket_of(tokens, WIDE_BUCKETS)] += 1;
        let memo_delta = self.memo_entries - self.memo_mark;
        self.memo_mark = self.memo_entries;
        self.memo_hist[bucket_of(memo_delta, WIDE_BUCKETS)] += 1;
    }

    /// Records one parse's wall-clock latency (the timing tier: kept
    /// out of the deterministic JSON). Every call is counted, 0 µs
    /// included.
    pub fn record_latency(&mut self, micros: u64) {
        self.latency_hist[bucket_of(micros, WIDE_BUCKETS)] += 1;
        self.elapsed_micros += micros;
    }

    /// Adds `other` into `self`, cell by cell: sums everywhere except
    /// `la_max`, which merges by max. Zero decision rows are skipped.
    ///
    /// # Panics
    /// Panics when the decision counts differ — merging metrics across
    /// grammars is a caller bug.
    pub fn merge(&mut self, other: &ParseMetrics) {
        assert_eq!(
            self.decisions.len(),
            other.decisions.len(),
            "merging metrics from different grammars"
        );
        for (a, b) in self.decisions.iter_mut().zip(&other.decisions) {
            if !b.is_zero() {
                a.merge(b);
            }
        }
        self.parses += other.parses;
        self.tokens += other.tokens;
        self.memo_hits += other.memo_hits;
        self.memo_entries += other.memo_entries;
        for (mine, theirs) in [
            (&mut self.tokens_hist, &other.tokens_hist),
            (&mut self.memo_hist, &other.memo_hist),
            (&mut self.latency_hist, &other.latency_hist),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.elapsed_micros += other.elapsed_micros;
    }

    /// Clears every counter (allocation kept warm). The `enabled` A/B
    /// switch survives, like the parser's other configuration.
    pub fn reset(&mut self) {
        let enabled = self.enabled;
        let decisions = std::mem::take(&mut self.decisions);
        *self = ParseMetrics { decisions, enabled, ..ParseMetrics::new(0) };
        self.decisions.fill(DecisionCounters::new());
    }

    /// Disables (or re-enables) recording. Exists solely so the
    /// `metrics_overhead` bench can measure an off-baseline; production
    /// paths leave metrics on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is enabled (the default).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Completed parses since the last reset.
    pub fn parses(&self) -> u64 {
        self.parses
    }

    /// Tokens consumed by completed parses since the last reset.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Memo hits since the last reset.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Memo entries written since the last reset.
    pub fn memo_entries(&self) -> u64 {
        self.memo_entries
    }

    /// The per-decision counter rows.
    pub fn decisions(&self) -> &[DecisionCounters] {
        &self.decisions
    }

    /// Whether nothing was recorded since the last reset.
    pub fn is_zero(&self) -> bool {
        self.parses == 0
            && self.tokens == 0
            && self.memo_hits == 0
            && self.memo_entries == 0
            && self.latency_hist.iter().all(|&c| c == 0)
            && self.decisions.iter().all(DecisionCounters::is_zero)
    }

    /// Exports these counters as a labelled snapshot — the one place
    /// labels are attached. `decision_rule` maps a decision index to
    /// its rule name (for exposition labels).
    pub fn snapshot(
        &self,
        fingerprint: u64,
        decision_rule: impl Fn(usize) -> String,
    ) -> MetricsSnapshot {
        let decisions = self
            .decisions
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| SnapshotDecision {
                decision: i as u32,
                rule: decision_rule(i),
                counters: c.clone(),
            })
            .collect();
        MetricsSnapshot {
            fingerprint,
            parses: self.parses,
            tokens: self.tokens,
            memo_hits: self.memo_hits,
            memo_entries: self.memo_entries,
            tokens_hist: self.tokens_hist,
            memo_hist: self.memo_hist,
            latency_hist: self.latency_hist,
            elapsed_micros: self.elapsed_micros,
            exemplars: Vec::new(),
            decisions,
        }
    }
}

/// One decision's counters inside a snapshot, labelled with its index
/// and owning rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDecision {
    /// Decision index (the grammar-wide `DecisionId`).
    pub decision: u32,
    /// Name of the rule the decision belongs to.
    pub rule: String,
    /// The counters.
    pub counters: DecisionCounters,
}

/// A labelled export of the metric counters: the `metrics v1` JSON
/// stream line and the source of the Prometheus exposition. Counters
/// are added up as [`ParseMetrics`] and labelled once, on export.
///
/// Determinism contract: [`MetricsSnapshot::to_json`] with
/// `timing: false` renders only deterministic counters — the parity
/// suite compares these byte-for-byte across engines. Latency and
/// elapsed wall-clock (recorded by sessions, inherently nondeterministic)
/// only appear with `timing: true`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Fingerprint of the source grammar (labels the exposition).
    pub fingerprint: u64,
    /// Completed parses.
    pub parses: u64,
    /// Tokens consumed by completed parses.
    pub tokens: u64,
    /// Memo-table hits.
    pub memo_hits: u64,
    /// Memo-table entries written.
    pub memo_entries: u64,
    /// Histogram of tokens per parse.
    pub tokens_hist: [u64; WIDE_BUCKETS],
    /// Histogram of memo entries written per parse.
    pub memo_hist: [u64; WIDE_BUCKETS],
    /// Histogram of parse latency in microseconds (timing tier only).
    pub latency_hist: [u64; WIDE_BUCKETS],
    /// Total wall-clock microseconds across recorded parses (timing
    /// tier only; `llstar watch` derives rates from deltas of this).
    pub elapsed_micros: u64,
    /// Exemplar references linking histogram tails to captured
    /// requests (timing tier only — capture paths and trace ids are
    /// deployment-specific, never part of the deterministic parity
    /// form). `llstar serve` injects these at snapshot time from its
    /// capture log.
    pub exemplars: Vec<MetricExemplar>,
    /// Non-zero decisions, ascending by index.
    pub decisions: Vec<SnapshotDecision>,
}

/// One exemplar reference: a captured request that stands in for a
/// class of slow/errored/over-budget requests, linking the Prometheus
/// latency histogram (and the metrics JSONL stream) to the on-disk
/// capture `llstar spans` can render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricExemplar {
    /// Why the request was captured: `slow`, `error`, or `budget`.
    pub reason: String,
    /// Requests captured for this reason so far.
    pub count: u64,
    /// The captured request's trace id (32 lowercase hex digits).
    pub trace_id: String,
    /// Filesystem path of the capture file.
    pub capture: String,
    /// The captured request's wall-clock latency in microseconds
    /// (selects which histogram bucket carries the exemplar).
    pub latency_micros: u64,
}

impl MetricsSnapshot {
    /// An all-zero snapshot for `fingerprint`.
    pub fn empty(fingerprint: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            fingerprint,
            parses: 0,
            tokens: 0,
            memo_hits: 0,
            memo_entries: 0,
            tokens_hist: [0; WIDE_BUCKETS],
            memo_hist: [0; WIDE_BUCKETS],
            latency_hist: [0; WIDE_BUCKETS],
            elapsed_micros: 0,
            exemplars: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// Memo hit rate in percent (0 when no memo traffic).
    pub fn memo_hit_pct(&self) -> f64 {
        let total = self.memo_hits + self.memo_entries;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 * 100.0 / total as f64
        }
    }

    /// The `metrics` stream header line (schema v1, no newline).
    pub fn stream_header() -> String {
        StreamKind::Metrics.header_line()
    }

    /// Renders one snapshot line (no trailing newline). With
    /// `timing: false` the output is byte-deterministic for a given
    /// parse sequence — the form the parity suite compares and the one
    /// generated parsers reproduce. `timing: true` additionally emits
    /// the latency histogram and elapsed wall-clock.
    pub fn to_json(&self, engine: &str, timing: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"metrics\",\"fingerprint\":{},\"engine\":{},\"parses\":{},\"tokens\":{},\"memo-hits\":{},\"memo-entries\":{},\"tokens-hist\":{},\"memo-hist\":{}",
            self.fingerprint,
            llstar_core::json::quote(engine),
            self.parses,
            self.tokens,
            self.memo_hits,
            self.memo_entries,
            render_hist(&self.tokens_hist),
            render_hist(&self.memo_hist),
        ));
        if timing {
            out.push_str(&format!(
                ",\"latency-hist\":{},\"elapsed-micros\":{}",
                render_hist(&self.latency_hist),
                self.elapsed_micros
            ));
            if !self.exemplars.is_empty() {
                out.push_str(",\"exemplars\":[");
                for (i, e) in self.exemplars.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"reason\":{},\"count\":{},\"trace-id\":{},\"capture\":{},\"latency-micros\":{}}}",
                        llstar_core::json::quote(&e.reason),
                        e.count,
                        llstar_core::json::quote(&e.trace_id),
                        llstar_core::json::quote(&e.capture),
                        e.latency_micros
                    ));
                }
                out.push(']');
            }
        }
        out.push_str(",\"decisions\":[");
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let c = &d.counters;
            out.push_str(&format!(
                "{{\"decision\":{},\"rule\":{},\"events\":{},\"la-sum\":{},\"la-max\":{},\"backtracks\":{},\"spec-sum\":{},\"hist\":{}}}",
                d.decision,
                llstar_core::json::quote(&d.rule),
                c.events,
                c.la_sum,
                c.la_max,
                c.backtracks,
                c.spec_sum,
                render_hist(&c.hist),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses one snapshot line (the object form [`MetricsSnapshot::to_json`]
    /// writes). Returns the engine label alongside the snapshot.
    ///
    /// # Errors
    /// A description of the first malformed or missing field.
    pub fn from_json(value: &Json) -> Result<(String, MetricsSnapshot), String> {
        if value.get("type").and_then(Json::as_str) != Some("metrics") {
            return Err("not a metrics snapshot line".into());
        }
        let u = |k: &str| -> Result<u64, String> {
            value.get(k).and_then(Json::as_u64).ok_or_else(|| format!("missing field {k:?}"))
        };
        let engine = value
            .get("engine")
            .and_then(Json::as_str)
            .ok_or("missing field \"engine\"")?
            .to_string();
        let mut snap = MetricsSnapshot::empty(u("fingerprint")?);
        snap.parses = u("parses")?;
        snap.tokens = u("tokens")?;
        snap.memo_hits = u("memo-hits")?;
        snap.memo_entries = u("memo-entries")?;
        snap.tokens_hist = parse_hist(value, "tokens-hist")?;
        snap.memo_hist = parse_hist(value, "memo-hist")?;
        if value.get("latency-hist").is_some() {
            snap.latency_hist = parse_hist(value, "latency-hist")?;
            snap.elapsed_micros = u("elapsed-micros")?;
        }
        if let Some(exemplars) = value.get("exemplars").and_then(Json::as_array) {
            for e in exemplars {
                let s = |k: &str| -> Result<String, String> {
                    e.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("missing exemplar field {k:?}"))
                };
                let eu = |k: &str| -> Result<u64, String> {
                    e.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("missing exemplar field {k:?}"))
                };
                snap.exemplars.push(MetricExemplar {
                    reason: s("reason")?,
                    count: eu("count")?,
                    trace_id: s("trace-id")?,
                    capture: s("capture")?,
                    latency_micros: eu("latency-micros")?,
                });
            }
        }
        let decisions =
            value.get("decisions").and_then(Json::as_array).ok_or("missing \"decisions\"")?;
        for d in decisions {
            let du = |k: &str| -> Result<u64, String> {
                d.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("missing decision field {k:?}"))
            };
            let mut counters = DecisionCounters::new();
            counters.events = du("events")?;
            counters.la_sum = du("la-sum")?;
            counters.la_max = du("la-max")?;
            counters.backtracks = du("backtracks")?;
            counters.spec_sum = du("spec-sum")?;
            let hist = d.get("hist").and_then(Json::as_array).ok_or("missing decision hist")?;
            if hist.len() > DEPTH_BUCKETS {
                return Err(format!(
                    "decision hist has {} buckets (max {DEPTH_BUCKETS})",
                    hist.len()
                ));
            }
            for (i, v) in hist.iter().enumerate() {
                counters.hist[i] = v.as_u64().ok_or("non-numeric hist bucket")?;
            }
            snap.decisions.push(SnapshotDecision {
                decision: du("decision")? as u32,
                rule: d
                    .get("rule")
                    .and_then(Json::as_str)
                    .ok_or("missing decision rule")?
                    .to_string(),
                counters,
            });
        }
        Ok((engine, snap))
    }

    /// Renders the snapshot in Prometheus text exposition format. Every
    /// sample carries `grammar` (fingerprint, hex) and `engine` labels;
    /// per-decision samples add `decision` and `rule`.
    pub fn to_prometheus(&self, engine: &str) -> String {
        let g = format!("{:016x}", self.fingerprint);
        let base = format!("grammar=\"{g}\",engine=\"{}\"", prom_escape(engine));
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, labels: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name}{{{labels}}} {value}\n"
            ));
        };
        counter("llstar_parses_total", "Completed parses.", &base, self.parses);
        counter("llstar_tokens_total", "Tokens consumed by completed parses.", &base, self.tokens);
        counter("llstar_memo_hits_total", "Packrat memo-table hits.", &base, self.memo_hits);
        counter(
            "llstar_memo_entries_total",
            "Packrat memo-table entries written.",
            &base,
            self.memo_entries,
        );
        for d in &self.decisions {
            let labels =
                format!("{base},decision=\"d{}\",rule=\"{}\"", d.decision, prom_escape(&d.rule));
            counter(
                "llstar_decision_predictions_total",
                "Completed predictions per decision.",
                &labels,
                d.counters.events,
            );
            counter(
                "llstar_decision_backtracks_total",
                "Predictions that fell over to backtracking.",
                &labels,
                d.counters.backtracks,
            );
        }
        out.push_str(&prom_histogram(
            "llstar_lookahead_depth",
            "Effective lookahead depth per prediction.",
            self.decisions.iter().map(|d| {
                let labels =
                    format!("decision=\"d{}\",rule=\"{}\"", d.decision, prom_escape(&d.rule));
                (labels, &d.counters.hist[..], d.counters.la_sum, d.counters.events)
            }),
            &base,
            &[],
        ));
        out.push_str(&prom_histogram(
            "llstar_tokens_per_parse",
            "Tokens consumed per completed parse.",
            once((String::new(), &self.tokens_hist[..], self.tokens, self.parses)),
            &base,
            &[],
        ));
        let memo_count: u64 = self.memo_hist.iter().sum();
        out.push_str(&prom_histogram(
            "llstar_memo_entries_per_parse",
            "Memo entries written per completed parse.",
            once((String::new(), &self.memo_hist[..], self.memo_entries, memo_count)),
            &base,
            &[],
        ));
        out.push_str(&format!(
            "# HELP llstar_memo_bytes Nominal memo footprint ({MEMO_ENTRY_BYTES} bytes/entry).\n# TYPE llstar_memo_bytes gauge\nllstar_memo_bytes{{{base}}} {}\n",
            self.memo_entries * MEMO_ENTRY_BYTES
        ));
        let lat_count: u64 = self.latency_hist.iter().sum();
        if lat_count > 0 {
            out.push_str(&prom_histogram(
                "llstar_parse_latency_micros",
                "Wall-clock parse latency in microseconds.",
                once((String::new(), &self.latency_hist[..], self.elapsed_micros, lat_count)),
                &base,
                &self.exemplars,
            ));
        }
        out
    }
}

/// Renders a histogram as a JSON array with trailing zeros trimmed
/// (deterministic, and snapshot lines stay short for sparse data).
fn render_hist(hist: &[u64]) -> String {
    let len = hist.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
    let items: Vec<String> = hist[..len].iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Parses a (possibly trimmed) histogram array field into a full-width
/// wide histogram.
fn parse_hist(value: &Json, key: &str) -> Result<[u64; WIDE_BUCKETS], String> {
    let arr = value.get(key).and_then(Json::as_array).ok_or_else(|| format!("missing {key:?}"))?;
    if arr.len() > WIDE_BUCKETS {
        return Err(format!("{key} has {} buckets (max {WIDE_BUCKETS})", arr.len()));
    }
    let mut out = [0u64; WIDE_BUCKETS];
    for (i, v) in arr.iter().enumerate() {
        out[i] = v.as_u64().ok_or_else(|| format!("non-numeric bucket in {key}"))?;
    }
    Ok(out)
}

/// Escapes a label value per the exposition format.
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders one histogram family: cumulative `_bucket{le=...}` samples
/// per series, plus `_sum` and `_count`. Bucket lines carry OpenMetrics
/// exemplars (` # {trace_id="…",capture="…"} value`): an emitted
/// (possibly clamping) bucket line takes the first exemplar not yet
/// attached whose latency lands at or below its upper bound — the link
/// from a p99 bucket to the on-disk capture `llstar spans` renders. At
/// most one exemplar per line, per the exposition format; families
/// other than parse latency pass none.
fn prom_histogram<'h>(
    name: &str,
    help: &str,
    series: impl Iterator<Item = (String, &'h [u64], u64, u64)>,
    base: &str,
    exemplars: &[MetricExemplar],
) -> String {
    let mut out = format!("# HELP {name} {help}\n# TYPE {name} histogram\n");
    let mut used = vec![false; exemplars.len()];
    for (extra, hist, sum, count) in series {
        let labels = if extra.is_empty() { base.to_string() } else { format!("{base},{extra}") };
        let mut cum = 0u64;
        for (idx, &c) in hist.iter().enumerate() {
            cum += c;
            if c == 0 && idx + 1 < hist.len() {
                continue; // keep the exposition sparse; `le` is cumulative anyway
            }
            let upper = bucket_upper(idx, hist.len());
            let le = if upper == u64::MAX { "+Inf".to_string() } else { upper.to_string() };
            out.push_str(&format!("{name}_bucket{{{labels},le=\"{le}\"}} {cum}"));
            let attach = (0..exemplars.len())
                .find(|&i| !used[i] && bucket_of(exemplars[i].latency_micros, hist.len()) <= idx);
            if let Some(i) = attach {
                used[i] = true;
                let e = &exemplars[i];
                out.push_str(&format!(
                    " # {{trace_id=\"{}\",capture=\"{}\"}} {}",
                    prom_escape(&e.trace_id),
                    prom_escape(&e.capture),
                    e.latency_micros
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!("{name}_sum{{{labels}}} {sum}\n"));
        out.push_str(&format!("{name}_count{{{labels}}} {count}\n"));
    }
    out
}

/// Validates Prometheus text exposition syntax: `# HELP`/`# TYPE`
/// comments with known types, and `name{labels} value` samples whose
/// family was TYPE-declared. Returns the number of samples.
///
/// # Errors
/// The first offending line, quoted with its line number.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut declared: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().ok_or(format!("line {n}: TYPE without a family name"))?;
            let kind = parts.next().ok_or(format!("line {n}: TYPE without a kind"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {n}: unknown TYPE kind {kind:?}"));
            }
            declared.push(family.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and free comments
        }
        // OpenMetrics exemplar suffix: `sample # {labels} value`.
        let sample = match line.split_once(" # ") {
            Some((sample, exemplar)) => {
                let (labels, ex_value) = exemplar
                    .rsplit_once(' ')
                    .ok_or(format!("line {n}: exemplar has no value: {line:?}"))?;
                if !labels.starts_with('{') || !labels.ends_with('}') {
                    return Err(format!("line {n}: malformed exemplar labels: {line:?}"));
                }
                if labels.matches('"').count() % 2 != 0 {
                    return Err(format!("line {n}: unbalanced quotes in exemplar: {line:?}"));
                }
                if ex_value.parse::<f64>().is_err() {
                    return Err(format!("line {n}: non-numeric exemplar value {ex_value:?}"));
                }
                sample
            }
            None => line,
        };
        let (name_and_labels, value) =
            sample.rsplit_once(' ').ok_or(format!("line {n}: sample has no value: {line:?}"))?;
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "NaN" {
            return Err(format!("line {n}: non-numeric sample value {value:?}"));
        }
        let name = match name_and_labels.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {n}: unterminated label set: {line:?}"));
                }
                if labels.matches('"').count() % 2 != 0 {
                    return Err(format!("line {n}: unbalanced quotes in labels: {line:?}"));
                }
                name
            }
            None => name_and_labels,
        };
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            return Err(format!("line {n}: invalid metric name {name:?}"));
        }
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !declared.iter().any(|d| d == family || d == name) {
            return Err(format!("line {n}: sample {name:?} has no preceding # TYPE"));
        }
        samples += 1;
    }
    Ok(samples)
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// One `(grammar fingerprint, engine)` label: its exposition names and
/// one accumulator slot per handle.
struct Label {
    fingerprint: u64,
    engine: String,
    decision_rules: Vec<String>,
    slots: Mutex<Vec<Arc<Mutex<ParseMetrics>>>>,
}

impl Label {
    /// Merges every slot and labels the sum.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut sum = ParseMetrics::new(self.decision_rules.len());
        for slot in self.slots.lock().expect("metrics label poisoned").iter() {
            sum.merge(&slot.lock().expect("metrics slot poisoned"));
        }
        sum.snapshot(self.fingerprint, |d| self.decision_rules[d].clone())
    }
}

/// The process-level accumulation point: [`ParseMetrics`] slots keyed
/// by `(grammar fingerprint, engine)`. Registration (cold) takes the
/// registry's mutex; every [`MetricsHandle`] records into a slot of its
/// own, so concurrent recorders never wait on each other.
#[derive(Default)]
pub struct MetricsRegistry {
    labels: Mutex<Vec<Arc<Label>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A new recording handle, with a slot of its own, under
    /// `(fingerprint, engine)` (registering the label if needed).
    /// `decision_rules` names each decision's owning rule; it must be
    /// consistent across registrations of the same label.
    pub fn handle(
        &self,
        fingerprint: u64,
        engine: &str,
        decision_rules: &[String],
    ) -> MetricsHandle {
        let mut labels = self.labels.lock().expect("metrics registry poisoned");
        let label = match labels.iter().find(|l| l.fingerprint == fingerprint && l.engine == engine)
        {
            Some(label) => Arc::clone(label),
            None => {
                let label = Arc::new(Label {
                    fingerprint,
                    engine: engine.to_string(),
                    decision_rules: decision_rules.to_vec(),
                    slots: Mutex::new(Vec::new()),
                });
                labels.push(Arc::clone(&label));
                label
            }
        };
        let slot = Arc::new(Mutex::new(ParseMetrics::new(label.decision_rules.len())));
        label.slots.lock().expect("metrics label poisoned").push(Arc::clone(&slot));
        MetricsHandle { label, slot }
    }

    /// Snapshots every label, in registration order, as
    /// `(engine, snapshot)` pairs.
    pub fn snapshot_all(&self) -> Vec<(String, MetricsSnapshot)> {
        let labels = self.labels.lock().expect("metrics registry poisoned");
        labels.iter().map(|l| (l.engine.clone(), l.snapshot())).collect()
    }
}

/// A recording handle: one registry slot, under one label.
pub struct MetricsHandle {
    label: Arc<Label>,
    slot: Arc<Mutex<ParseMetrics>>,
}

impl MetricsHandle {
    /// Merges one parser's counters and its parse latency into this
    /// handle's slot. Only this handle locks the slot, apart from
    /// snapshots.
    pub fn record(&self, metrics: &ParseMetrics, latency_micros: u64) {
        let mut slot = self.slot.lock().expect("metrics slot poisoned");
        slot.merge(metrics);
        slot.record_latency(latency_micros);
    }

    /// Merges every slot of this handle's label into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.label.snapshot()
    }
}

/// Parses a `metrics` JSONL stream: optional schema header (validated
/// via [`schema::check_header`]) followed by snapshot lines. Returns
/// `(engine, snapshot)` pairs in stream order.
///
/// # Errors
/// The line number and description of the first malformed line, or a
/// schema-version mismatch.
pub fn parse_metrics_jsonl(text: &str) -> Result<Vec<(String, MetricsSnapshot)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if schema::parse_schema_header(&value).is_some() {
            schema::check_header(&value, StreamKind::Metrics)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            continue;
        }
        let pair =
            MetricsSnapshot::from_json(&value).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(pair);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_exhaustive() {
        // Every bucket's bounds nest correctly and bucket_of inverts them.
        for n in [DEPTH_BUCKETS, WIDE_BUCKETS] {
            for idx in 0..n {
                let lo = bucket_lower(idx);
                let hi = bucket_upper(idx, n);
                assert!(lo <= hi, "bucket {idx}/{n}: {lo} > {hi}");
                assert_eq!(bucket_of(lo, n), idx, "lower bound of {idx}/{n}");
                if hi != u64::MAX {
                    assert_eq!(bucket_of(hi, n), idx, "upper bound of {idx}/{n}");
                    assert_eq!(bucket_of(hi + 1, n), idx + 1, "successor of {idx}/{n}");
                }
            }
        }
        // Linear region is exact.
        for v in 0..16 {
            assert_eq!(bucket_of(v, DEPTH_BUCKETS), v as usize);
        }
        // Clamp bucket swallows huge values.
        assert_eq!(bucket_of(u64::MAX, DEPTH_BUCKETS), DEPTH_BUCKETS - 1);
    }

    #[test]
    fn quantiles_from_histograms() {
        let mut hist = [0u64; DEPTH_BUCKETS];
        // 99 predictions at depth 1, one at depth 40.
        hist[1] = 99;
        hist[bucket_of(40, DEPTH_BUCKETS)] = 1;
        assert_eq!(hist_quantile(&hist, 0.50), 1);
        let p100 = hist_quantile(&hist, 1.0);
        assert!((32..=47).contains(&p100), "p100 bucket bound should bracket 40: {p100}");
        assert_eq!(hist_quantile(&[0; 8], 0.5), 0, "empty histogram");
    }

    #[test]
    fn quantile_boundaries() {
        // Empty histogram (and empty slice): 0 for any q, including the
        // extremes.
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(hist_quantile(&[0; 8], q), 0, "empty hist, q={q}");
            assert_eq!(hist_quantile(&[], q), 0, "empty slice, q={q}");
        }

        // q=0 is the minimum: the first non-empty bucket's *lower*
        // bound, not its upper (the historical bug reported bucket 5's
        // ceiling as the minimum of a distribution that starts at 5).
        let mut hist = [0u64; DEPTH_BUCKETS];
        hist[5] = 10;
        hist[9] = 10;
        assert_eq!(hist_quantile(&hist, 0.0), 5, "q=0 is the minimum's bucket floor");
        assert_eq!(hist_quantile(&hist, 1.0), 9, "q=1 is the maximum's bucket ceiling");

        // Single-bucket histogram: every quantile answers that bucket.
        let mut single = [0u64; DEPTH_BUCKETS];
        single[3] = 7;
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(hist_quantile(&single, q), 3, "single bucket, q={q}");
        }

        // All mass in the clamp bucket: its lower bound (no finite
        // upper exists), at q=1 as well as in between.
        let mut clamp = [0u64; DEPTH_BUCKETS];
        clamp[DEPTH_BUCKETS - 1] = 4;
        let floor = bucket_lower(DEPTH_BUCKETS - 1);
        assert_eq!(hist_quantile(&clamp, 0.5), floor);
        assert_eq!(hist_quantile(&clamp, 1.0), floor);

        // Out-of-range and NaN q clamp instead of producing nonsense
        // ranks.
        assert_eq!(hist_quantile(&hist, 2.0), hist_quantile(&hist, 1.0), "q>1 clamps to 1");
        assert_eq!(hist_quantile(&hist, -0.5), hist_quantile(&hist, 0.0), "q<0 clamps to 0");
        assert_eq!(hist_quantile(&hist, f64::NAN), hist_quantile(&hist, 0.0), "NaN scrubs to 0");
    }

    #[test]
    fn exemplars_ride_the_timing_tier_only() {
        let mut m = sample_metrics();
        let plain = m.snapshot(0xfeed, |d| format!("rule{d}")).to_json("serve", false);
        m.record_latency(2000);
        let mut snap = m.snapshot(0xfeed, |d| format!("rule{d}"));
        snap.exemplars.push(MetricExemplar {
            reason: "slow".into(),
            count: 3,
            trace_id: "0af7651916cd43dd8448eb211c80319c".into(),
            capture: "captures/0af7.spans.jsonl".into(),
            latency_micros: 2000,
        });
        // Deterministic form: byte-identical to the exemplar-free snapshot.
        assert_eq!(snap.to_json("serve", false), plain, "exemplars must not leak into parity");
        // Timing form: serialized and round-tripped.
        let timed = snap.to_json("serve", true);
        assert!(timed.contains("\"exemplars\":["), "{timed}");
        let (_, back) = MetricsSnapshot::from_json(&Json::parse(&timed).unwrap()).unwrap();
        assert_eq!(back, snap);

        // Prometheus: the latency bucket carries an OpenMetrics
        // exemplar that still validates.
        let text = snap.to_prometheus("serve");
        let with_exemplar = text
            .lines()
            .find(|l| l.contains(" # {trace_id="))
            .unwrap_or_else(|| panic!("no exemplar suffix in:\n{text}"));
        assert!(with_exemplar.starts_with("llstar_parse_latency_micros_bucket"), "{with_exemplar}");
        assert!(with_exemplar.contains("capture=\"captures/0af7.spans.jsonl\""));
        validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    }

    #[test]
    fn prometheus_validator_checks_exemplar_syntax() {
        let good = "# TYPE x histogram\nx_bucket{le=\"10\"} 1 # {trace_id=\"abc\"} 7\n";
        validate_prometheus(good).expect("exemplar suffix is legal");
        for bad in [
            "# TYPE x histogram\nx_bucket{le=\"10\"} 1 # trace_id 7\n", // no braces
            "# TYPE x histogram\nx_bucket{le=\"10\"} 1 # {trace_id=\"abc\"} seven\n", // bad value
            "# TYPE x histogram\nx_bucket{le=\"10\"} 1 # {trace_id=\"abc} 7\n", // unbalanced quote
        ] {
            assert!(validate_prometheus(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    fn sample_metrics() -> ParseMetrics {
        let mut m = ParseMetrics::new(3);
        m.record_predict(0, 1, false, 0);
        m.record_predict(0, 3, true, 7);
        m.record_predict(2, 2, false, 0);
        m.record_memo_hit();
        m.record_memo_write();
        m.record_memo_write();
        m.finish_parse(120);
        m
    }

    #[test]
    fn snapshot_json_round_trips() {
        let m = sample_metrics();
        let snap = m.snapshot(0xdead_beef, |d| format!("rule{d}"));
        // Zero-event decision 1 is omitted.
        assert_eq!(snap.decisions.len(), 2);
        let json = snap.to_json("interp", false);
        let (engine, back) = MetricsSnapshot::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(engine, "interp");
        assert_eq!(back, snap);
        // Timing round-trip.
        let mut m = m;
        m.record_latency(1500);
        let timed = m.snapshot(0xdead_beef, |d| format!("rule{d}"));
        let json = timed.to_json("session", true);
        let (_, back) = MetricsSnapshot::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, timed);
        // Deterministic form drops timing even when present.
        let json = timed.to_json("session", false);
        let (_, back) = MetricsSnapshot::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, snap, "timing fields must not leak into the deterministic form");
    }

    #[test]
    fn merge_is_cellwise() {
        let mut m = sample_metrics();
        m.record_latency(40);
        let mut twice = m.clone();
        twice.merge(&m);
        let (a, twice) =
            (m.snapshot(7, |d| format!("r{d}")), twice.snapshot(7, |d| format!("r{d}")));
        assert_eq!(twice.parses, 2 * a.parses);
        assert_eq!(twice.tokens, 2 * a.tokens);
        assert_eq!(twice.memo_hist[bucket_of(2, WIDE_BUCKETS)], 2);
        assert_eq!(twice.elapsed_micros, 80);
        assert_eq!(twice.decisions[0].counters.events, 2 * a.decisions[0].counters.events);
        assert_eq!(
            twice.decisions[0].counters.la_max, a.decisions[0].counters.la_max,
            "la_max merges by max"
        );
        assert_eq!(twice.decisions.len(), 2, "zero rows stay zero");
    }

    #[test]
    fn every_recorded_latency_is_counted() {
        let registry = MetricsRegistry::new();
        let handle = registry.handle(1, "serve", &["a".into(), "b".into(), "c".into()]);
        let m = sample_metrics();
        handle.record(&m, 0);
        handle.record(&m, 0);
        let snap = handle.snapshot();
        assert_eq!(snap.latency_hist.iter().sum::<u64>(), 2, "0 µs parses are counted");
        assert_eq!(snap.elapsed_micros, 0);
        let text = snap.to_prometheus("serve");
        assert!(text.contains("llstar_parse_latency_micros_count{grammar=\"0000000000000001\",engine=\"serve\"} 2"), "{text}");
    }

    #[test]
    fn reset_clears_everything_but_enabled() {
        let mut m = sample_metrics();
        m.record_latency(0);
        assert!(!m.is_zero());
        m.set_enabled(false);
        m.reset();
        assert!(m.is_zero(), "reset must clear all counters");
        assert!(!m.enabled(), "the A/B switch survives reset");
        m.record_predict(0, 5, false, 0);
        m.finish_parse(10);
        assert!(m.is_zero(), "disabled metrics must not record");
    }

    #[test]
    fn prometheus_output_validates_and_carries_labels() {
        let mut m = sample_metrics();
        m.record_latency(900);
        let text = m.snapshot(0xabcd, |d| format!("rule{d}")).to_prometheus("session");
        let samples = validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert!(samples > 10, "expected a rich exposition, got {samples} samples");
        assert!(
            text.contains("llstar_parses_total{grammar=\"000000000000abcd\",engine=\"session\"} 1")
        );
        assert!(text.contains("rule=\"rule0\""));
        assert!(text.contains("llstar_parse_latency_micros_count"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn prometheus_validator_rejects_malformed_text() {
        assert!(validate_prometheus("no_type_decl{a=\"b\"} 1").is_err());
        assert!(validate_prometheus("# TYPE x counter\nx{unbalanced=\"} 1").is_err());
        assert!(validate_prometheus("# TYPE x counter\nx notanumber").is_err());
        assert!(validate_prometheus("# TYPE x wat\n").is_err());
        assert!(validate_prometheus("# TYPE x counter\nx 1\n").is_ok());
    }

    #[test]
    fn registry_sums_across_threads_and_slots() {
        let registry = MetricsRegistry::new();
        let rules = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = registry.handle(42, "session", &rules);
                scope.spawn(move || {
                    for _ in 0..50 {
                        h.record(&sample_metrics(), 10);
                    }
                });
            }
        });
        let handle = registry.handle(42, "session", &rules);
        let snap = handle.snapshot();
        assert_eq!(snap.parses, 200);
        assert_eq!(snap.tokens, 200 * 120);
        assert_eq!(snap.elapsed_micros, 2000);
        assert_eq!(snap.latency_hist.iter().sum::<u64>(), 200);
        assert_eq!(snap.decisions[0].counters.events, 400);
        assert_eq!(snap.decisions[0].counters.la_max, 3, "la_max merges by max across slots");
        // A same-label handle reads every slot of the label.
        handle.record(&sample_metrics(), 10);
        assert_eq!(registry.handle(42, "session", &rules).snapshot().parses, 201);
        // Different engine label is independent.
        let other = registry.handle(42, "interp", &rules);
        assert_eq!(other.snapshot().parses, 0);
        assert_eq!(registry.snapshot_all().len(), 2);
    }

    #[test]
    fn metrics_jsonl_stream_round_trips_with_header() {
        let m = sample_metrics();
        let snap = m.snapshot(9, |d| format!("r{d}"));
        let stream = format!(
            "{}\n{}\n{}\n",
            MetricsSnapshot::stream_header(),
            snap.to_json("interp", false),
            snap.to_json("session", true),
        );
        let parsed = parse_metrics_jsonl(&stream).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "interp");
        assert_eq!(parsed[1].0, "session");
        assert_eq!(parsed[0].1, snap);
        // Version bumps are rejected through the shared checker.
        let bad = format!(
            "{}\n{}\n",
            schema::schema_line("metrics", schema::METRICS_STREAM_VERSION + 1),
            snap.to_json("interp", false)
        );
        let err = parse_metrics_jsonl(&bad).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }
}
