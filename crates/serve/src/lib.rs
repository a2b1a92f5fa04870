//! Parse-as-a-service: the sharded batch parse daemon behind
//! `llstar serve`.
//!
//! The paper's expensive artifact — the precomputed lookahead-DFA
//! analysis — is immutable after construction, which makes it exactly
//! the state a server should pay for once and amortize over millions of
//! parses. [`Server`] loads N grammars up front (optionally warm-started
//! from the analysis cache), shares each [`GrammarAnalysis`] plus its
//! compiled dispatch tables across a worker pool through one `Arc`, and
//! answers [`ServeRequest`]s routed by grammar name. Each worker owns a
//! recycled [`ParseSession`] per grammar (memo tables, scanner, and
//! metric allocations stay warm across requests — the packrat
//! memo-recycling discipline applied to a server arena).
//!
//! Robustness is structural, not best-effort:
//! - the request queue is bounded — blocking submitters get genuine
//!   backpressure, non-blocking submitters get a structured
//!   `overloaded` error ([`Server::try_submit`]);
//! - every request runs under the per-request fuel/deadline caps from
//!   the runtime, so one pathological input costs a bounded slice of a
//!   worker, never the daemon ([`ServeErrorKind::FuelExhausted`],
//!   [`ServeErrorKind::Timeout`]);
//! - draining is graceful: queued requests finish, late ones get a
//!   `shutdown` error ([`Server::begin_drain`]).
//!
//! Observability rides the PR 7 metrics substrate: workers record every
//! parse into a shared [`MetricsRegistry`] under a `serve/<grammar>`
//! engine label, exported as Prometheus text ([`Server::prometheus`])
//! and as a metrics-v1 JSONL stream ([`Server::metrics_jsonl`]) that
//! `llstar watch` can tail.
//!
//! Transports live in [`stdio`] (schema-versioned JSONL over
//! stdin/stdout) and [`http`] (a minimal hand-rolled HTTP/1.1 endpoint
//! on `std::net::TcpListener`); both produce responses in request order
//! so serve output can be compared byte-for-byte against single-shot
//! runs.

#![warn(missing_docs)]

pub mod http;
pub mod stdio;

use llstar_core::schema::{
    ServeBody, ServeErrorKind, ServeMode, ServeRequest, ServeResponse, StreamKind,
};
use llstar_core::{
    analyze_cached_metered, analyze_with, cache_path, AnalysisOptions, CacheMetrics,
    GrammarAnalysis, Json,
};
use llstar_grammar::{apply_peg_mode, parse_grammar, validate, Grammar};
use llstar_lexer::Scanner;
use llstar_runtime::metrics::MetricExemplar;
use llstar_runtime::{
    derive_trace_id, parse_traceparent, Diagnostic, MetricsHandle, MetricsRegistry,
    MetricsSnapshot, NopHooks, ParseError, ParseErrorKind, ParseSession, ResourceKind,
    SessionError, SpanTree,
};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Set by the SIGTERM/SIGINT handler and nothing else: an atomic store
/// is all a signal handler may safely do. [`Server::drain_on_signal`]
/// turns it into a [`Server::begin_drain`], off the request path.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// How often [`Server::drain_on_signal`] looks at the signal flag.
const SIGNAL_POLL: Duration = Duration::from_millis(100);

/// How long [`Server::begin_drain`] tries to connect to a listener to
/// wake its accept loop.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Installs a SIGTERM/SIGINT handler that marks the process as
/// signalled, so a server running [`Server::drain_on_signal`] drains
/// instead of dying mid-batch. Uses libc's `signal` symbol directly
/// (already linked by std) — the workspace stays free of external
/// crates. No-op on non-Unix targets.
pub fn register_shutdown_signals() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `on_signal` is an `extern "C"` function that only
        // stores to an atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// Server tunables. `Default` matches the CLI defaults.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads (each owns one recycled session pair per grammar).
    pub workers: usize,
    /// Bounded request-queue depth; beyond it, blocking submitters wait
    /// and [`Server::try_submit`] answers `overloaded`.
    pub queue_capacity: usize,
    /// Per-request interpreter-step cap (deterministic); `None` = uncapped.
    pub fuel: Option<u64>,
    /// Per-request wall-clock cap; `None` = uncapped.
    pub timeout: Option<Duration>,
    /// Inputs larger than this are rejected with `oversized`.
    pub max_input_bytes: usize,
    /// Diagnostics-mode recovery cap (errors per request).
    pub max_errors: usize,
    /// Requests slower than this (wall-clock microseconds) trigger an
    /// exemplar capture. Only meaningful with [`ServeOptions::capture_dir`].
    pub slow_threshold_us: Option<u64>,
    /// Directory slow/error/budget exemplar captures are persisted into.
    /// `Some` turns span recording on for every worker lane; `None`
    /// keeps the default zero-overhead path.
    pub capture_dir: Option<PathBuf>,
}

impl ServeOptions {
    /// Whether workers record span trees (and hence can capture
    /// exemplars): on exactly when a capture directory is configured.
    pub fn spans_enabled(&self) -> bool {
        self.capture_dir.is_some()
    }
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 4,
            queue_capacity: 256,
            fuel: None,
            timeout: None,
            max_input_bytes: 4 << 20,
            max_errors: 10,
            slow_threshold_us: None,
            capture_dir: None,
        }
    }
}

/// Largest request either transport reads, as an HTTP `Content-Length`
/// or one stdio line: one input at `max_input_bytes` in its worst JSON
/// escape (`\u00XX`, six bytes per input byte), plus 64 KiB for request
/// envelopes and the rest of an HTTP batch.
pub fn max_body_bytes(opts: &ServeOptions) -> u64 {
    u64::try_from(opts.max_input_bytes)
        .unwrap_or(u64::MAX)
        .saturating_mul(6)
        .saturating_add(64 << 10)
}

/// One loaded grammar: the immutable analysis shared by every worker.
pub struct GrammarEntry {
    /// The route key: the `grammar Name;` declaration.
    pub name: String,
    /// The (post-PEG-mode) grammar.
    pub grammar: Grammar,
    /// Its lookahead-DFA analysis + compiled dispatch tables.
    pub analysis: GrammarAnalysis,
    /// The grammar's scanner, built once; every worker's sessions start
    /// from a clone.
    pub scanner: Scanner,
    /// The start rule every request parses from (the grammar's first rule).
    pub start_rule: String,
    /// `hit`/`miss`-style cache outcome when a cache directory was used.
    pub cache_status: Option<String>,
}

impl GrammarEntry {
    /// Builds the grammar's scanner and routes the entry by the grammar's
    /// name, parsing from its first rule.
    ///
    /// # Errors
    /// When the grammar's lexer cannot be built.
    pub fn new(
        grammar: Grammar,
        analysis: GrammarAnalysis,
        cache_status: Option<String>,
    ) -> Result<GrammarEntry, String> {
        let scanner = grammar
            .lexer
            .build()
            .map_err(|err| format!("grammar {:?}: lexer: {err}", grammar.name))?;
        let start_rule = grammar.start_rule().name.clone();
        let name = grammar.name.clone();
        Ok(GrammarEntry { name, grammar, analysis, scanner, start_rule, cache_status })
    }
}

/// Loads and analyzes each grammar file, warm-starting from `cache`
/// (the PR 1 `--cache` format) when given. Route keys are the grammar
/// declarations' names and must be unique across `paths`.
///
/// # Errors
/// The first file that cannot be read, parsed, or validated (validation
/// errors are fatal; warnings are dropped — the CLI surfaces them at
/// `check` time), whose lexer cannot be built, or a duplicate route key.
pub fn load_grammars(
    paths: &[String],
    cache: Option<&Path>,
    jobs: Option<usize>,
) -> Result<Vec<GrammarEntry>, String> {
    let mut entries: Vec<GrammarEntry> = Vec::new();
    for path in paths {
        let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let grammar = apply_peg_mode(parse_grammar(&source).map_err(|e| format!("{path}: {e}"))?);
        let fatal: Vec<String> = validate(&grammar)
            .into_iter()
            .filter(|i| i.is_error())
            .map(|i| i.to_string())
            .collect();
        if !fatal.is_empty() {
            return Err(format!("{path}: grammar has errors: {}", fatal.join("; ")));
        }
        if entries.iter().any(|e| e.name == grammar.name) {
            return Err(format!("{path}: duplicate grammar route key {:?}", grammar.name));
        }
        let mut options = AnalysisOptions::from_grammar(&grammar);
        if let Some(jobs) = jobs {
            options.threads = jobs;
        }
        let (analysis, cache_status) = match cache {
            Some(dir) => {
                let cache_file = cache_path(dir, &grammar);
                let mut metrics = CacheMetrics::default();
                let (analysis, status) =
                    analyze_cached_metered(&grammar, &cache_file, &options, &mut metrics)
                        .map_err(|e| format!("{}: {e}", cache_file.display()))?;
                (analysis, Some(status.to_string()))
            }
            None => (analyze_with(&grammar, &options), None),
        };
        entries.push(GrammarEntry::new(grammar, analysis, cache_status)?);
    }
    if entries.is_empty() {
        return Err("no grammars given".into());
    }
    Ok(entries)
}

/// Why a request earned an exemplar capture, in descending priority:
/// a tripped fuel/timeout budget outranks a syntax error, which
/// outranks merely being slow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureReason {
    /// The request tripped its fuel or wall-clock budget.
    Budget,
    /// The request failed with a lex or parse error.
    Error,
    /// The request finished, but slower than `--slow-threshold-us`.
    Slow,
}

impl CaptureReason {
    /// The wire/label name: `budget`, `error`, or `slow`.
    pub fn name(self) -> &'static str {
        match self {
            CaptureReason::Budget => "budget",
            CaptureReason::Error => "error",
            CaptureReason::Slow => "slow",
        }
    }
}

/// The last persisted capture for one reason, plus how many times that
/// reason fired — the source of the metrics exemplars.
#[derive(Debug, Clone, Default)]
struct CaptureCell {
    count: u64,
    trace_id: String,
    capture: String,
    latency_micros: u64,
}

/// Per-engine capture tallies shared by all workers. Touched only on
/// the (rare) capture path, never on a healthy fast request.
#[derive(Default)]
struct CaptureLog {
    by_engine: Mutex<HashMap<String, [CaptureCell; 3]>>,
}

impl CaptureLog {
    fn cell_index(reason: CaptureReason) -> usize {
        match reason {
            CaptureReason::Slow => 0,
            CaptureReason::Error => 1,
            CaptureReason::Budget => 2,
        }
    }

    fn record(
        &self,
        engine: &str,
        reason: CaptureReason,
        trace_id: &str,
        capture: Option<&Path>,
        latency_micros: u64,
    ) {
        let mut map = self.by_engine.lock().expect("capture log poisoned");
        let cells = map.entry(engine.to_string()).or_default();
        let cell = &mut cells[CaptureLog::cell_index(reason)];
        cell.count += 1;
        cell.trace_id = trace_id.to_string();
        cell.capture = capture.map(|p| p.display().to_string()).unwrap_or_default();
        cell.latency_micros = latency_micros;
    }

    /// The engine's exemplars in reason order (`slow`, `error`,
    /// `budget`), skipping reasons that never fired.
    fn exemplars_for(&self, engine: &str) -> Vec<MetricExemplar> {
        let map = self.by_engine.lock().expect("capture log poisoned");
        let Some(cells) = map.get(engine) else { return Vec::new() };
        ["slow", "error", "budget"]
            .iter()
            .zip(cells.iter())
            .filter(|(_, cell)| cell.count > 0)
            .map(|(reason, cell)| MetricExemplar {
                reason: (*reason).to_string(),
                count: cell.count,
                trace_id: cell.trace_id.clone(),
                capture: cell.capture.clone(),
                latency_micros: cell.latency_micros,
            })
            .collect()
    }
}

/// A queued request: the transport's ordering tag, the request, the
/// channel its `(tag, response)` goes back on, and the admission stamp
/// the queue-wait timing in captures derives from.
struct Job {
    tag: u64,
    request: ServeRequest,
    done: Sender<(u64, ServeResponse)>,
    queued_at: Instant,
}

/// The bounded MPMC request queue: a mutex-guarded deque with condvars
/// on both edges. `push` blocks when full (backpressure all the way to
/// the transport's read loop); `try_push` refuses instead. `close`
/// starts the drain: pops keep serving queued jobs, pushes fail.
struct JobQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Why a push was refused.
enum PushError {
    /// The queue is at capacity (only from `try_push`).
    Full(Job),
    /// The queue is closed (draining).
    Closed(Job),
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    // The Err variants intentionally carry the rejected `Job` so the
    // caller can answer it (backpressure/drain responses) without a
    // clone; pushes fail only on shutdown or saturation, so the large
    // Err payload is never on the hot path.
    #[allow(clippy::result_large_err)]
    fn push(&self, job: Job) -> Result<(), PushError> {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if s.closed {
                return Err(PushError::Closed(job));
            }
            if s.jobs.len() < self.capacity {
                s.jobs.push_back(job);
                self.not_empty.notify_one();
                return Ok(());
            }
            s = self.not_full.wait(s).expect("queue poisoned");
        }
    }

    #[allow(clippy::result_large_err)]
    fn try_push(&self, job: Job) -> Result<(), PushError> {
        let mut s = self.state.lock().expect("queue poisoned");
        if s.closed {
            return Err(PushError::Closed(job));
        }
        if s.jobs.len() >= self.capacity {
            return Err(PushError::Full(job));
        }
        s.jobs.push_back(job);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained (workers finish queued requests before exiting).
    fn pop(&self) -> Option<Job> {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = s.jobs.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).expect("queue poisoned");
        }
    }

    fn close(&self) {
        let mut s = self.state.lock().expect("queue poisoned");
        s.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").jobs.len()
    }
}

/// The state every worker shares through one `Arc`: the immutable
/// grammar analyses, the bounded queue, the metrics registry, and the
/// stop signal.
struct Shared {
    grammars: Vec<GrammarEntry>,
    opts: ServeOptions,
    queue: JobQueue,
    registry: MetricsRegistry,
    captures: CaptureLog,
    /// Admission flag, read lock-free on every request; it only ever
    /// goes from true to false, under the `listeners` lock.
    accepting: AtomicBool,
    /// Wake addresses of the listeners [`http::run_http`] is blocked on.
    listeners: Mutex<Vec<SocketAddr>>,
    /// Notified when the server starts draining.
    stopped: Condvar,
    received: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
}

/// Cumulative admission counters, for transports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests submitted (including ones answered with an error).
    pub received: u64,
    /// Requests a worker finished (any status).
    pub completed: u64,
    /// Requests refused at admission (overloaded/shutdown/oversized).
    pub rejected: u64,
    /// Requests currently queued.
    pub queued: usize,
}

/// The daemon: N grammars loaded once, a worker pool over a bounded
/// queue. See the crate docs for the architecture and [`Server::start`]
/// for construction.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the worker pool over `grammars`. Each worker eagerly
    /// sets up its session pair per grammar and registers its metrics
    /// label, so the first request hits warm state.
    ///
    /// # Errors
    /// When a worker thread cannot be spawned.
    pub fn start(grammars: Vec<GrammarEntry>, opts: ServeOptions) -> Result<Server, String> {
        let workers = opts.workers.max(1);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(opts.queue_capacity),
            grammars,
            opts,
            registry: MetricsRegistry::new(),
            captures: CaptureLog::default(),
            accepting: AtomicBool::new(true),
            listeners: Mutex::new(Vec::new()),
            stopped: Condvar::new(),
            received: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("llstar-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| format!("spawning worker {i}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Server { shared, workers: handles })
    }

    /// The loaded grammars, in route order.
    pub fn grammars(&self) -> &[GrammarEntry] {
        &self.shared.grammars
    }

    /// The effective options.
    pub fn options(&self) -> &ServeOptions {
        &self.shared.opts
    }

    /// Submits one request; blocks while the queue is full
    /// (backpressure). The response arrives on `done` as
    /// `(tag, response)`; `tag` is the caller's ordering key, echoed
    /// verbatim. Requests refused at admission (draining, oversized)
    /// are answered immediately on the same channel.
    pub fn submit(&self, tag: u64, request: ServeRequest, done: &Sender<(u64, ServeResponse)>) {
        self.admit(tag, request, done, false);
    }

    /// As [`Server::submit`], but never blocks: a full queue answers
    /// with a structured `overloaded` error instead.
    pub fn try_submit(&self, tag: u64, request: ServeRequest, done: &Sender<(u64, ServeResponse)>) {
        self.admit(tag, request, done, true);
    }

    fn admit(
        &self,
        tag: u64,
        request: ServeRequest,
        done: &Sender<(u64, ServeResponse)>,
        nonblocking: bool,
    ) {
        self.shared.received.fetch_add(1, Ordering::Relaxed);
        if !self.shared.accepting.load(Ordering::SeqCst) {
            self.reject(tag, &request, done, ServeErrorKind::Shutdown);
            return;
        }
        if request.input.len() > self.shared.opts.max_input_bytes {
            let resp = ServeResponse::error(
                request.id,
                &request.grammar,
                ServeErrorKind::Oversized,
                format!(
                    "input is {} bytes (cap {})",
                    request.input.len(),
                    self.shared.opts.max_input_bytes
                ),
            );
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            let _ = done.send((tag, resp));
            return;
        }
        let job = Job { tag, request, done: done.clone(), queued_at: Instant::now() };
        let outcome =
            if nonblocking { self.shared.queue.try_push(job) } else { self.shared.queue.push(job) };
        match outcome {
            Ok(()) => {}
            Err(PushError::Full(job)) => {
                self.reject(job.tag, &job.request, done, ServeErrorKind::Overloaded)
            }
            Err(PushError::Closed(job)) => {
                self.reject(job.tag, &job.request, done, ServeErrorKind::Shutdown)
            }
        }
    }

    fn reject(
        &self,
        tag: u64,
        request: &ServeRequest,
        done: &Sender<(u64, ServeResponse)>,
        kind: ServeErrorKind,
    ) {
        let message = match kind {
            ServeErrorKind::Overloaded => format!(
                "request queue is full ({} deep); retry or submit blocking",
                self.shared.opts.queue_capacity
            ),
            _ => "server is draining and no longer accepts requests".to_string(),
        };
        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
        let _ = done.send((tag, ServeResponse::error(request.id, &request.grammar, kind, message)));
    }

    /// Runs a whole batch and returns the responses in request order —
    /// the transports' and tests' ordered entry point.
    pub fn process_batch(&self, requests: Vec<ServeRequest>) -> Vec<ServeResponse> {
        let (tx, rx) = std::sync::mpsc::channel();
        let n = requests.len();
        for (i, request) in requests.into_iter().enumerate() {
            self.submit(i as u64, request, &tx);
        }
        drop(tx);
        let mut out: Vec<Option<ServeResponse>> = (0..n).map(|_| None).collect();
        for (tag, resp) in rx {
            out[tag as usize] = Some(resp);
        }
        out.into_iter().map(|r| r.expect("every request is answered exactly once")).collect()
    }

    /// The shared metrics registry (one `serve/<grammar>` label per
    /// loaded grammar).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.shared.registry
    }

    /// Every grammar's counters as Prometheus text exposition
    /// (concatenated per-label expositions; passes
    /// `llstar metrics --validate`). When exemplar captures have fired,
    /// latency-histogram buckets carry OpenMetrics exemplars linking to
    /// the capture's trace id and file, and an `llstar_capture_total`
    /// counter family reports per-reason capture counts.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut capture_lines = String::new();
        for (engine, mut snap) in self.shared.registry.snapshot_all() {
            snap.exemplars = self.shared.captures.exemplars_for(&engine);
            for e in &snap.exemplars {
                capture_lines.push_str(&format!(
                    "llstar_capture_total{{engine=\"{engine}\",reason=\"{}\"}} {}\n",
                    e.reason, e.count
                ));
            }
            out.push_str(&snap.to_prometheus(&engine));
        }
        if !capture_lines.is_empty() {
            out.push_str("# HELP llstar_capture_total Exemplar captures persisted, by reason.\n");
            out.push_str("# TYPE llstar_capture_total counter\n");
            out.push_str(&capture_lines);
        }
        out
    }

    /// Every grammar's counters as a metrics-v1 JSONL stream (header
    /// line + one snapshot line per grammar) — the file format
    /// `llstar watch` tails. Snapshot lines carry the engine's exemplar
    /// captures (timing tier).
    pub fn metrics_jsonl(&self) -> String {
        let mut out = MetricsSnapshot::stream_header();
        out.push('\n');
        for (engine, mut snap) in self.shared.registry.snapshot_all() {
            snap.exemplars = self.shared.captures.exemplars_for(&engine);
            out.push_str(&snap.to_json(&engine, true));
            out.push('\n');
        }
        out
    }

    /// Cumulative admission/completion counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            received: self.shared.received.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            queued: self.shared.queue.len(),
        }
    }

    /// The server's stop signal: stops admitting requests, closes the
    /// queue, wakes every [`Server::wait_for_drain`] caller, and wakes
    /// each listener blocked in [`http::run_http`] with a connection to
    /// itself. Queued requests still complete; subsequent submissions
    /// answer `shutdown`. Idempotent, and stops this server only.
    pub fn begin_drain(&self) {
        let listeners = {
            let mut listeners = self.listeners();
            self.shared.accepting.store(false, Ordering::SeqCst);
            self.shared.stopped.notify_all();
            std::mem::take(&mut *listeners)
        };
        self.shared.queue.close();
        for addr in listeners {
            // The accept loop sees the drain once `accept` returns; the
            // connection itself carries nothing. A refused connection
            // means the loop has already gone.
            let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        }
    }

    /// Whether [`Server::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        !self.shared.accepting.load(Ordering::SeqCst)
    }

    /// Blocks until the server drains or `timeout` passes; returns
    /// [`Server::is_draining`].
    pub fn wait_for_drain(&self, timeout: Duration) -> bool {
        let (_listeners, _timeout) = self
            .shared
            .stopped
            .wait_timeout_while(self.listeners(), timeout, |_| !self.is_draining())
            .unwrap_or_else(PoisonError::into_inner);
        self.is_draining()
    }

    /// Blocks until the server drains, calling [`Server::begin_drain`]
    /// first if SIGTERM or SIGINT arrives (see
    /// [`register_shutdown_signals`]). Run it on a thread of its own.
    pub fn drain_on_signal(&self) {
        while !self.wait_for_drain(SIGNAL_POLL) {
            if SIGNALLED.load(Ordering::SeqCst) {
                self.begin_drain();
            }
        }
    }

    /// Registers a listener for [`Server::begin_drain`] to wake, and
    /// returns false (registering nothing) when the server is already
    /// draining.
    pub(crate) fn register_listener(&self, addr: SocketAddr) -> bool {
        let mut listeners = self.listeners();
        if self.is_draining() {
            return false;
        }
        listeners.push(addr);
        true
    }

    /// Forgets a listener whose accept loop has ended.
    pub(crate) fn unregister_listener(&self, addr: SocketAddr) {
        self.listeners().retain(|a| *a != addr);
    }

    /// The `listeners` lock. Every update leaves the address list
    /// valid, so a poisoned lock is recovered rather than propagated
    /// (this runs in `Drop`, which must not panic).
    fn listeners(&self) -> MutexGuard<'_, Vec<SocketAddr>> {
        self.shared.listeners.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Graceful shutdown: drains the queue and joins every worker.
    pub fn shutdown(mut self) {
        self.begin_drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One worker's recycled state for one grammar: a strict session (tree/
/// metrics modes), a recovering session (diagnostics mode), and the
/// registry handle both record into.
struct Lane<'g> {
    strict: ParseSession<'g, NopHooks>,
    recovering: ParseSession<'g, NopHooks>,
    handle: MetricsHandle,
    engine: String,
}

fn worker_loop(shared: &Shared) {
    let opts = &shared.opts;
    let spans = opts.spans_enabled();
    let mut lanes: Vec<Lane<'_>> = shared
        .grammars
        .iter()
        .map(|e| {
            let session = || {
                let scanner = e.scanner.clone();
                ParseSession::with_scanner(
                    &e.grammar,
                    &e.analysis,
                    &e.start_rule,
                    scanner,
                    NopHooks,
                )
            };
            let mut strict = session();
            strict.set_fuel_limit(opts.fuel);
            strict.set_timeout(opts.timeout);
            let mut recovering = session();
            recovering.parser().enable_recovery(opts.max_errors);
            recovering.set_fuel_limit(opts.fuel);
            recovering.set_timeout(opts.timeout);
            if spans {
                strict.parser().enable_span_recording();
                recovering.parser().enable_span_recording();
            }
            let (_, decision_rules) = llstar_runtime::span::labels(&e.grammar, &e.analysis);
            let engine = format!("serve/{}", e.name);
            let handle = shared.registry.handle(e.analysis.fingerprint, &engine, &decision_rules);
            Lane { strict, recovering, handle, engine }
        })
        .collect();
    while let Some(job) = shared.queue.pop() {
        let queue_us = job.queued_at.elapsed().as_micros() as u64;
        let response = handle_request(shared, &mut lanes, job.request, queue_us);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        let _ = job.done.send((job.tag, response));
    }
}

/// Maps a runtime failure onto the wire error taxonomy: budget aborts
/// become `fuel-exhausted`/`timeout`, everything else stays a syntax
/// (`parse`) or `lex` error.
fn parse_error_kind(e: &ParseError) -> ServeErrorKind {
    match e.kind {
        ParseErrorKind::ResourceLimit { resource: ResourceKind::Fuel, .. } => {
            ServeErrorKind::FuelExhausted
        }
        ParseErrorKind::ResourceLimit { resource: ResourceKind::Timeout, .. } => {
            ServeErrorKind::Timeout
        }
        _ => ServeErrorKind::Parse,
    }
}

fn session_error_body(e: &SessionError) -> ServeBody {
    let kind = match e {
        SessionError::Lex(_) => ServeErrorKind::Lex,
        SessionError::Parse(p) => parse_error_kind(p),
    };
    ServeBody::Error { kind, message: e.to_string() }
}

fn handle_request(
    shared: &Shared,
    lanes: &mut [Lane<'_>],
    request: ServeRequest,
    queue_us: u64,
) -> ServeResponse {
    // Resolve the trace id first: a valid client `traceparent` wins,
    // anything else (absent or garbage) falls back to a deterministic
    // derivation over (grammar, id, input) so identical requests carry
    // identical ids regardless of worker count.
    let trace_id = request
        .traceparent
        .as_deref()
        .and_then(parse_traceparent)
        .map(|(trace, _span)| trace)
        .unwrap_or_else(|| derive_trace_id(&request.grammar, request.id, &request.input));
    let Some(idx) = shared.grammars.iter().position(|e| e.name == request.grammar) else {
        let known: Vec<&str> = shared.grammars.iter().map(|e| e.name.as_str()).collect();
        let mut response = ServeResponse::error(
            request.id,
            &request.grammar,
            ServeErrorKind::UnknownGrammar,
            format!("no grammar {:?} is loaded (loaded: {})", request.grammar, known.join(", ")),
        );
        response.trace_id = Some(trace_id);
        return response;
    };
    let entry = &shared.grammars[idx];
    let lane = &mut lanes[idx];
    let started = Instant::now();
    // Diagnostics run on the recovering session, every other mode on
    // the strict one.
    let recovering = request.mode == ServeMode::Diagnostics;
    let session = if recovering { &mut lane.recovering } else { &mut lane.strict };
    // Coverage is recorded for this request only: the map is taken
    // whatever the outcome, so coverage is off again before the next
    // request.
    let coverage = request.mode == ServeMode::Coverage;
    if coverage {
        session.parser().enable_coverage();
    }
    let outcome = session.parse_to_eof(&request.input);
    let map = if coverage { session.parser().take_coverage() } else { None };
    let lexed = !matches!(outcome, Err(SessionError::Lex(_)));
    if lexed {
        let micros = started.elapsed().as_micros() as u64;
        lane.handle.record(session.parser().metrics(), micros);
    }
    let grammar = &entry.grammar;
    let body = match (outcome, request.mode) {
        (Err(e), _) => session_error_body(&e),
        (Ok(tree), ServeMode::Tree) => ServeBody::Tree {
            tokens: tree.token_count() as u64,
            sexpr: tree.to_sexpr(grammar, &request.input),
        },
        (Ok(tree), ServeMode::Diagnostics) => {
            let errors = session.parser().take_errors();
            let diagnostics = Diagnostic::from_errors(grammar, &errors)
                .iter()
                .map(|d| Json::parse(&d.to_json()).expect("diagnostics are valid json"))
                .collect();
            ServeBody::Diagnostics { diagnostics, sexpr: tree.to_sexpr(grammar, &request.input) }
        }
        (Ok(_), ServeMode::Metrics) => {
            let line = session.parser().metrics_snapshot().to_json("serve", false);
            ServeBody::Metrics {
                snapshot: Json::parse(line.trim_end()).expect("metric snapshots are valid json"),
            }
        }
        (Ok(_), ServeMode::Coverage) => {
            let mut map = map.expect("coverage was enabled");
            map.files = 1;
            ServeBody::Coverage {
                report: Json::parse(&map.to_json()).expect("coverage is valid json"),
            }
        }
    };
    let spans = match (lexed, recovering) {
        (false, _) => SpanSource::None,
        (true, true) => SpanSource::Recovering,
        (true, false) => SpanSource::Strict,
    };
    let parse_us = started.elapsed().as_micros() as u64;
    maybe_capture(shared, lane, &request, &trace_id, &body, spans, queue_us, parse_us);
    ServeResponse { id: request.id, grammar: request.grammar, trace_id: Some(trace_id), body }
}

/// Classifies a finished request against the capture triggers, highest
/// priority first: tripped budget, then lex/parse error, then the slow
/// threshold.
fn capture_reason(body: &ServeBody, parse_us: u64, slow: Option<u64>) -> Option<CaptureReason> {
    match body {
        ServeBody::Error {
            kind: ServeErrorKind::FuelExhausted | ServeErrorKind::Timeout, ..
        } => Some(CaptureReason::Budget),
        ServeBody::Error { kind: ServeErrorKind::Lex | ServeErrorKind::Parse, .. } => {
            Some(CaptureReason::Error)
        }
        _ => slow.is_some_and(|t| parse_us >= t).then_some(CaptureReason::Slow),
    }
}

/// Where a finished request's span tree is folded from. Folding walks
/// the whole span log, so it waits until a capture trigger has fired.
enum SpanSource {
    /// No tree: a lex failure never reset the parser, so its recorder
    /// still holds the previous request's log.
    None,
    /// The lane's strict session.
    Strict,
    /// The lane's recovering session.
    Recovering,
}

/// When a capture trigger fired, folds the request's span tree,
/// persists the exemplar capture and records it for the metrics
/// exemplars. No-op (and no allocation) unless span recording is on
/// and a trigger fired.
#[allow(clippy::too_many_arguments)]
fn maybe_capture(
    shared: &Shared,
    lane: &mut Lane<'_>,
    request: &ServeRequest,
    trace_id: &str,
    body: &ServeBody,
    spans: SpanSource,
    queue_us: u64,
    parse_us: u64,
) {
    if !shared.opts.spans_enabled() {
        return;
    }
    let Some(reason) = capture_reason(body, parse_us, shared.opts.slow_threshold_us) else {
        return;
    };
    let spans = match spans {
        SpanSource::None => None,
        SpanSource::Strict => lane.strict.parser().span_tree(),
        SpanSource::Recovering => lane.recovering.parser().span_tree(),
    };
    // Lex failures carry no tree (the parser never ran); an empty tree
    // keeps the capture format uniform.
    let spans = spans.unwrap_or_else(|| SpanTree::from_trace(&[]));
    let path = persist_capture(shared, lane, request, trace_id, reason, &spans, queue_us, parse_us);
    shared.captures.record(&lane.engine, reason, trace_id, path.as_deref(), parse_us);
}

/// Writes one spans-v1 capture file: a schema header, the deterministic
/// capture line (trace id, request coordinates, reason, span tree), a
/// wall-clock timing line, and the engine's metrics snapshot at capture
/// time. Returns the path, or `None` when persistence is off or fails
/// (captures are best-effort; the request path never errors on IO).
#[allow(clippy::too_many_arguments)]
fn persist_capture(
    shared: &Shared,
    lane: &Lane<'_>,
    request: &ServeRequest,
    trace_id: &str,
    reason: CaptureReason,
    spans: &SpanTree,
    queue_us: u64,
    parse_us: u64,
) -> Option<PathBuf> {
    use llstar_core::json::quote;
    let dir = shared.opts.capture_dir.as_ref()?;
    std::fs::create_dir_all(dir).ok()?;
    let mut doc = StreamKind::Spans.header_line();
    doc.push('\n');
    doc.push_str(&format!(
        "{{\"type\":\"capture\",\"trace-id\":{},\"grammar\":{},\"request-id\":{},\"mode\":{},\"reason\":{},\"spans\":{}}}\n",
        quote(trace_id),
        quote(&request.grammar),
        request.id,
        quote(request.mode.name()),
        quote(reason.name()),
        spans.to_json(),
    ));
    doc.push_str(&format!(
        "{{\"type\":\"timing\",\"queue-micros\":{queue_us},\"parse-micros\":{parse_us},\"total-micros\":{}}}\n",
        queue_us + parse_us
    ));
    doc.push_str(&lane.handle.snapshot().to_json(&lane.engine, true));
    doc.push('\n');
    let path = dir.join(format!("{trace_id}.spans.jsonl"));
    std::fs::write(&path, doc).ok()?;
    Some(path)
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    pub(crate) const DEMO: &str = r#"
    grammar Demo;
    s : stmt* EOF ;
    stmt : ID '=' expr ';' ;
    expr : term ('+' term)* ;
    term : ID | INT ;
    ID : [a-z]+ ;
    INT : [0-9]+ ;
    WS : [ \t\r\n]+ -> skip ;
    "#;

    pub(crate) fn demo_entries() -> Vec<GrammarEntry> {
        let grammar = apply_peg_mode(parse_grammar(DEMO).expect("grammar"));
        let analysis = llstar_core::analyze(&grammar);
        vec![GrammarEntry::new(grammar, analysis, None).expect("demo lexer builds")]
    }

    pub(crate) fn demo_server() -> Server {
        Server::start(demo_entries(), ServeOptions::default()).expect("start")
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::demo_entries;
    use super::*;
    use llstar_core::schema::StreamKind;

    fn request(id: u64, mode: ServeMode, input: &str) -> ServeRequest {
        ServeRequest { id, grammar: "Demo".into(), mode, input: input.into(), traceparent: None }
    }

    #[test]
    fn an_unbuildable_lexer_is_reported_when_the_entry_is_built() {
        let grammar = apply_peg_mode(parse_grammar("grammar Bad; s : A ; A : [a]* ;").unwrap());
        let analysis = llstar_core::analyze(&grammar);
        let err = GrammarEntry::new(grammar, analysis, None).err().expect("nullable lexer rule");
        assert_eq!(err, "grammar \"Bad\": lexer: lexer rule A can match the empty string");
    }

    #[test]
    fn batch_responses_come_back_in_request_order() {
        let server = Server::start(demo_entries(), ServeOptions::default()).expect("start");
        let requests: Vec<ServeRequest> =
            (0..32).map(|i| request(i, ServeMode::Tree, "a = 1;")).collect();
        let responses = server.process_batch(requests);
        assert_eq!(responses.len(), 32);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, i as u64, "responses reordered");
            assert!(
                matches!(&resp.body, ServeBody::Tree { sexpr, .. } if sexpr.contains("(stmt")),
                "{:?}",
                resp.body
            );
        }
        let stats = server.stats();
        assert_eq!(stats.received, 32);
        assert_eq!(stats.completed, 32);
        assert_eq!(stats.rejected, 0);
        server.shutdown();
    }

    #[test]
    fn error_taxonomy_is_structured() {
        let opts = ServeOptions { max_input_bytes: 64, fuel: Some(40), ..ServeOptions::default() };
        let server = Server::start(demo_entries(), opts).expect("start");
        let responses = server.process_batch(vec![
            ServeRequest {
                id: 0,
                grammar: "Nope".into(),
                mode: ServeMode::Tree,
                input: "".into(),
                traceparent: None,
            },
            request(1, ServeMode::Tree, "a = ?;"),
            request(2, ServeMode::Tree, "a = ;"),
            request(3, ServeMode::Tree, &"a = 1;".repeat(10)),
            request(4, ServeMode::Tree, &"x = y;".repeat(100)),
            request(5, ServeMode::Tree, "a = 1;"),
        ]);
        let kinds: Vec<Option<ServeErrorKind>> = responses
            .iter()
            .map(|r| match &r.body {
                ServeBody::Error { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds[0], Some(ServeErrorKind::UnknownGrammar));
        assert_eq!(kinds[1], Some(ServeErrorKind::Lex));
        assert_eq!(kinds[2], Some(ServeErrorKind::Parse));
        assert_eq!(kinds[3], Some(ServeErrorKind::FuelExhausted), "{:?}", responses[3].body);
        assert_eq!(kinds[4], Some(ServeErrorKind::Oversized));
        assert_eq!(kinds[5], None, "{:?}", responses[5].body);
    }

    #[test]
    fn try_submit_answers_overloaded_when_the_queue_is_full() {
        // One worker, capacity-1 queue: park the worker on a slow
        // request, fill the queue, then try_submit must refuse.
        let opts = ServeOptions { workers: 1, queue_capacity: 1, ..ServeOptions::default() };
        let server = Server::start(demo_entries(), opts).expect("start");
        let (tx, rx) = std::sync::mpsc::channel();
        let slow = "a = 1;".repeat(4000);
        server.submit(0, request(0, ServeMode::Tree, &slow), &tx);
        server.submit(1, request(1, ServeMode::Tree, &slow), &tx);
        // Queue may momentarily hold both briefly; spin until the worker
        // has picked up the first so exactly one slot is occupied.
        let mut overloaded = false;
        for attempt in 0..200 {
            server.try_submit(100 + attempt, request(9, ServeMode::Tree, "a = 1;"), &tx);
            let (_, resp) = rx.recv().expect("response");
            if matches!(resp.body, ServeBody::Error { kind: ServeErrorKind::Overloaded, .. }) {
                overloaded = true;
                break;
            }
            if server.stats().completed >= 2 {
                break; // both slow requests already done; can't fill anymore
            }
        }
        assert!(overloaded, "a capacity-1 queue never reported overloaded");
        server.shutdown();
    }

    #[test]
    fn drain_answers_shutdown_and_completes_queued_work() {
        let server = Server::start(demo_entries(), ServeOptions::default()).expect("start");
        let (tx, rx) = std::sync::mpsc::channel();
        server.submit(0, request(0, ServeMode::Tree, "a = 1;"), &tx);
        server.begin_drain();
        assert!(server.is_draining());
        server.submit(1, request(1, ServeMode::Tree, "a = 1;"), &tx);
        let mut by_tag = std::collections::HashMap::new();
        for _ in 0..2 {
            let (tag, resp) = rx.recv().expect("both answered");
            by_tag.insert(tag, resp);
        }
        assert!(
            matches!(by_tag[&0].body, ServeBody::Tree { .. }),
            "queued request must complete during drain: {:?}",
            by_tag[&0].body
        );
        assert!(
            matches!(by_tag[&1].body, ServeBody::Error { kind: ServeErrorKind::Shutdown, .. }),
            "post-drain request must answer shutdown: {:?}",
            by_tag[&1].body
        );
        server.shutdown();
    }

    #[test]
    fn all_modes_answer_and_metrics_registry_fills() {
        let server = Server::start(demo_entries(), ServeOptions::default()).expect("start");
        let responses = server.process_batch(vec![
            request(0, ServeMode::Tree, "a = 1;"),
            request(1, ServeMode::Diagnostics, "a = ; b = 2;"),
            request(2, ServeMode::Coverage, "a = 1 + 2;"),
            request(3, ServeMode::Metrics, "a = 1;"),
        ]);
        assert!(matches!(&responses[0].body, ServeBody::Tree { .. }));
        match &responses[1].body {
            ServeBody::Diagnostics { diagnostics, sexpr } => {
                assert_eq!(diagnostics.len(), 1, "one recovered error expected");
                assert!(sexpr.contains("(stmt"), "{sexpr}");
            }
            other => panic!("diagnostics mode answered {other:?}"),
        }
        match &responses[2].body {
            ServeBody::Coverage { report } => {
                assert_eq!(report.get("type").and_then(Json::as_str), Some("coverage"))
            }
            other => panic!("coverage mode answered {other:?}"),
        }
        match &responses[3].body {
            ServeBody::Metrics { snapshot } => {
                assert!(snapshot.get("parses").and_then(Json::as_u64).is_some())
            }
            other => panic!("metrics mode answered {other:?}"),
        }
        // The registry saw all four parses under the serve/Demo label.
        let snaps = server.registry().snapshot_all();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].0, "serve/Demo");
        assert_eq!(snaps[0].1.parses, 4);
        // And both exports render.
        let prom = server.prometheus();
        assert!(llstar_runtime::validate_prometheus(&prom).expect("valid exposition") > 0);
        let jsonl = server.metrics_jsonl();
        assert!(jsonl.starts_with(&StreamKind::Metrics.header_line()));
        assert_eq!(llstar_runtime::parse_metrics_jsonl(&jsonl).expect("parses").len(), 1);
        server.shutdown();
    }

    #[test]
    fn budget_breach_persists_a_capture_and_exposes_exemplars() {
        let dir = std::env::temp_dir().join(format!("llstar-capture-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            fuel: Some(40),
            capture_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let server = Server::start(demo_entries(), opts).expect("start");
        let responses = server.process_batch(vec![
            request(0, ServeMode::Tree, "a = 1;"),
            request(1, ServeMode::Tree, &"a = 1;".repeat(10)),
        ]);
        // Every worker-handled response carries a deterministic trace id.
        let ok_id = responses[0].trace_id.as_deref().expect("ok response has a trace id");
        assert_eq!(ok_id, derive_trace_id("Demo", 0, "a = 1;"));
        assert!(
            matches!(
                &responses[1].body,
                ServeBody::Error { kind: ServeErrorKind::FuelExhausted, .. }
            ),
            "{:?}",
            responses[1].body
        );
        let slow_id = responses[1].trace_id.clone().expect("budget response has a trace id");

        // The breach persisted a spans-v1 capture named after the trace id.
        let path = dir.join(format!("{slow_id}.spans.jsonl"));
        let text = std::fs::read_to_string(&path).expect("capture file written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + capture + timing + metrics: {text}");
        assert_eq!(lines[0], StreamKind::Spans.header_line());
        let capture = Json::parse(lines[1]).expect("capture line is json");
        assert_eq!(capture.get("type").and_then(Json::as_str), Some("capture"));
        assert_eq!(capture.get("reason").and_then(Json::as_str), Some("budget"));
        assert_eq!(capture.get("trace-id").and_then(Json::as_str), Some(slow_id.as_str()));
        let spans = capture.get("spans").expect("span tree embedded");
        let tree = SpanTree::from_json(spans).expect("embedded tree validates");
        assert!(!tree.nodes.is_empty());
        assert!(Json::parse(lines[2]).is_ok() && Json::parse(lines[3]).is_ok());

        // The exemplar rides both expositions and links back to the capture.
        let prom = server.prometheus();
        assert!(llstar_runtime::validate_prometheus(&prom).expect("valid exposition") > 0);
        assert!(prom.contains(&slow_id), "trace id in exposition: {prom}");
        assert!(
            prom.contains("llstar_capture_total{engine=\"serve/Demo\",reason=\"budget\"} 1"),
            "{prom}"
        );
        let jsonl = server.metrics_jsonl();
        assert!(jsonl.contains(&slow_id) && jsonl.contains("\"reason\":\"budget\""), "{jsonl}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
