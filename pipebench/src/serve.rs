//! The `serve-http` workload: `llstar serve --http` on the three
//! gauntlet grammars with `--workers 2`, run as a child process of the
//! release binary so no process-global state survives between runs.
//!
//! Load is a closed loop of 2 clients, one request per connection (the
//! transport answers `Connection: close`); latency runs from connect to
//! the last byte. Requests are ~2 KB inputs rotating through the
//! grammars, 90% `tree` mode on valid input, 10% `diagnostics` mode on
//! input with one seeded token deleted.

use crate::corpus::cross_run_check;
use crate::layers::{self, Input, Lexer, Loaded};
use crate::report::Report;
use crate::util::{fnv1a, mean, median, ms, peak_rss_mib, quantile, Spans};
use crate::Args;
use llstar_core::schema::{ServeBody, ServeMode, ServeRequest, ServeResponse};
use llstar_core::Json;
use llstar_rng::Rng64;
use llstar_runtime::{NopHooks, ParseSession};
use llstar_suite::gauntlet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Target size of one request's input.
const REQUEST_BYTES: usize = 2048;
/// Distinct inputs per grammar; requests draw from them with repeats.
const POOL_PER_GRAMMAR: usize = 24;
/// Share of requests in `diagnostics` mode.
const DIAGNOSTICS_SHARE: f64 = 0.1;
/// Requests per measured phase, at least: p99 then has 10 samples
/// beyond it.
const MIN_REQUESTS: usize = 1000;
/// Daemon launches per untraced run; `setup_s` is their median. Each
/// launch waits out the accept loop's poll, so one launch is noisy.
const SETUP_SPAWNS: usize = 11;

/// One distinct input with its expected answers, computed in process
/// before any timing.
struct Item {
    grammar: usize,
    input: String,
    /// `to_sexpr` of a `ParseSession` parse: the `tree` answer.
    sexpr: String,
    /// That tree's shape hash, which in-process parses must match.
    shape: u64,
    /// `input` with one token deleted, which the recovering parser
    /// reports at least one diagnostic for.
    broken: String,
}

struct Pool {
    /// Route keys (the grammar declarations' names).
    routes: Vec<String>,
    files: Vec<PathBuf>,
    items: Vec<Item>,
    by_grammar: Vec<Vec<usize>>,
}

/// One encoded request body and what it must be answered with.
struct Req {
    id: u64,
    item: usize,
    diagnostics: bool,
    line: String,
}

fn unit(rng: &mut Rng64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn build_pool(args: &Args, loaded: &[Loaded], report: &mut Report) -> Result<Pool, String> {
    let dir = args.out.join("grammars");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let per = if args.smoke { 3 } else { POOL_PER_GRAMMAR };
    let mut pool = Pool { routes: vec![], files: vec![], items: vec![], by_grammar: vec![] };
    for (g, l) in loaded.iter().enumerate() {
        let file = dir.join(format!("{}.g", l.entry.name));
        std::fs::write(&file, l.entry.source).map_err(|e| format!("{}: {e}", file.display()))?;
        pool.files.push(file);
        pool.routes.push(l.grammar.name.clone());
        pool.by_grammar.push(Vec::new());
        let lexer = Lexer::new(l)?;
        let start = &l.grammar.start_rule().name;
        let mut strict = ParseSession::new(&l.grammar, &l.analysis, start, NopHooks)
            .map_err(|e| e.to_string())?;
        let mut recovering = ParseSession::new(&l.grammar, &l.analysis, start, NopHooks)
            .map_err(|e| e.to_string())?;
        // The daemon's default recovery budget.
        recovering.parser().enable_recovery(10);
        for j in 0..per {
            let seed = args.seed ^ ((g * 1000 + j + 1) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let input = (l.entry.generate)(REQUEST_BYTES, seed);
            let (sexpr, shape) = match strict.parse_to_eof(&input) {
                Ok(tree) => (tree.to_sexpr(&l.grammar, &input), layers::shape_hash(&tree)),
                Err(e) => {
                    report.check(false, || format!("pool {}/{j}: {e}", l.entry.name));
                    continue;
                }
            };
            let tokens = lexer.tokens(&input)?;
            let mut rng = Rng64::seed_from_u64(seed ^ 0xD1A6);
            let broken = (0..32).find_map(|_| {
                let t = tokens[rng.gen_range(0..tokens.len() - 1)];
                let broken = format!("{}{}", &input[..t.span.start], &input[t.span.end..]);
                let diagnosed = recovering.parse_to_eof(&broken).is_ok()
                    && !recovering.parser().errors().is_empty();
                diagnosed.then_some(broken)
            });
            let Some(broken) = broken else {
                report.check(false, || {
                    format!("pool {}/{j}: no deletion is diagnosed", l.entry.name)
                });
                continue;
            };
            pool.by_grammar[g].push(pool.items.len());
            pool.items.push(Item { grammar: g, input, sexpr, shape, broken });
        }
    }
    if pool.by_grammar.iter().any(Vec::is_empty) {
        return Err("a grammar has no usable request inputs".into());
    }
    Ok(pool)
}

/// `n` requests rotating through the grammars, ids from `next_id`.
fn requests(pool: &Pool, rng: &mut Rng64, n: usize, next_id: &mut u64) -> Vec<Req> {
    (0..n)
        .map(|k| {
            let items = &pool.by_grammar[k % pool.by_grammar.len()];
            let item = items[rng.gen_range(0..items.len())];
            let diagnostics = unit(rng) < DIAGNOSTICS_SHARE;
            let it = &pool.items[item];
            let request = ServeRequest {
                id: *next_id,
                grammar: pool.routes[it.grammar].clone(),
                mode: if diagnostics { ServeMode::Diagnostics } else { ServeMode::Tree },
                input: if diagnostics { it.broken.clone() } else { it.input.clone() },
                traceparent: None,
            };
            *next_id += 1;
            Req { id: request.id, item, diagnostics, line: request.to_json() + "\n" }
        })
        .collect()
}

/// Whether `line` is the right answer to `req`: a `tree` response with
/// the in-process s-expression byte for byte, or a `diagnostics`
/// response with at least one diagnostic.
fn answered(pool: &Pool, req: &Req, line: Option<&str>) -> bool {
    let Some(response) = line
        .and_then(|l| Json::parse(l.trim_end()).ok())
        .and_then(|v| ServeResponse::from_json(&v).ok())
    else {
        return false;
    };
    response.id == req.id
        && match (&response.body, req.diagnostics) {
            (ServeBody::Tree { sexpr, .. }, false) => *sexpr == pool.items[req.item].sexpr,
            (ServeBody::Diagnostics { diagnostics, .. }, true) => !diagnostics.is_empty(),
            _ => false,
        }
}

fn input_len(pool: &Pool, req: &Req) -> usize {
    let item = &pool.items[req.item];
    if req.diagnostics {
        item.broken.len()
    } else {
        item.input.len()
    }
}

/// The daemon child process and the loopback port it serves on.
struct Daemon {
    child: Child,
    spawned: Instant,
    port: u16,
}

impl Daemon {
    fn spawn(args: &Args, pool: &Pool, port: u16) -> Result<Daemon, String> {
        let log_path = args.out.join(format!("daemon-{}.log", args.workload));
        let log =
            std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
        let mut cmd = Command::new(&args.llstar);
        cmd.arg("serve").args(&pool.files).args(["--workers", "2"]);
        cmd.args(["--http", &format!("127.0.0.1:{port}")]);
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::from(log));
        let spawned = Instant::now();
        let child = cmd.spawn().map_err(|e| format!("{}: {e}", args.llstar.display()))?;
        Ok(Daemon { child, spawned, port })
    }

    /// Graceful shutdown via `POST /shutdown`; true when the daemon
    /// exited with status 0.
    fn finish(mut self) -> bool {
        let _ = exchange(self.port, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return false,
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One HTTP exchange on a fresh connection.
struct Exchange {
    start: Instant,
    connected: Instant,
    written: Instant,
    end: Instant,
    status: u16,
    body: String,
}

fn exchange(port: u16, method: &str, path: &str, body: &str) -> Result<Exchange, String> {
    let start = Instant::now();
    let mut stream =
        TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let written = Instant::now();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("receive: {e}"))?;
    let end = Instant::now();
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("malformed HTTP response")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed HTTP status line")?;
    Ok(Exchange { start, connected, written, end, status, body: body.to_string() })
}

fn response_line(body: &str) -> Option<&str> {
    body.lines().find(|l| l.starts_with("{\"type\":\"response\""))
}

/// Launches a daemon on a free port and times it to its first answered
/// request.
fn launch(
    args: &Args,
    pool: &Pool,
    first: &Req,
    report: &mut Report,
) -> Result<(Daemon, f64), String> {
    let port = {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("free port: {e}"))?;
        listener.local_addr().map_err(|e| e.to_string())?.port()
    };
    let daemon = Daemon::spawn(args, pool, port)?;
    let deadline = Instant::now() + Duration::from_secs(60);
    // The CLI echoes the requested address, not the bound one: wait on
    // the health probe before the first request.
    loop {
        match exchange(port, "GET", "/healthz", "") {
            Ok(x) if x.status == 200 && x.body.trim() == "ok" => break,
            _ if Instant::now() > deadline => return Err("the daemon never became healthy".into()),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let x = exchange(port, "POST", "/parse", &first.line)?;
    report.check(answered(pool, first, response_line(&x.body)), || {
        "the first request's answer".into()
    });
    let setup = (x.end - daemon.spawned).as_secs_f64();
    Ok((daemon, setup))
}

/// What one closed-loop phase measured, per request in send order.
#[derive(Default)]
struct Phase {
    /// Latency in ms; a failed or missing answer counts as infinite.
    latency: Vec<f64>,
    /// How long a client paused between its requests, in ms.
    late: Vec<f64>,
    /// Benchmark-side transport time per request (connect + write), ms.
    transport: Vec<f64>,
    ok_bytes: usize,
    wall_s: f64,
}

impl Phase {
    fn finite(&self) -> Vec<f64> {
        self.latency.iter().copied().filter(|v| v.is_finite()).collect()
    }
}

/// Closed loop over HTTP: 2 clients, one request per connection, until
/// at least `min` requests and `seconds` have passed (or `reqs` ran out).
fn closed_loop(
    port: u16,
    pool: &Pool,
    reqs: &[Req],
    min: usize,
    seconds: f64,
    mut spans: Option<&mut Spans>,
    report: &mut Report,
) -> Phase {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let client = || {
        let mut done = Vec::new();
        let mut prev_end: Option<Instant> = None;
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= reqs.len() || (k >= min && started.elapsed().as_secs_f64() >= seconds) {
                break;
            }
            let x = exchange(port, "POST", "/parse", &reqs[k].line);
            let gap = match (&x, prev_end) {
                (Ok(x), Some(p)) => ms(x.start.saturating_duration_since(p)),
                _ => 0.0,
            };
            prev_end = x.as_ref().ok().map(|x| x.end);
            done.push((k, x, gap));
        }
        done
    };
    let mut results = std::thread::scope(|s| {
        let other = s.spawn(client);
        let mut mine = client();
        mine.extend(other.join().expect("HTTP client thread panicked"));
        mine
    });
    let wall = started.elapsed().as_secs_f64();
    results.sort_by_key(|r| r.0);
    let mut phase = Phase { wall_s: wall, ..Phase::default() };
    for (k, x, gap) in results {
        let req = &reqs[k];
        let ok =
            matches!(&x, Ok(x) if x.status == 200 && answered(pool, req, response_line(&x.body)));
        report.check(ok, || format!("request {} was not answered correctly", req.id));
        phase.late.push(gap);
        match x {
            Ok(x) if ok => {
                phase.latency.push(ms(x.end - x.start));
                phase.transport.push(ms(x.written - x.start));
                phase.ok_bytes += input_len(pool, req);
                if let Some(spans) = spans.as_deref_mut() {
                    let parent = spans.record("serve.request", req.id, None, x.start, x.end);
                    spans.record("loadgen.connect", req.id, Some(parent), x.start, x.connected);
                    spans.record("loadgen.write", req.id, Some(parent), x.connected, x.written);
                }
            }
            _ => phase.latency.push(f64::INFINITY),
        }
    }
    phase
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut spans = Spans::new();
    let reps = if args.smoke { 1 } else { 3 };
    let setup_reps = if args.traced { reps } else { 1 };
    let (loaded, times) =
        layers::setup(&gauntlet::all(), setup_reps, 0.0, args.traced.then_some(&mut spans))?;
    let pool = build_pool(args, &loaded, report)?;
    let fingerprints: Vec<u64> = pool.items.iter().map(|i| fnv1a(i.sexpr.as_bytes())).collect();
    let labels: Vec<String> = (0..pool.items.len()).map(|i| format!("request-input-{i}")).collect();
    let smoke = if args.smoke { "-smoke" } else { "" };
    cross_run_check(
        &args.out.join(format!("fingerprints-serve-{}{smoke}.txt", args.seed)),
        labels.iter().map(String::as_str),
        &fingerprints,
        report,
    )?;
    let min = if args.smoke { 60 } else { MIN_REQUESTS };
    let mut rng = Rng64::seed_from_u64(args.seed ^ 0x5E_4E);
    let mut next_id = 0u64;
    let first = requests(&pool, &mut rng, 1, &mut next_id).pop().expect("one request");

    if !args.traced {
        let mut setups = Vec::new();
        let mut daemon = None;
        for spawn in 0..if args.smoke { 1 } else { SETUP_SPAWNS } {
            if let Some(previous) = daemon.take() {
                let clean = Daemon::finish(previous);
                report.check(clean, || format!("daemon launch {spawn} did not exit with status 0"));
            }
            let (d, setup) = launch(args, &pool, &first, report)?;
            setups.push(setup);
            daemon = Some(d);
        }
        let daemon = daemon.expect("at least one launch");
        report.metric("setup_s", median(&setups));
        let warm = requests(&pool, &mut rng, 20, &mut next_id);
        closed_loop(daemon.port, &pool, &warm, warm.len(), 0.0, None, report);
        let reqs =
            requests(&pool, &mut rng, min.max((args.seconds * 200.0) as usize), &mut next_id);
        let p = closed_loop(daemon.port, &pool, &reqs, min, args.seconds, None, report);
        report.metric("throughput_mb_s", p.ok_bytes as f64 / 1e6 / p.wall_s);
        report.metric("latency_p50_ms", quantile(&p.latency, 0.50));
        report.metric("latency_p99_ms", quantile(&p.latency, 0.99));
        report.info("throughput_rps", p.finite().len() as f64 / p.wall_s, "req/s");
        report.info("requests", p.latency.len() as f64, "count");
        report.info("loadgen.late_p99_ms", quantile(&p.late, 0.99), "ms");
        report.info("peak_rss_mib", peak_rss_mib(Some(daemon.child.id()))?, "MiB");
        let clean = daemon.finish();
        report.check(clean, || "the daemon did not exit with status 0".into());
        return Ok(());
    }

    // Traced run: the in-process layers over the request inputs, then
    // an untraced and a traced phase against one daemon.
    layers::report_analysis(&loaded, report);
    report.metric("grammar.load_ms", median(&times.load_ms));
    report.metric("core.analyze_ms", median(&times.analyze_ms));
    let lexers = loaded.iter().map(Lexer::new).collect::<Result<Vec<_>, _>>()?;
    let counts = pool
        .items
        .iter()
        .map(|i| lexers[i.grammar].count_tokens(&i.input))
        .collect::<Result<Vec<_>, _>>()?;
    let inputs: Vec<Input<'_>> = pool
        .items
        .iter()
        .zip(&counts)
        .zip(&labels)
        .map(|((i, &tokens), label)| Input { grammar: i.grammar, label, text: &i.input, tokens })
        .collect();
    let mut sessions = loaded
        .iter()
        .map(|l| {
            ParseSession::new(&l.grammar, &l.analysis, l.entry.start_rule, NopHooks)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (mut lex, mut parse, mut sexpr) = (vec![], vec![], vec![]);
    let shapes: Vec<u64> = pool.items.iter().map(|i| i.shape).collect();
    let mut last = None;
    for _ in 0..reps {
        let t = layers::traced_pass(
            &loaded,
            &lexers,
            &mut sessions,
            &inputs,
            &shapes,
            &mut spans,
            report,
        );
        lex.push(t.lex_ms);
        parse.push(t.parse_ms);
        sexpr.push(t.sexpr_ms);
        last = Some(t);
    }
    let totals = last.expect("at least one pass");
    layers::report_counters(&totals, report);
    report.metric("lexer.lex_ms", median(&lex));
    report.metric("lexer.mb_s", totals.bytes as f64 / 1e3 / median(&lex));
    report.metric("runtime.parse_ms", median(&parse));
    report.metric("runtime.to_sexpr_ms", median(&sexpr));
    let (packrat_ms, packrat_entries) =
        layers::packrat_pass(&loaded, &lexers, &inputs, Some(&mut spans), report);
    report.metric("packrat.recognize_ms", packrat_ms);
    report.metric("packrat.memo_entries", packrat_entries as f64);

    let (daemon, _) = launch(args, &pool, &first, report)?;
    let n = if args.smoke { 60 } else { 200 };
    let mut phases = Vec::new();
    for traced_phase in [false, true] {
        let reqs = requests(&pool, &mut rng, n, &mut next_id);
        let spans = traced_phase.then_some(&mut spans);
        phases.push(closed_loop(daemon.port, &pool, &reqs, n, 0.0, spans, report));
    }
    // The daemon's own always-on lex+parse time per request.
    let x = exchange(daemon.port, "GET", "/metrics", "")?;
    let total = |family: &str| -> f64 {
        x.body
            .lines()
            .filter(|l| l.starts_with(family))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    let parse_mean_us =
        total("llstar_parse_latency_micros_sum{") / total("llstar_parse_latency_micros_count{");
    let clean = daemon.finish();
    report.check(clean, || "the daemon did not exit with status 0".into());
    let (plain, traced) = (&phases[0], &phases[1]);
    let client_ms = mean(&traced.finite());
    report.metric("serve.parse_mean_us", parse_mean_us);
    report.metric("serve.outside_parse_ms", client_ms - parse_mean_us / 1e3);
    report.metric("loadgen.late_p99_ms", quantile(&traced.late, 0.99));
    report.metric("trace.overhead_pct", 100.0 * (client_ms / mean(&plain.finite()) - 1.0));
    // What no measured layer explains: the benchmark's own transport
    // calls and the daemon's lex+parse are attributed; queueing, encoding,
    // transport inside the daemon and the accept-loop wait are not.
    let attributed = mean(&traced.transport) + parse_mean_us / 1e3;
    report.metric("trace.unattributed_pct", 100.0 * (client_ms - attributed) / client_ms);
    report.info("client_mean_ms", client_ms, "ms");
    let path = args.out.join(format!("spans-{}-{}{smoke}.jsonl", args.workload, args.seed));
    spans.write(&path).map_err(|e| format!("{}: {e}", path.display()))
}
