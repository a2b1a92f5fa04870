//! The `llstar` command-line tool — the ANTLR-tool experience:
//!
//! ```text
//! llstar check <grammar.g>                 validate + analyze, print report
//! llstar dfa <grammar.g> [rule]            print lookahead DFAs
//! llstar atn <grammar.g>                   print the ATN in Graphviz dot
//! llstar generate <grammar.g> [out.rs]     emit a standalone Rust parser
//! llstar parse <grammar.g> <rule> <file>   parse a file, print the tree
//! ```
//!
//! Analysis-carrying subcommands (`check`, `dfa`, `generate`, `compile`,
//! `parse`) accept two shared flags:
//!
//! * `--jobs N` — worker threads for per-decision DFA construction
//!   (`0`/default = available parallelism, `1` = sequential). Every value
//!   produces byte-identical analyses; it only changes wall-clock time.
//! * `--cache <dir>` — persistent analysis cache. The serialized
//!   analysis is stored as `<dir>/<grammar-name>.dfa`, guarded by an
//!   FNV-1a fingerprint of the grammar text; a matching cache file is
//!   loaded without running subset construction, anything else (absent,
//!   stale after a grammar edit, corrupted) triggers re-analysis and an
//!   atomic rewrite. The hit/miss outcome is reported on stderr.

use llstar::codegen::{generate_with, CodegenOptions};
use llstar::core::json::Json;
use llstar::core::{
    analyze_cached_metered, analyze_with, cache_path, deserialize_analysis, schema,
    serialize_analysis, AnalysisOptions, AnalysisRecord, Atn, CacheMetrics, DecisionClass,
    GrammarAnalysis,
};
use llstar::grammar::{apply_peg_mode, parse_grammar, validate, Grammar};
use llstar::runtime::{
    diagnostics_jsonl, parse_metrics_jsonl, parse_text, parse_text_recovering_traced,
    parse_text_traced, render_all, replay_coverage, validate_prometheus, Diagnostic,
    MetricsSnapshot, NopHooks, ParseSession, ParseStats, RingSink, SpanTree, TraceEvent, TraceSink,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Flags shared by every analysis-carrying subcommand.
struct Flags {
    /// `--cache <dir>`: analysis cache directory.
    cache: Option<PathBuf>,
    /// `--jobs N`: analysis worker threads (0 = available parallelism).
    jobs: Option<usize>,
    /// `--json <path>`: JSONL export target (`profile`, `check`).
    json: Option<PathBuf>,
    /// `--rule <name>`: start rule override (`profile`, `check`).
    rule: Option<String>,
    /// `-v`/`--verbose`: extra diagnostics (e.g. cache metrics).
    verbose: bool,
    /// `--trace`: emit trace hooks in generated parsers (`generate`).
    trace: bool,
    /// `--diagnostics`: recover from syntax errors and render annotated
    /// diagnostics instead of stopping at the first error.
    diagnostics: bool,
    /// `--max-errors N`: recovery cap (implies `--diagnostics`).
    max_errors: Option<usize>,
    /// `--coverage`: emit coverage counters in generated parsers
    /// (`generate`).
    coverage: bool,
    /// `--metrics`: emit metric counters in generated parsers
    /// (`generate`).
    metrics: bool,
    /// `--chrome-trace <file>`: export a Chrome `trace_event` file
    /// (`coverage`).
    chrome_trace: Option<PathBuf>,
    /// `--fail-uncovered`: exit non-zero when alternatives stay
    /// uncovered (`coverage`).
    fail_uncovered: bool,
    /// `--prometheus`: render Prometheus text exposition (`metrics`).
    prometheus: bool,
    /// `--sample N`: keep 1 in N top-level prediction windows in the
    /// trace stream (`profile`).
    sample: Option<u64>,
    /// `--validate <file>`: check a Prometheus exposition file instead
    /// of measuring (`metrics`).
    validate: Option<PathBuf>,
    /// `--once`: render a single frame and exit (`watch`).
    once: bool,
    /// `--top N`: dashboard rows (`watch`, default 10).
    top: Option<usize>,
    /// `--interval-ms N`: dashboard refresh period (`watch`, default
    /// 1000); also the metrics-JSONL rewrite period (`serve`).
    interval_ms: Option<u64>,
    /// `--workers N`: parse worker threads (`serve`, default 4).
    workers: Option<usize>,
    /// `--http ADDR`: bind the HTTP/1.1 transport (`serve`).
    http: Option<String>,
    /// `--stdio`: keep the stdio transport alongside `--http` (`serve`).
    stdio: bool,
    /// `--fuel N`: per-request interpreter-step cap (`serve`).
    fuel: Option<u64>,
    /// `--timeout-ms N`: per-request wall-clock cap (`serve`).
    timeout_ms: Option<u64>,
    /// `--queue N`: bounded request-queue depth (`serve`, default 256).
    queue: Option<usize>,
    /// `--max-input-bytes N`: per-request input cap (`serve`, default 4 MiB).
    max_input_bytes: Option<usize>,
    /// `--metrics-jsonl <path>`: periodically rewrite a metrics-v1
    /// JSONL file `llstar watch` can tail (`serve`).
    metrics_jsonl: Option<PathBuf>,
    /// `--slow-threshold-us N`: requests slower than this trigger an
    /// exemplar capture (`serve`).
    slow_threshold_us: Option<u64>,
    /// `--capture-dir <dir>`: persist slow/error/budget exemplar
    /// captures here; also turns span recording on (`serve`).
    capture_dir: Option<PathBuf>,
    /// `--bench`: time every lexer path instead of tokenizing once
    /// (`lex`).
    bench: bool,
}

impl Flags {
    /// Whether error recovery was requested, and the effective cap.
    fn recovery(&self) -> Option<usize> {
        match (self.diagnostics, self.max_errors) {
            (_, Some(n)) => Some(n),
            (true, None) => Some(10),
            (false, None) => None,
        }
    }
}

/// Extracts the shared flags from `args`, returning the remaining
/// positional arguments and the parsed flags.
fn split_flags(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut flags = Flags {
        cache: None,
        jobs: None,
        json: None,
        rule: None,
        verbose: false,
        trace: false,
        diagnostics: false,
        max_errors: None,
        coverage: false,
        metrics: false,
        chrome_trace: None,
        fail_uncovered: false,
        prometheus: false,
        sample: None,
        validate: None,
        once: false,
        top: None,
        interval_ms: None,
        workers: None,
        http: None,
        stdio: false,
        fuel: None,
        timeout_ms: None,
        queue: None,
        max_input_bytes: None,
        metrics_jsonl: None,
        slow_threshold_us: None,
        capture_dir: None,
        bench: false,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache" => {
                let dir = it.next().ok_or("--cache needs a directory")?;
                flags.cache = Some(PathBuf::from(dir));
            }
            "--jobs" => {
                let n = it.next().ok_or("--jobs needs a thread count")?;
                flags.jobs =
                    Some(n.parse().map_err(|_| format!("--jobs: bad thread count {n:?}"))?);
            }
            "--json" => {
                let path = it.next().ok_or("--json needs a file path")?;
                flags.json = Some(PathBuf::from(path));
            }
            "--rule" => {
                let name = it.next().ok_or("--rule needs a rule name")?;
                flags.rule = Some(name.clone());
            }
            "-v" | "--verbose" => flags.verbose = true,
            "--trace" => flags.trace = true,
            "--diagnostics" => flags.diagnostics = true,
            "--max-errors" => {
                let n = it.next().ok_or("--max-errors needs a count")?;
                flags.max_errors =
                    Some(n.parse().map_err(|_| format!("--max-errors: bad count {n:?}"))?);
            }
            "--coverage" => flags.coverage = true,
            "--metrics" => flags.metrics = true,
            "--chrome-trace" => {
                let path = it.next().ok_or("--chrome-trace needs a file path")?;
                flags.chrome_trace = Some(PathBuf::from(path));
            }
            "--fail-uncovered" => flags.fail_uncovered = true,
            "--prometheus" => flags.prometheus = true,
            "--sample" => {
                let n = it.next().ok_or("--sample needs a divisor")?;
                flags.sample = Some(n.parse().map_err(|_| format!("--sample: bad divisor {n:?}"))?);
            }
            "--validate" => {
                let path = it.next().ok_or("--validate needs a file path")?;
                flags.validate = Some(PathBuf::from(path));
            }
            "--once" => flags.once = true,
            "--top" => {
                let n = it.next().ok_or("--top needs a row count")?;
                flags.top = Some(n.parse().map_err(|_| format!("--top: bad row count {n:?}"))?);
            }
            "--interval-ms" => {
                let n = it.next().ok_or("--interval-ms needs a millisecond count")?;
                flags.interval_ms =
                    Some(n.parse().map_err(|_| format!("--interval-ms: bad count {n:?}"))?);
            }
            "--workers" => {
                let n = it.next().ok_or("--workers needs a thread count")?;
                flags.workers =
                    Some(n.parse().map_err(|_| format!("--workers: bad thread count {n:?}"))?);
            }
            "--http" => {
                let addr = it.next().ok_or("--http needs a bind address (host:port)")?;
                flags.http = Some(addr.clone());
            }
            "--stdio" => flags.stdio = true,
            "--fuel" => {
                let n = it.next().ok_or("--fuel needs a step count")?;
                flags.fuel = Some(n.parse().map_err(|_| format!("--fuel: bad step count {n:?}"))?);
            }
            "--timeout-ms" => {
                let n = it.next().ok_or("--timeout-ms needs a millisecond count")?;
                flags.timeout_ms =
                    Some(n.parse().map_err(|_| format!("--timeout-ms: bad count {n:?}"))?);
            }
            "--queue" => {
                let n = it.next().ok_or("--queue needs a depth")?;
                flags.queue = Some(n.parse().map_err(|_| format!("--queue: bad depth {n:?}"))?);
            }
            "--max-input-bytes" => {
                let n = it.next().ok_or("--max-input-bytes needs a byte count")?;
                flags.max_input_bytes =
                    Some(n.parse().map_err(|_| format!("--max-input-bytes: bad count {n:?}"))?);
            }
            "--metrics-jsonl" => {
                let path = it.next().ok_or("--metrics-jsonl needs a file path")?;
                flags.metrics_jsonl = Some(PathBuf::from(path));
            }
            "--slow-threshold-us" => {
                let n = it.next().ok_or("--slow-threshold-us needs a microsecond count")?;
                flags.slow_threshold_us =
                    Some(n.parse().map_err(|_| format!("--slow-threshold-us: bad count {n:?}"))?);
            }
            "--capture-dir" => {
                let dir = it.next().ok_or("--capture-dir needs a directory")?;
                flags.capture_dir = Some(PathBuf::from(dir));
            }
            "--bench" => flags.bench = true,
            _ => positional.push(arg.clone()),
        }
    }
    Ok((positional, flags))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, flags) = match split_flags(&args) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("check") => with_grammar(&args, &flags, 2, |g, a| {
            report(g, a);
            check_input(g, a, args.get(2), &flags)
        }),
        Some("dfa") => with_grammar(&args, &flags, 2, |g, a| {
            dump_dfas(g, a, args.get(2).map(String::as_str));
            Ok(())
        }),
        Some("atn") => with_grammar(&args, &flags, 2, |g, _| {
            println!("{}", Atn::from_grammar(g).to_dot(g));
            Ok(())
        }),
        Some("generate") => with_grammar(&args, &flags, 2, |g, a| {
            let code = generate_with(
                g,
                a,
                CodegenOptions {
                    trace: flags.trace,
                    coverage: flags.coverage,
                    metrics: flags.metrics,
                },
            )?;
            match args.get(2) {
                Some(path) => {
                    std::fs::write(path, code).map_err(|e| e.to_string())?;
                    eprintln!("wrote {path}");
                }
                None => print!("{code}"),
            }
            Ok(())
        }),
        Some("compile") => with_grammar(&args, &flags, 3, |g, a| {
            let out = &args[2];
            std::fs::write(out, serialize_analysis(g, a)).map_err(|e| e.to_string())?;
            eprintln!("wrote serialized lookahead DFAs to {out}");
            Ok(())
        }),
        Some("profile") => {
            with_grammar(&args, &flags, 2, |g, a| profile(g, a, args.get(2), &flags))
        }
        Some("coverage") => with_grammar(&args, &flags, 3, |g, a| coverage(g, a, &args[2], &flags)),
        Some("metrics") => match &flags.validate {
            Some(path) => validate_prometheus_file(path),
            None => with_grammar(&args, &flags, 3, |g, a| metrics_cmd(g, a, &args[2], &flags)),
        },
        Some("lex") => with_grammar(&args, &flags, 3, |g, a| lex_cmd(g, a, &args[2], &flags)),
        Some("watch") => watch(&args, &flags),
        Some("serve") => serve_cmd(&args, &flags),
        Some("spans") => spans_cmd(&args, &flags),
        Some("parse") => with_grammar(&args, &flags, 4, |g, a| {
            let rule = &args[2];
            // Optional: --dfa <file> loads pre-compiled DFAs instead of
            // the freshly computed analysis.
            let loaded;
            let a = if let Some(pos) = args.iter().position(|x| x == "--dfa") {
                let path = args.get(pos + 1).ok_or("--dfa needs a file")?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                loaded = deserialize_analysis(g, &text).map_err(|e| e.to_string())?;
                &loaded
            } else {
                a
            };
            let input =
                std::fs::read_to_string(&args[3]).map_err(|e| format!("{}: {e}", args[3]))?;
            let (tree, stats) = parse_text(g, a, &input, rule, NopHooks)?;
            println!("{}", tree.to_sexpr(g, &input));
            eprintln!(
                "ok: {} tokens, {} decision events, avg lookahead {:.2}, {} backtracks",
                tree.token_count(),
                stats.total_events(),
                stats.avg_lookahead(),
                stats.total_backtrack_events()
            );
            Ok(())
        }),
        _ => {
            eprintln!(
                "usage: llstar <check|dfa|atn|generate|parse> <grammar.g> …\n\
                 \n\
                 llstar check    <grammar.g> [input]        validate + analysis report\n\
                 llstar dfa      <grammar.g> [rule]         print lookahead DFAs\n\
                 llstar atn      <grammar.g>                ATN as Graphviz dot\n\
                 llstar generate <grammar.g> [out.rs]       emit a Rust parser\n\
                 llstar compile  <grammar.g> <out.dfa>      serialize lookahead DFAs\n\
                 llstar parse    <grammar.g> <rule> <file> [--dfa f]  parse a file\n\
                 llstar lex      <grammar.g> <file>         tokenize a file, histogram / --bench\n\
                 llstar profile  <grammar.g> [input]        per-decision analysis + runtime costs\n\
                 llstar coverage <grammar.g> <corpus>       corpus coverage + hotspot report\n\
                 llstar metrics  <grammar.g> <corpus>       parse corpus, report metric counters\n\
                 llstar watch    <metrics.jsonl>            live dashboard over a metrics stream\n\
                 llstar serve    <g1.g> [g2.g …]            batch parse daemon (JSONL stdio / HTTP)\n\
                 llstar spans    <capture|trace.jsonl>      render a span timeline/flamegraph\n\
                 \n\
                 shared flags (check/dfa/generate/compile/parse/profile/coverage):\n\
                 --jobs N       analysis worker threads (0 = all cores, 1 = sequential)\n\
                 --cache <dir>  reuse serialized analyses keyed by grammar hash\n\
                 -v, --verbose  extra diagnostics (cache lookup metrics)\n\
                 \n\
                 check/profile flags:\n\
                 --rule <name>  start rule for the runtime trace (default: first rule)\n\
                 --json <path>  export analysis records / diagnostics as JSONL\n\
                 --diagnostics  recover from syntax errors, report all of them\n\
                 --max-errors N cap collected diagnostics (implies --diagnostics)\n\
                 --sample N     keep 1 in N prediction windows in the profile trace\n\
                 \n\
                 generate flags:\n\
                 --trace        emit Hooks::trace callbacks in the generated parser\n\
                 --coverage     emit coverage counters in the generated parser\n\
                 --metrics      emit metric counters in the generated parser\n\
                 \n\
                 lex flags:\n\
                 --bench        time every lexer path (scalar/table/fused), report MB/s\n\
                 --top N        histogram rows (default: all token types seen)\n\
                 \n\
                 metrics flags (corpus = a directory of .txt inputs or one file):\n\
                 --rule <name>      start rule (default: first rule)\n\
                 --prometheus       print Prometheus text exposition instead of the table\n\
                 --json <path>      write a schema-versioned metrics JSONL stream\n\
                 --validate <file>  check a Prometheus exposition file, no parsing\n\
                 \n\
                 watch flags:\n\
                 --once             render one frame and exit\n\
                 --top N            dashboard rows (default 10)\n\
                 --interval-ms N    refresh period (default 1000)\n\
                 \n\
                 serve flags (stdio JSONL by default; --http adds HTTP/1.1 with\n\
                 POST /parse, GET /metrics, GET /healthz, POST /shutdown):\n\
                 --workers N          parse worker threads (default 4)\n\
                 --http ADDR          bind the HTTP transport (host:port)\n\
                 --stdio              keep the stdio transport alongside --http\n\
                 --fuel N             per-request interpreter-step cap\n\
                 --timeout-ms N       per-request wall-clock cap\n\
                 --queue N            bounded request-queue depth (default 256)\n\
                 --max-input-bytes N  per-request input cap (default 4 MiB)\n\
                 --max-errors N       diagnostics-mode recovery cap (default 10)\n\
                 --metrics-jsonl <f>  rewrite a metrics stream llstar watch can tail\n\
                 --interval-ms N      metrics-jsonl rewrite period (default 1000)\n\
                 --capture-dir <d>    persist slow/error/budget span captures here\n\
                 --slow-threshold-us N  latency above this triggers a capture\n\
                 \n\
                 spans flags (input = a serve capture or a trace/profile .jsonl):\n\
                 --top N              cap rendered timeline lines\n\
                 --chrome-trace <f>   export Chrome trace_event JSON instead\n\
                 \n\
                 coverage flags (corpus = a directory of .txt inputs, one input\n\
                 file, or a trace/profile .jsonl to replay):\n\
                 --rule <name>        start rule (default: first rule)\n\
                 --json <path>        write the merged coverage map as JSON\n\
                 --chrome-trace <f>   export Chrome trace_event JSON (chrome://tracing)\n\
                 --fail-uncovered     exit non-zero if any alternative stays uncovered"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn with_grammar(
    args: &[String],
    flags: &Flags,
    min_args: usize,
    f: impl FnOnce(&Grammar, &GrammarAnalysis) -> Result<(), String>,
) -> Result<(), String> {
    if args.len() < min_args {
        return Err("missing arguments (run with no arguments for usage)".into());
    }
    let path = &args[1];
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let grammar = apply_peg_mode(parse_grammar(&source).map_err(|e| e.to_string())?);
    let mut fatal = false;
    for issue in validate(&grammar) {
        if issue.is_error() {
            eprintln!("error: {issue}");
            fatal = true;
        } else {
            eprintln!("warning: {issue}");
        }
    }
    if fatal {
        return Err("grammar has errors".into());
    }
    let mut options = AnalysisOptions::from_grammar(&grammar);
    if let Some(jobs) = flags.jobs {
        options.threads = jobs;
    }
    let analysis = match &flags.cache {
        Some(dir) => {
            let cache_file = cache_path(dir, &grammar);
            let mut metrics = CacheMetrics::default();
            let (analysis, status) =
                analyze_cached_metered(&grammar, &cache_file, &options, &mut metrics)
                    .map_err(|e| format!("{}: {e}", cache_file.display()))?;
            eprintln!("analysis cache: {status} ({})", cache_file.display());
            if flags.verbose {
                eprintln!("{metrics}");
            }
            analysis
        }
        None => analyze_with(&grammar, &options),
    };
    f(&grammar, &analysis)
}

/// `llstar serve <g1.g> [g2.g …]`: the batch parse daemon. Grammars are
/// analyzed once (warm-started from `--cache`) and shared across the
/// worker pool; requests arrive as schema-versioned JSONL on stdin
/// and/or over HTTP (`--http ADDR`). Runs until stdin EOF, SIGTERM/
/// SIGINT, or `POST /shutdown`, then drains queued requests.
fn serve_cmd(args: &[String], flags: &Flags) -> Result<(), String> {
    use llstar::serve::{load_grammars, register_shutdown_signals, ServeOptions, Server};

    let paths = &args[1..];
    if paths.is_empty() {
        return Err("serve needs at least one grammar file".into());
    }
    let entries = load_grammars(paths, flags.cache.as_deref(), flags.jobs)?;
    for e in &entries {
        match &e.cache_status {
            Some(status) => eprintln!(
                "loaded grammar {} (start rule {}, analysis cache: {status})",
                e.name, e.start_rule
            ),
            None => eprintln!("loaded grammar {} (start rule {})", e.name, e.start_rule),
        }
    }
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        workers: flags.workers.unwrap_or(defaults.workers),
        queue_capacity: flags.queue.unwrap_or(defaults.queue_capacity),
        fuel: flags.fuel,
        timeout: flags.timeout_ms.map(std::time::Duration::from_millis),
        max_input_bytes: flags.max_input_bytes.unwrap_or(defaults.max_input_bytes),
        max_errors: flags.max_errors.unwrap_or(defaults.max_errors),
        slow_threshold_us: flags.slow_threshold_us,
        capture_dir: flags.capture_dir.clone(),
    };
    // Bind before any thread starts, so a bad address fails fast.
    let listener = match &flags.http {
        Some(addr) => Some((
            addr,
            std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?,
        )),
        None => None,
    };
    register_shutdown_signals();
    let workers = opts.workers.max(1);
    let server = Server::start(entries, opts)?;
    eprintln!("serving {} grammar(s) across {workers} workers", server.grammars().len());
    if let Some(dir) = &server.options().capture_dir {
        match server.options().slow_threshold_us {
            Some(us) => eprintln!(
                "span captures -> {} (slow > {us} us, errors, budget trips)",
                dir.display()
            ),
            None => eprintln!("span captures -> {} (errors, budget trips)", dir.display()),
        }
    }

    let write_metrics = |server: &Server| -> Result<(), String> {
        let Some(path) = &flags.metrics_jsonl else { return Ok(()) };
        std::fs::write(path, server.metrics_jsonl()).map_err(|e| format!("{}: {e}", path.display()))
    };
    let io_result: Result<(), String> = std::thread::scope(|scope| {
        let server = &server;
        // Both helpers end once the server drains, which every path
        // below brings about before the scope joins them.
        scope.spawn(|| server.drain_on_signal());
        if flags.metrics_jsonl.is_some() {
            let interval =
                std::time::Duration::from_millis(flags.interval_ms.unwrap_or(1000).max(10));
            scope.spawn(move || loop {
                if let Err(e) = write_metrics(server) {
                    eprintln!("warning: {e}");
                    return;
                }
                if server.wait_for_drain(interval) {
                    return;
                }
            });
        }
        let stdio = || {
            llstar::serve::stdio::serve_lines(server, std::io::stdin().lock(), std::io::stdout())
                .map(|_| ())
                .map_err(|e| format!("stdio transport: {e}"))
        };
        let outcome = match listener {
            Some((addr, listener)) => {
                eprintln!(
                    "http on {addr}: POST /parse, GET /metrics, GET /healthz, POST /shutdown"
                );
                let http = |listener| {
                    llstar::serve::http::run_http(server, listener)
                        .map_err(|e| format!("http transport: {e}"))
                };
                if flags.stdio {
                    let accept = scope.spawn(move || http(listener));
                    let pumped = stdio();
                    // Stdin EOF stops the daemon; the drain wakes the
                    // accept loop.
                    server.begin_drain();
                    let http = accept.join().expect("http accept loop never panics");
                    pumped.and(http)
                } else {
                    http(listener)
                }
            }
            None => stdio(),
        };
        server.begin_drain();
        outcome
    });
    let stats = server.stats();
    write_metrics(&server)?;
    server.shutdown();
    eprintln!(
        "serve done: {} requests received, {} completed, {} rejected",
        stats.received, stats.completed, stats.rejected
    );
    io_result
}

/// `llstar spans <file>`: renders a span tree as a text timeline. The
/// input is either a serve exemplar capture (spans-v1 JSONL: the
/// capture's coordinates and timing envelope print above the timeline)
/// or any recorded trace/profile JSONL stream, folded into a tree on
/// the fly. `--chrome-trace` exports the Chrome `trace_event` form
/// instead of rendering; `--top N` caps the timeline lines.
fn spans_cmd(args: &[String], flags: &Flags) -> Result<(), String> {
    let path = args.get(1).ok_or(
        "usage: llstar spans <capture.spans.jsonl|trace.jsonl> [--top N] [--chrome-trace f]",
    )?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    let is_capture = Json::parse(first)
        .ok()
        .and_then(|v| schema::parse_schema_header(&v).map(|(stream, _)| stream.to_string()))
        .is_some_and(|stream| stream == "spans");
    let tree = if is_capture {
        let mut tree = None;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            match value.get("type").and_then(Json::as_str) {
                Some("capture") => {
                    let field =
                        |k: &str| value.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
                    println!(
                        "capture {}: grammar {}, mode {}, reason {}",
                        field("trace-id"),
                        field("grammar"),
                        field("mode"),
                        field("reason"),
                    );
                    let spans = value
                        .get("spans")
                        .ok_or_else(|| format!("{path}:{}: capture has no spans", i + 1))?;
                    tree = Some(
                        SpanTree::from_json(spans).map_err(|e| format!("{path}:{}: {e}", i + 1))?,
                    );
                }
                Some("timing") => {
                    let micros = |k: &str| value.get(k).and_then(Json::as_u64).unwrap_or(0);
                    println!(
                        "timing: queue {} us, parse {} us, total {} us",
                        micros("queue-micros"),
                        micros("parse-micros"),
                        micros("total-micros"),
                    );
                }
                _ => {}
            }
        }
        tree.ok_or_else(|| format!("{path}: spans stream has no capture line"))?
    } else {
        let events = replay_events(&text).map_err(|e| format!("{path}: {e}"))?;
        SpanTree::from_trace(&events)
    };
    if let Some(out) = &flags.chrome_trace {
        std::fs::write(out, tree.to_chrome_trace())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("wrote Chrome trace to {}", out.display());
        return Ok(());
    }
    println!("{}", tree.render(flags.top.unwrap_or(0)).trim_end());
    Ok(())
}

/// `llstar check <grammar.g> [input]`: when an input file is given,
/// parses it — strictly, or with error recovery when `--diagnostics` /
/// `--max-errors` are set, rendering every collected diagnostic as an
/// annotated snippet (and as JSONL via `--json`).
fn check_input(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    input: Option<&String>,
    flags: &Flags,
) -> Result<(), String> {
    let Some(path) = input else { return Ok(()) };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let rule = match &flags.rule {
        Some(name) => name.clone(),
        None => grammar.start_rule().name.clone(),
    };
    match flags.recovery() {
        Some(max_errors) => {
            let (tree, errors, stats) = llstar::runtime::parse_text_recovering(
                grammar, analysis, &text, &rule, NopHooks, max_errors,
            )?;
            let diags = Diagnostic::from_errors(grammar, &errors);
            if let Some(json) = &flags.json {
                std::fs::write(json, diagnostics_jsonl(&diags))
                    .map_err(|e| format!("{}: {e}", json.display()))?;
                eprintln!("wrote {} diagnostics to {}", diags.len(), json.display());
            }
            if diags.is_empty() {
                println!("parse ok: {} tokens from rule {rule}", tree.token_count());
            } else {
                print!("{}", render_all(&diags, &text, path));
                println!(
                    "{} syntax error{} recovered ({} deleted, {} inserted, {} skipped); \
                     {} tokens matched",
                    diags.len(),
                    if diags.len() == 1 { "" } else { "s" },
                    stats.tokens_deleted,
                    stats.tokens_inserted,
                    stats.tokens_skipped,
                    tree.token_count()
                );
            }
            Ok(())
        }
        None => {
            let (tree, _) = parse_text(grammar, analysis, &text, &rule, NopHooks)?;
            println!("parse ok: {} tokens from rule {rule}", tree.token_count());
            Ok(())
        }
    }
}

/// `llstar lex <grammar.g> <file>`: tokenize-only mode. Prints scanner
/// lowering facts (classes, table shape), the token-type histogram over
/// the input, and — with `--bench` — a per-path throughput table
/// (scalar char-loop, lowered byte table, table + parser-class
/// stamping), cross-checking that every path produced the identical
/// token stream.
fn lex_cmd(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    input: &str,
    flags: &Flags,
) -> Result<(), String> {
    use llstar::lexer::LexPath;
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let scanner = grammar.lexer.build().map_err(|e| e.to_string())?;

    match scanner.tables() {
        Some(t) => {
            println!(
                "scanner: {} states, {} byte classes, dense table ({} cells)",
                t.num_states(),
                t.num_classes(),
                t.next_table().len()
            );
        }
        None => println!(
            "scanner: {} states, not lowered (over 255 byte classes); scalar path only",
            scanner.dfa_state_count()
        ),
    }

    let tokens = scanner.tokenize(&text).map_err(|e| format!("{input}: {e}"))?;
    let lexed = tokens.len().saturating_sub(1); // drop the EOF sentinel
    println!("{input}: {} bytes, {lexed} tokens (+ EOF)", text.len());

    // Token-type histogram, hottest first, named via the vocabulary.
    let mut counts: Vec<(u32, u64, u64)> = Vec::new(); // (ttype, tokens, bytes)
    for tok in &tokens {
        if tok.ttype.is_eof() {
            continue;
        }
        match counts.iter_mut().find(|(t, _, _)| *t == tok.ttype.0) {
            Some(row) => {
                row.1 += 1;
                row.2 += tok.span.len() as u64;
            }
            None => counts.push((tok.ttype.0, 1, tok.span.len() as u64)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("{:<20} {:>10} {:>8} {:>12} {:>8}", "token", "count", "share", "bytes", "avg-len");
    for &(ttype, n, bytes) in counts.iter().take(flags.top.unwrap_or(usize::MAX)) {
        println!(
            "{:<20} {:>10} {:>7.1}% {:>12} {:>8.1}",
            grammar.vocab.display_name(llstar::lexer::TokenType(ttype)),
            n,
            100.0 * n as f64 / lexed.max(1) as f64,
            bytes,
            bytes as f64 / n as f64
        );
    }

    if !flags.bench {
        return Ok(());
    }

    // `--bench`: time each path over enough repetitions to be stable,
    // verifying byte-identical streams along the way. The fused-class
    // row adds the parser-class stamping the runtime front end uses.
    let class_map = analysis.tables.classes().map(|c| c.map().to_vec());
    let mut scalar_rate = None;
    for path in LexPath::ALL {
        let toks = scanner.tokenize_path(&text, path).map_err(|e| format!("{input}: {e}"))?;
        if toks != tokens {
            return Err(format!("lexer path {} diverged from the scalar stream", path.label()));
        }
        let (secs, iters) = time_lex(|| {
            let _ = scanner.tokenize_path(&text, path).unwrap();
        });
        let mbps = text.len() as f64 * iters as f64 / secs / 1e6;
        let speedup = match scalar_rate {
            None => {
                scalar_rate = Some(mbps);
                "1.00x".to_string()
            }
            Some(base) => format!("{:.2}x", mbps / base),
        };
        println!(
            "{:<8} {:>9.1} MB/s {:>12.0} tok/s  {speedup:>7}  ({iters} iters)",
            path.label(),
            mbps,
            lexed as f64 * iters as f64 / secs
        );
    }
    if let Some(map) = &class_map {
        let (secs, iters) = time_lex(|| {
            let _ = scanner.tokenize_classified(&text, map).unwrap();
        });
        let mbps = text.len() as f64 * iters as f64 / secs / 1e6;
        let speedup = scalar_rate.map_or("-".to_string(), |base| format!("{:.2}x", mbps / base));
        println!(
            "{:<8} {:>9.1} MB/s {:>12.0} tok/s  {speedup:>7}  ({iters} iters, parser classes)",
            "fused",
            mbps,
            lexed as f64 * iters as f64 / secs
        );
    }
    Ok(())
}

/// Times `f` over enough repetitions to cross ~200ms of wall clock,
/// returning (elapsed seconds, iterations). One untimed warmup run.
fn time_lex(mut f: impl FnMut()) -> (f64, u64) {
    f();
    let mut iters = 0u64;
    let start = std::time::Instant::now();
    loop {
        f();
        iters += 1;
        let secs = start.elapsed().as_secs_f64();
        if secs >= 0.2 || iters >= 10_000 {
            return (secs, iters);
        }
    }
}

/// `llstar profile`: one row per decision, static analysis cost on the
/// left, observed runtime behaviour (when an input was parsed) on the
/// right — the paper's Tables 1–4 for a single grammar.
fn profile(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    input: Option<&String>,
    flags: &Flags,
) -> Result<(), String> {
    let mut sink = RingSink::unbounded();
    let mut diags: Vec<Diagnostic> = Vec::new();
    let stats: Option<ParseStats> = match input {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let rule = match &flags.rule {
                Some(name) => name.clone(),
                None => grammar.start_rule().name.clone(),
            };
            // `--sample N` thins the recorded stream to 1 in N top-level
            // prediction windows; the parse itself is unaffected.
            let mut sampler;
            let traced: &mut dyn TraceSink = match flags.sample {
                Some(n) => {
                    sampler = llstar::runtime::SamplingSink::new(&mut sink, n);
                    &mut sampler
                }
                None => &mut sink,
            };
            let stats = match flags.recovery() {
                Some(max_errors) => {
                    let (_, errors, stats) = parse_text_recovering_traced(
                        grammar, analysis, &text, &rule, NopHooks, max_errors, traced,
                    )?;
                    diags = Diagnostic::from_errors(grammar, &errors);
                    if !diags.is_empty() {
                        eprint!("{}", render_all(&diags, &text, path));
                    }
                    stats
                }
                None => {
                    let (_, stats) =
                        parse_text_traced(grammar, analysis, &text, &rule, NopHooks, traced)?;
                    stats
                }
            };
            match flags.sample {
                Some(n) => eprintln!(
                    "parsed {path} from rule {rule}: {} trace events kept (1 in {n} windows)",
                    sink.seen()
                ),
                None => eprintln!("parsed {path} from rule {rule}: {} trace events", sink.seen()),
            }
            Some(stats)
        }
        None => None,
    };

    println!(
        "{:<4} {:<14} {:<9} | {:>8} {:>8} {:>6} {:>6} {:>9} {:<14} | {:>7} {:>6} {:>6} {:>6} {:>8}",
        "dec",
        "rule",
        "class",
        "closures",
        "configs",
        "states",
        "edges",
        "time",
        "fallback",
        "events",
        "avg-k",
        "max-k",
        "backs",
        "avg-spec"
    );
    for d in &analysis.atn.decisions {
        if !d.is_grammar_decision() {
            continue;
        }
        let da = analysis.decision(d.id);
        let m = &da.metrics;
        let time =
            if analysis.from_cache { "cached".to_string() } else { format!("{:?}", da.elapsed) };
        let fallback = m.fallback.map_or("-".to_string(), |r| r.to_string());
        let (events, avg_k, max_k, backs, avg_spec) = match &stats {
            Some(s) => {
                let ds = s.decision(d.id);
                let ratio = |sum: u64, n: u64| {
                    if n > 0 {
                        format!("{:.1}", sum as f64 / n as f64)
                    } else {
                        "-".to_string()
                    }
                };
                (
                    ds.events.to_string(),
                    ratio(ds.la_sum, ds.events),
                    ds.la_max.to_string(),
                    ds.backtracks.to_string(),
                    ratio(ds.spec_sum, ds.backtracks),
                )
            }
            None => ("-".into(), "-".into(), "-".into(), "-".into(), "-".into()),
        };
        println!(
            "d{:<3} {:<14} {:<9} | {:>8} {:>8} {:>6} {:>6} {:>9} {:<14} | {:>7} {:>6} {:>6} {:>6} {:>8}",
            d.id.0,
            grammar.rule(d.rule).name,
            da.dfa.classify().to_string(),
            m.closure_calls,
            m.configs_created,
            m.dfa_states,
            m.dfa_edges,
            time,
            fallback,
            events,
            avg_k,
            max_k,
            backs,
            avg_spec
        );
    }
    let total = analysis.total_metrics();
    println!(
        "total: {} builds, {} closure calls, {} configs, {} DFA states, {} edges, analyzed in {:?}",
        total.dfa_builds,
        total.closure_calls,
        total.configs_created,
        total.dfa_states,
        total.dfa_edges,
        analysis.elapsed
    );
    if let Some(s) = &stats {
        println!(
            "runtime: {} events over {} decisions, avg lookahead {:.2}, max {}, \
             {} backtracks, {} memo hits, {} memo entries",
            s.total_events(),
            s.decisions_covered(),
            s.avg_lookahead(),
            s.max_lookahead(),
            s.total_backtrack_events(),
            s.memo_hits,
            s.memo_entries
        );
        if s.recoveries > 0 || flags.recovery().is_some() {
            println!(
                "recovery: {} diagnostics, {} recoveries, {} tokens deleted, \
                 {} inserted, {} skipped",
                diags.len(),
                s.recoveries,
                s.tokens_deleted,
                s.tokens_inserted,
                s.tokens_skipped
            );
        }
    }

    if let Some(path) = &flags.json {
        let mut out = schema::StreamKind::Profile.header_line();
        out.push('\n');
        let mut lines = 1usize;
        for d in &analysis.atn.decisions {
            if !d.is_grammar_decision() {
                continue;
            }
            let da = analysis.decision(d.id);
            let record = AnalysisRecord {
                decision: d.id.0,
                rule: grammar.rule(d.rule).name.clone(),
                class: da.dfa.classify().to_string(),
                metrics: da.metrics,
            };
            out.push_str(&record.to_json());
            out.push('\n');
            lines += 1;
        }
        for event in sink.events() {
            out.push_str(&event.to_json());
            out.push('\n');
            lines += 1;
        }
        // Diagnostics are appended line-by-line (not via
        // `diagnostics_jsonl`, whose own header belongs to standalone
        // diagnostics streams, not mid-way through a profile stream).
        for d in &diags {
            out.push_str(&d.to_json());
            out.push('\n');
            lines += 1;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {lines} JSONL lines to {}", path.display());
    }
    Ok(())
}

/// `llstar coverage <grammar.g> <corpus>`: merges runtime coverage
/// across a corpus (directory of `.txt` inputs, one input file, or a
/// recorded trace/profile `.jsonl` replayed offline), then renders the
/// annotated grammar, the per-decision hotspot table, and — on request —
/// the stable JSON map and a Chrome `trace_event` export.
fn coverage(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    corpus: &str,
    flags: &Flags,
) -> Result<(), String> {
    let corpus_path = Path::new(corpus);
    let mut nanos: Option<Vec<u64>> = None;

    // The map, and the events a Chrome trace is rendered from.
    let (map, events) = if corpus_path.extension().is_some_and(|e| e == "jsonl") {
        // Offline replay of a recorded event stream. No wall-clock data
        // exists here, so the hotspot table ranks by predictions.
        let text = std::fs::read_to_string(corpus_path).map_err(|e| format!("{corpus}: {e}"))?;
        let events = replay_events(&text).map_err(|e| format!("{corpus}: {e}"))?;
        let mut map = replay_coverage(grammar, analysis, &events);
        map.files = 1;
        eprintln!("replayed {} trace events from {corpus}", events.len());
        (map, events)
    } else {
        let files = corpus_inputs(corpus_path)?;
        let rule = match &flags.rule {
            Some(name) => name.clone(),
            None => grammar.start_rule().name.clone(),
        };
        // One session, so one coverage map and decision stack, spans
        // the whole corpus.
        let mut ring = RingSink::unbounded();
        let mut session =
            ParseSession::new(grammar, analysis, &rule, NopHooks).map_err(|e| e.to_string())?;
        session.parser().enable_coverage();
        session.parser().enable_decision_timing();
        if flags.chrome_trace.is_some() {
            session.parser().set_trace_sink(&mut ring);
        }
        let mut total = vec![0u64; analysis.atn.decisions.len()];
        for file in &files {
            let input =
                std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
            session.parse_to_eof(&input).map_err(|e| format!("{}: {e}", file.display()))?;
            if let Some(per_file) = session.parser().decision_nanos() {
                for (slot, t) in total.iter_mut().zip(per_file) {
                    *slot += t;
                }
            }
        }
        nanos = Some(total);
        eprintln!("parsed {} corpus file(s) from rule {rule}", files.len());
        let mut map = session.parser().take_coverage().expect("coverage was enabled");
        map.files = files.len() as u64;
        drop(session);
        (map, ring.into_events())
    };
    if let Some(out) = &flags.chrome_trace {
        let mut tree = SpanTree::from_trace(&events);
        (tree.rules, tree.decisions) = llstar::runtime::span::labels(grammar, analysis);
        std::fs::write(out, tree.to_chrome_trace())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("wrote Chrome trace to {}", out.display());
    }

    print!("{}", map.annotated_report(grammar, analysis));
    println!();
    print!("{}", map.hotspot_table(grammar, analysis, nanos.as_deref()));
    println!("{}", map.summary(grammar));
    if let Some(out) = &flags.json {
        let mut json = map.to_json();
        json.push('\n');
        std::fs::write(out, json).map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("wrote coverage JSON to {}", out.display());
    }
    if flags.fail_uncovered {
        let uncovered = map.uncovered_alts();
        if !uncovered.is_empty() {
            let names: Vec<String> = uncovered
                .iter()
                .map(|&(rule, alt)| format!("{} alt {}", grammar.rules[rule].name, alt + 1))
                .collect();
            return Err(format!(
                "{} uncovered alternative(s): {}",
                uncovered.len(),
                names.join(", ")
            ));
        }
    }
    Ok(())
}

/// `llstar metrics <grammar.g> <corpus>`: parses the corpus through one
/// re-entrant [`ParseSession`] (the always-on counters accumulating
/// across inputs) and reports them — a human summary table by default,
/// Prometheus text exposition with `--prometheus`, plus a
/// schema-versioned `metrics v1` JSONL stream with `--json <path>`
/// (the file `llstar watch` tails).
fn metrics_cmd(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    corpus: &str,
    flags: &Flags,
) -> Result<(), String> {
    let files = corpus_inputs(Path::new(corpus))?;
    let rule = match &flags.rule {
        Some(name) => name.clone(),
        None => grammar.start_rule().name.clone(),
    };
    let mut session =
        ParseSession::new(grammar, analysis, &rule, NopHooks).map_err(|e| e.to_string())?;
    for file in &files {
        let input =
            std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        session.parse_to_eof(&input).map_err(|e| format!("{}: {e}", file.display()))?;
    }
    eprintln!("parsed {} corpus file(s) from rule {rule}", files.len());
    let snap = session.metrics();

    if flags.prometheus {
        print!("{}", snap.to_prometheus("session"));
    } else {
        print!("{}", metrics_table(&snap, flags.top.unwrap_or(usize::MAX)));
    }
    if let Some(out) = &flags.json {
        let mut text = MetricsSnapshot::stream_header();
        text.push('\n');
        text.push_str(&snap.to_json("session", true));
        text.push('\n');
        std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("wrote metrics JSONL to {}", out.display());
    }
    Ok(())
}

/// `llstar metrics --validate <file>`: checks a Prometheus text
/// exposition file (our own or anyone's) without parsing a corpus.
fn validate_prometheus_file(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let samples = validate_prometheus(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}: valid Prometheus exposition, {samples} samples", path.display());
    Ok(())
}

/// The `llstar metrics` / `llstar watch` summary: totals line, latency
/// quantiles, then the hottest decisions (by prediction events).
fn metrics_table(snap: &MetricsSnapshot, top: usize) -> String {
    use llstar::runtime::metrics::hist_quantile;
    let mut out = String::new();
    let events: u64 = snap.decisions.iter().map(|d| d.counters.events).sum();
    let secs = snap.elapsed_micros as f64 / 1e6;
    let rate =
        if secs > 0.0 { format!("{:.0} tok/s", snap.tokens as f64 / secs) } else { "-".into() };
    out.push_str(&format!(
        "grammar {:016x}: {} parses, {} tokens ({rate}), {} decision events, \
         memo {:.1}% hit ({} hits / {} entries)\n",
        snap.fingerprint,
        snap.parses,
        snap.tokens,
        events,
        snap.memo_hit_pct(),
        snap.memo_hits,
        snap.memo_entries,
    ));
    if snap.elapsed_micros > 0 {
        out.push_str(&format!(
            "latency: p50 {}us, p99 {}us per parse\n",
            hist_quantile(&snap.latency_hist, 0.50),
            hist_quantile(&snap.latency_hist, 0.99),
        ));
    }
    out.push_str(&format!(
        "{:<5} {:<16} {:>10} {:>7} {:>6} {:>6} {:>6} {:>6} {:>8}\n",
        "dec", "rule", "events", "share", "p50-k", "p99-k", "max-k", "back%", "spec/ev"
    ));
    let mut rows: Vec<_> = snap.decisions.iter().collect();
    rows.sort_by(|a, b| {
        b.counters.events.cmp(&a.counters.events).then(a.decision.cmp(&b.decision))
    });
    for d in rows.into_iter().take(top) {
        let c = &d.counters;
        out.push_str(&format!(
            "d{:<4} {:<16} {:>10} {:>6.1}% {:>6} {:>6} {:>6} {:>5.1}% {:>8.2}\n",
            d.decision,
            d.rule,
            c.events,
            100.0 * c.events as f64 / events.max(1) as f64,
            c.p50_lookahead(),
            c.p99_lookahead(),
            c.la_max,
            100.0 * c.backtracks as f64 / c.events.max(1) as f64,
            c.spec_sum as f64 / c.events.max(1) as f64,
        ));
    }
    out
}

/// `llstar watch <metrics.jsonl>`: refresh-in-place dashboard over a
/// metrics stream. Each frame re-reads the file, takes the latest
/// snapshot line (lines are cumulative), and renders the hot-decision
/// table plus an events/sec rate derived from the previous frame.
/// `--once` renders a single frame without clearing the screen (and
/// fails loudly when the file is missing or malformed).
fn watch(args: &[String], flags: &Flags) -> Result<(), String> {
    let path = args
        .get(1)
        .ok_or("usage: llstar watch <metrics.jsonl> [--once] [--top N] [--interval-ms N]")?;
    let top = flags.top.unwrap_or(10);
    let interval = std::time::Duration::from_millis(flags.interval_ms.unwrap_or(1000));
    let mut prev: Option<(u64, u64, std::time::Instant)> = None;
    loop {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let snaps = parse_metrics_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
                match snaps.last() {
                    Some((engine, snap)) => {
                        let now = std::time::Instant::now();
                        let events: u64 = snap.decisions.iter().map(|d| d.counters.events).sum();
                        let rate = prev.map(|(pe, pt, at)| {
                            let dt = now.duration_since(at).as_secs_f64().max(1e-9);
                            (
                                (events.saturating_sub(pe)) as f64 / dt,
                                (snap.tokens.saturating_sub(pt)) as f64 / dt,
                            )
                        });
                        if !flags.once {
                            // Clear screen, home cursor: refresh in place.
                            print!("\x1b[2J\x1b[H");
                        }
                        println!("llstar watch — {path} (engine {engine})");
                        match rate {
                            Some((ev, tok)) => {
                                println!("rate: {ev:.0} events/s, {tok:.0} tokens/s")
                            }
                            None => println!("rate: warming up"),
                        }
                        print!("{}", metrics_table(snap, top));
                        if !snap.exemplars.is_empty() {
                            println!("exemplar captures:");
                            for e in &snap.exemplars {
                                let target = if e.capture.is_empty() {
                                    "(not persisted)"
                                } else {
                                    e.capture.as_str()
                                };
                                println!(
                                    "  {:<6} {:>6}  last {} ({} us) -> {target}",
                                    e.reason, e.count, e.trace_id, e.latency_micros
                                );
                            }
                        }
                        use std::io::Write as _;
                        let _ = std::io::stdout().flush();
                        prev = Some((events, snap.tokens, now));
                    }
                    None if flags.once => return Err(format!("{path}: no metrics snapshot lines")),
                    None => println!("{path}: no metrics snapshot lines yet"),
                }
            }
            Err(e) if flags.once => return Err(format!("{path}: {e}")),
            Err(e) => println!("waiting for {path}: {e}"),
        }
        if flags.once {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// The corpus inputs behind a path: every `*.txt` in a directory
/// (sorted by name for deterministic merges), or the file itself.
fn corpus_inputs(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .txt corpus files found", path.display()));
    }
    Ok(files)
}

/// Parses trace events out of a recorded JSONL stream for replay. Both
/// pure `trace` streams and mixed `profile --json` streams are accepted
/// (analysis records and diagnostics are skipped); the schema header is
/// validated when present.
fn replay_events(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    let mut first = true;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if std::mem::take(&mut first) {
            if let Some((stream, _)) = schema::parse_schema_header(&value) {
                let expected = match stream {
                    "profile" => schema::StreamKind::Profile,
                    _ => schema::StreamKind::Trace,
                };
                schema::check_header(&value, expected)
                    .map_err(|e| format!("line {}: {e}", i + 1))?;
                continue;
            }
        }
        match value.get("type").and_then(Json::as_str) {
            Some("analysis") | Some("diagnostic") | Some("schema") => continue,
            _ => events
                .push(TraceEvent::from_json(&value).map_err(|e| format!("line {}: {e}", i + 1))?),
        }
    }
    Ok(events)
}

fn report(grammar: &Grammar, analysis: &GrammarAnalysis) {
    println!(
        "grammar {}: {} rules, {} tokens, {} decisions, analyzed in {:?}",
        grammar.name,
        grammar.rules.len(),
        grammar.vocab.len(),
        analysis.atn.decisions.iter().filter(|d| d.is_grammar_decision()).count(),
        analysis.elapsed
    );
    let (mut fixed, mut cyclic, mut backtrack) = (0, 0, 0);
    for d in &analysis.atn.decisions {
        if !d.is_grammar_decision() {
            continue;
        }
        let da = analysis.decision(d.id);
        match da.dfa.classify() {
            DecisionClass::Fixed { .. } => fixed += 1,
            DecisionClass::Cyclic => cyclic += 1,
            DecisionClass::Backtrack => backtrack += 1,
        }
        for warning in &da.warnings {
            println!(
                "warning: rule {}, decision d{}: {warning:?}",
                grammar.rule(d.rule).name,
                d.id.0
            );
        }
    }
    println!("decision classes: {fixed} fixed LL(k), {cyclic} cyclic, {backtrack} backtracking");
    if analysis.tables.enabled() {
        let (decisions, classes, bytes) = analysis.tables.summary();
        println!(
            "compiled tables: {classes} token classes; {decisions} dense decision tables \
             ({bytes} bytes)"
        );
    } else {
        println!("compiled tables: disabled (over 256 token classes); linear dispatch");
    }
    if analysis.from_cache {
        println!("analysis loaded from cache; DFA construction skipped");
    } else if let Some(slowest) =
        analysis.decisions.iter().max_by_key(|d| d.elapsed).filter(|d| !d.elapsed.is_zero())
    {
        let d = &analysis.atn.decisions[slowest.decision.index()];
        println!(
            "slowest decision: d{} in rule {} ({:?} of {:?} total)",
            slowest.decision.0,
            grammar.rule(d.rule).name,
            slowest.elapsed,
            analysis.elapsed
        );
    }
}

fn dump_dfas(grammar: &Grammar, analysis: &GrammarAnalysis, rule_filter: Option<&str>) {
    for d in &analysis.atn.decisions {
        if !d.is_grammar_decision() {
            continue;
        }
        let rule_name = &grammar.rule(d.rule).name;
        if let Some(filter) = rule_filter {
            if rule_name != filter {
                continue;
            }
        }
        let da = analysis.decision(d.id);
        println!(
            "== decision d{} in rule {rule_name} ({:?}, {:?})",
            d.id.0,
            d.kind,
            da.dfa.classify()
        );
        print!("{}", da.dfa.to_pretty(grammar));
    }
}
