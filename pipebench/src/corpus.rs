//! The corpus workloads. `java8-corpus`: the java8 gauntlet corpus at
//! the 1 MB tier (PEG mode, speculation and memoization dominate).
//! `sqljson-corpus`: the sql and json corpora at the 10 MB tier (almost
//! no speculation; lexing, compiled dispatch and tree building). Each
//! file goes from bytes to a tree through one recycled
//! `ParseSession::parse_to_eof`, after an untimed warm-up pass.

use crate::layers::{self, Input, Lexer};
use crate::report::Report;
use crate::util::{fnv1a, mean, median, ms, peak_rss_mib, quantile, Spans};
use crate::Args;
use llstar_runtime::{NopHooks, ParseSession};
use llstar_suite::gauntlet::{self, Tier};
use std::path::Path;
use std::time::Instant;

/// Set-ups before an untraced run's passes, at least, and the least
/// time they take.
const SETUP_REPS: usize = 9;
const SETUP_SECONDS: f64 = 0.5;

/// The grammars and corpus tier of each corpus workload.
fn plan(workload: &str) -> Result<Vec<(&'static str, Tier)>, String> {
    match workload {
        "java8-corpus" => Ok(vec![("java8", Tier::Mega)]),
        "sqljson-corpus" => Ok(vec![("sql", Tier::Deca), ("json", Tier::Deca)]),
        other => Err(format!("{other} is not a corpus workload")),
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let plan = plan(&args.workload)?;
    let entries = plan
        .iter()
        .map(|(name, _)| {
            gauntlet::by_name(name).ok_or_else(|| format!("no gauntlet grammar {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut spans = Spans::new();
    // `setup_s` is the median of many set-ups: one is short and noisy.
    let (reps, min_seconds) = match (args.smoke, args.traced) {
        (true, _) => (1, 0.0),
        (false, true) => (3, 0.0),
        (false, false) => (SETUP_REPS, SETUP_SECONDS),
    };
    let (loaded, times) =
        layers::setup(&entries, reps, min_seconds, args.traced.then_some(&mut spans))?;
    let lexers = loaded.iter().map(Lexer::new).collect::<Result<Vec<_>, _>>()?;

    let mut files = Vec::new();
    for (g, (entry, &(_, tier))) in entries.iter().zip(&plan).enumerate() {
        let tier = if args.smoke { Tier::Smoke } else { tier };
        for (label, text) in gauntlet::corpus(entry, tier, args.seed) {
            let tokens = lexers[g].count_tokens(&text).map_err(|e| format!("{label}: {e}"))?;
            files.push((g, label, text, tokens));
        }
    }
    let inputs: Vec<Input<'_>> = files
        .iter()
        .map(|(g, label, text, tokens)| Input { grammar: *g, label, text, tokens: *tokens })
        .collect();
    let bytes: usize = inputs.iter().map(|i| i.text.len()).sum();
    let mut sessions = loaded
        .iter()
        .map(|l| {
            ParseSession::new(&l.grammar, &l.analysis, l.entry.start_rule, NopHooks)
                .map_err(|e| format!("{}: lexer: {e}", l.entry.name))
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Warm-up pass: untimed and checked. Its trees' shape hashes are the
    // reference every later pass must match; their s-expression
    // fingerprints must match every later run with this seed.
    let (reference, fingerprints): (Vec<u64>, Vec<u64>) = inputs
        .iter()
        .map(|input| {
            let grammar = &loaded[input.grammar].grammar;
            let result =
                sessions[input.grammar].parse_to_eof(input.text).map_err(|e| e.to_string());
            let fp =
                result.as_ref().map_or(0, |t| fnv1a(t.to_sexpr(grammar, input.text).as_bytes()));
            (layers::check_tree(report, input, result, None).unwrap_or(0), fp)
        })
        .unzip();
    let suffix = if args.smoke { "-smoke" } else { "" };
    cross_run_check(
        &args.out.join(format!("fingerprints-{}-{}{suffix}.txt", args.workload, args.seed)),
        inputs.iter().map(|i| i.label),
        &fingerprints,
        report,
    )?;

    let mut latencies = Vec::new();
    let mut gaps = Vec::new();
    if !args.traced {
        // Each pass does the same deterministic work, and the host's
        // other tenants can only add time to it, in phases that last
        // from seconds to minutes. So throughput is the fastest full
        // pass and each file's latency its fastest parse: on a 2-core
        // shared host, medians over passes moved 3x as much from run to
        // run. Set-up is repeated after each pass; `setup_s` is the
        // median.
        let mut setup_ms = times.total_ms.clone();
        let mut pass_mb_s = Vec::new();
        let started = Instant::now();
        while pass_mb_s.len() < if args.smoke { 1 } else { 3 }
            || started.elapsed().as_secs_f64() < args.seconds
        {
            let busy_ms =
                session_pass(&mut sessions, &inputs, &reference, report, &mut latencies, &mut gaps);
            pass_mb_s.push(bytes as f64 / 1e3 / busy_ms);
            if !args.smoke {
                setup_ms.extend(layers::setup(&entries, 1, 0.0, None)?.1.total_ms);
            }
        }
        let best_per_file: Vec<f64> = (0..inputs.len())
            .map(|i| {
                latencies.iter().skip(i).step_by(inputs.len()).copied().fold(f64::MAX, f64::min)
            })
            .collect();
        report.metric("setup_s", median(&setup_ms) / 1e3);
        report.metric("throughput_mb_s", pass_mb_s.iter().copied().fold(0.0, f64::max));
        report.metric("latency_p50_ms", quantile(&best_per_file, 0.50));
        report.metric("latency_p99_ms", quantile(&best_per_file, 0.99));
        report.info("median_pass.throughput_mb_s", median(&pass_mb_s), "MB/s");
        report.info("peak_rss_mib", peak_rss_mib(None)?, "MiB");
        report.info("passes", pass_mb_s.len() as f64, "count");
        report.info("setup_samples", setup_ms.len() as f64, "count");
        report.info("corpus_bytes", bytes as f64, "bytes");
        return Ok(());
    }

    layers::report_analysis(&loaded, report);
    report.metric("grammar.load_ms", median(&times.load_ms));
    report.metric("core.analyze_ms", median(&times.analyze_ms));
    let rounds = if args.smoke { 1 } else { 3 };
    let (mut plain, mut traced, mut lex, mut parse, mut sexpr, mut unattributed) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..rounds {
        let untraced =
            session_pass(&mut sessions, &inputs, &reference, report, &mut latencies, &mut gaps);
        plain.push(untraced);
        let t = layers::traced_pass(
            &loaded,
            &lexers,
            &mut sessions,
            &inputs,
            &reference,
            &mut spans,
            report,
        );
        traced.push(t.pipeline_ms);
        lex.push(t.lex_ms);
        parse.push(t.parse_ms);
        sexpr.push(t.sexpr_ms);
        // The untraced end-to-end time the lexer and parser spans leave
        // unexplained (the session's own bookkeeping, for one).
        unattributed.push(100.0 * (untraced - t.lex_ms - t.parse_ms) / untraced);
        last = Some(t);
    }
    let totals = last.expect("at least one round");
    layers::report_counters(&totals, report);
    report.metric("lexer.lex_ms", median(&lex));
    report.metric("lexer.mb_s", bytes as f64 / 1e3 / median(&lex));
    report.metric("runtime.parse_ms", median(&parse));
    report.metric("runtime.to_sexpr_ms", median(&sexpr));
    // The independent engine must accept every file too.
    let (packrat_ms, packrat_entries) =
        layers::packrat_pass(&loaded, &lexers, &inputs, Some(&mut spans), report);
    report.metric("packrat.recognize_ms", packrat_ms);
    report.metric("packrat.memo_entries", packrat_entries as f64);
    // The session's own always-on parse latency (the figure a daemon
    // exports), against what the caller saw around the same calls.
    let (micros, parses) = sessions
        .iter()
        .map(|s| (s.metrics().elapsed_micros, s.metrics().parses))
        .fold((0, 0), |(m, p), (a, b)| (m + a, p + b));
    let parse_mean_us = micros as f64 / parses.max(1) as f64;
    report.metric("serve.parse_mean_us", parse_mean_us);
    report.metric("serve.outside_parse_ms", mean(&latencies) - parse_mean_us / 1e3);
    report.metric("loadgen.late_p99_ms", quantile(&gaps, 0.99));
    report.metric("trace.overhead_pct", 100.0 * (median(&traced) / median(&plain) - 1.0));
    report.metric("trace.unattributed_pct", median(&unattributed));
    for (l, name) in loaded.iter().zip(plan.iter().map(|p| p.0)) {
        report.info(format!("grammar.{name}.analysis_elapsed_ms"), ms(l.analysis.elapsed), "ms");
    }
    let path = args.out.join(format!("spans-{}-{}{suffix}.jsonl", args.workload, args.seed));
    spans.write(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// One untraced pass: every file through `ParseSession::parse_to_eof`,
/// timed per call, checked after the clock stops. Records per-file
/// latency and the benchmark's own gap between calls; returns the
/// pass's busy time in milliseconds.
fn session_pass(
    sessions: &mut [ParseSession<'_, NopHooks>],
    inputs: &[Input<'_>],
    reference: &[u64],
    report: &mut Report,
    latencies: &mut Vec<f64>,
    gaps: &mut Vec<f64>,
) -> f64 {
    let mut busy = 0.0;
    let mut prev_end: Option<Instant> = None;
    for (input, &expected) in inputs.iter().zip(reference) {
        let t0 = Instant::now();
        if let Some(prev) = prev_end {
            gaps.push(ms(t0 - prev));
        }
        let result = sessions[input.grammar].parse_to_eof(input.text);
        let took = ms(t0.elapsed());
        latencies.push(took);
        busy += took;
        let result = result.map_err(|e| e.to_string());
        layers::check_tree(report, input, result, Some(expected));
        prev_end = Some(Instant::now());
    }
    busy
}

/// Compares this run's tree fingerprints with the ones an earlier run
/// with the same workload and seed recorded (traced or not), or records
/// them when this is the first run.
pub fn cross_run_check<'a>(
    path: &Path,
    labels: impl Iterator<Item = &'a str>,
    fingerprints: &[u64],
    report: &mut Report,
) -> Result<(), String> {
    let text: String =
        labels.zip(fingerprints).map(|(label, fp)| format!("{label} {fp:016x}\n")).collect();
    match std::fs::read_to_string(path) {
        Ok(previous) => {
            report.check(previous == text, || {
                format!("tree fingerprints differ from the earlier run in {}", path.display())
            });
            Ok(())
        }
        Err(_) => std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display())),
    }
}
