//! Serve-daemon throughput bench: the request pool from the gauntlet
//! corpus generators, replayed as one ordered batch against
//! [`llstar_serve::Server`] at increasing worker counts. Measures
//! aggregate req/s plus server-side p50/p99 parse latency (from the
//! shared metrics registry's latency histogram), and the speedup of
//! each worker count over the single-worker baseline.
//!
//! Writes `serve` rows (see `llstar_bench::rows::bench_main` for the
//! flags). `--quick` uses a small fixed request pool instead of the
//! corpus tier selected by `LLSTAR_GAUNTLET_TIER` (default 1 MB). No
//! gate.

use llstar_bench::gauntlet::GAUNTLET_BENCH_SEED;
use llstar_bench::measure::timed;
use llstar_bench::rows::{bench_main, jsonl, BenchRun};
use llstar_core::schema::{ServeBody, ServeMode, ServeRequest};
use llstar_core::{analyze, Json};
use llstar_runtime::hist_quantile;
use llstar_serve::{GrammarEntry, ServeOptions, Server};
use llstar_suite::gauntlet::{self, Tier};

/// Target size of one request's input.
const REQUEST_BYTES: usize = 2 << 10;

fn entries() -> Vec<GrammarEntry> {
    gauntlet::all()
        .iter()
        .map(|e| {
            let grammar = e.load();
            let analysis = analyze(&grammar);
            GrammarEntry::new(grammar, analysis, None).expect("gauntlet lexers build")
        })
        .collect()
}

/// The request pool: per-grammar inputs of ~[`REQUEST_BYTES`] each up to
/// the tier's byte budget, interleaved round-robin across grammars so
/// every worker count exercises multi-grammar routing.
fn request_pool(entries: &[GrammarEntry], per_grammar: usize) -> Vec<ServeRequest> {
    let suite = gauntlet::all();
    let mut per: Vec<Vec<ServeRequest>> = suite
        .iter()
        .zip(entries)
        .map(|(s, e)| {
            (0..per_grammar)
                .map(|i| ServeRequest {
                    id: 0,
                    grammar: e.name.clone(),
                    mode: ServeMode::Tree,
                    input: (s.generate)(REQUEST_BYTES, GAUNTLET_BENCH_SEED + i as u64),
                    traceparent: None,
                })
                .collect()
        })
        .collect();
    let mut pool = Vec::with_capacity(per_grammar * per.len());
    for i in 0..per_grammar {
        for lane in &mut per {
            let mut request = std::mem::replace(
                &mut lane[i],
                ServeRequest {
                    id: 0,
                    grammar: String::new(),
                    mode: ServeMode::Tree,
                    input: String::new(),
                    traceparent: None,
                },
            );
            request.id = pool.len() as u64;
            pool.push(request);
        }
    }
    pool
}

struct ServeRow {
    tier: &'static str,
    workers: usize,
    requests: usize,
    bytes: usize,
    wall_micros: u64,
    req_per_sec: u64,
    p50_us: u64,
    p99_us: u64,
    speedup_milli: u64,
}

fn measure(workers: usize, tier: &'static str, pool: &[ServeRequest]) -> ServeRow {
    let opts = ServeOptions { workers, queue_capacity: 1024, ..ServeOptions::default() };
    let server = Server::start(entries(), opts).expect("server starts");
    // One warmup request per grammar: session + dispatch-table state hot
    // before the clock starts (warmup parses land in the registry but
    // are sub-batch noise).
    let warmup: Vec<ServeRequest> = pool.iter().take(3).cloned().collect();
    for response in server.process_batch(warmup) {
        assert!(!matches!(response.body, ServeBody::Error { .. }), "warmup failed: {response:?}");
    }
    let (responses, wall) = timed(|| server.process_batch(pool.to_vec()));
    let wall_micros = wall.as_micros() as u64;
    for response in &responses {
        assert!(
            !matches!(response.body, ServeBody::Error { .. }),
            "bench request failed: {response:?}"
        );
    }
    let mut latency = [0u64; llstar_runtime::metrics::WIDE_BUCKETS];
    for (_, snap) in server.registry().snapshot_all() {
        for (slot, bucket) in latency.iter_mut().zip(snap.latency_hist.iter()) {
            *slot += bucket;
        }
    }
    server.shutdown();
    let bytes: usize = pool.iter().map(|r| r.input.len()).sum();
    ServeRow {
        tier,
        workers,
        requests: pool.len(),
        bytes,
        wall_micros,
        req_per_sec: (pool.len() as u64).saturating_mul(1_000_000) / wall_micros.max(1),
        p50_us: hist_quantile(&latency, 0.50),
        p99_us: hist_quantile(&latency, 0.99),
        speedup_milli: 1000, // single-worker baseline fills this in later
    }
}

fn serve_jsonl(rows: &[ServeRow]) -> String {
    jsonl(rows.iter().map(|r| {
        Json::Object(vec![
            ("type".into(), Json::Str("serve".into())),
            ("tier".into(), Json::Str(r.tier.to_string())),
            ("workers".into(), Json::Num(r.workers as u64)),
            ("requests".into(), Json::Num(r.requests as u64)),
            ("bytes".into(), Json::Num(r.bytes as u64)),
            ("wall-micros".into(), Json::Num(r.wall_micros)),
            ("req-per-sec".into(), Json::Num(r.req_per_sec)),
            ("p50-us".into(), Json::Num(r.p50_us)),
            ("p99-us".into(), Json::Num(r.p99_us)),
            ("speedup-milli".into(), Json::Num(r.speedup_milli)),
        ])
    }))
}

fn main() {
    bench_main("serve", |quick| {
        let (tier, per_grammar) = if quick {
            (Tier::Smoke, 16)
        } else {
            let tier = Tier::from_env();
            (tier, (tier.bytes() / REQUEST_BYTES).max(16))
        };
        let shared = entries();
        let pool = request_pool(&shared, per_grammar);
        drop(shared);
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        // Always measure the 1→4 ladder so the scaling table exists even on
        // small hosts; add 8 only where there are cores to back it. On a
        // single-core host the speedup column honestly saturates near 1.0x.
        let mut ladder = vec![1usize, 2, 4];
        if cores >= 8 {
            ladder.push(8);
        }
        eprintln!(
            "serve bench: {} requests (~{} KB each, {} tier), workers {ladder:?} on {cores} cores",
            pool.len(),
            REQUEST_BYTES >> 10,
            tier.label()
        );

        let mut rows: Vec<ServeRow> = Vec::new();
        let mut table = String::new();
        for &workers in &ladder {
            let mut row = measure(workers, tier.label(), &pool);
            let base = rows.first().map(|r| r.wall_micros).unwrap_or(row.wall_micros);
            row.speedup_milli = base.saturating_mul(1000) / row.wall_micros.max(1);
            table.push_str(&format!(
                "workers {:>2}: {:>8} req/s, p50 {:>6} us, p99 {:>6} us, speedup {:.2}x\n",
                row.workers,
                row.req_per_sec,
                row.p50_us,
                row.p99_us,
                row.speedup_milli as f64 / 1000.0
            ));
            rows.push(row);
        }
        BenchRun { table, rows: serve_jsonl(&rows), gate: None }
    });
}
