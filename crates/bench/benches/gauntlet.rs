//! Gauntlet bench mode: tokens/sec, lookahead-depth distribution,
//! backtrack rate, and memo footprint for every `grammar × engine` cell
//! of the real-world grammar gauntlet — the paper's Tables 3–4
//! reproduced over realistic grammars and MB-scale generated corpora.
//! Its java8 `interp-compiled` and `packrat-memo` rows are the E9
//! comparison of LL(*) against pure speculation.
//!
//! Writes `gauntlet` rows (see `llstar_bench::rows::bench_main` for the
//! flags). `--quick` measures the 10 KB smoke corpus instead of the tier
//! selected by `LLSTAR_GAUNTLET_TIER` (default 1 MB). No gate.

use llstar_bench::gauntlet::GAUNTLET_BENCH_SEED;
use llstar_bench::rows::{bench_main, BenchRun};
use llstar_bench::{format_gauntlet, gauntlet_all, gauntlet_jsonl};
use llstar_suite::gauntlet::Tier;

fn main() {
    bench_main("gauntlet", |quick| {
        let tier = if quick { Tier::Smoke } else { Tier::from_env() };
        eprintln!("gauntlet: measuring {} corpora (seed {GAUNTLET_BENCH_SEED:#x})", tier.label());
        let rows = gauntlet_all(tier, GAUNTLET_BENCH_SEED);
        BenchRun { table: format_gauntlet(&rows), rows: gauntlet_jsonl(&rows), gate: None }
    });
}
