//! pipebench: the llstar pipeline benchmark. It drives the public entry
//! points from outside at production settings (compiled dispatch,
//! always-on metrics, no trace sink, no span capture, no analysis
//! cache): bytes → tokens → tree in process for the corpus workloads,
//! and request → response over HTTP through an `llstar serve` child
//! process for `serve-http`. See README.md for workloads and metrics.
//!
//! ```text
//! pipebench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--self-check] [--out DIR] [--llstar PATH]
//! ```
//!
//! One workload prints its metrics, one per line with units, and ends
//! stdout with a one-line JSON result. `--trace 0` measures the
//! end-to-end metrics, `--trace 1` the per-layer ones. `--workload all`
//! (the default) runs every workload both ways. `--self-check` runs
//! every workload at smoke size and checks the metric catalogue, the
//! units and that no operation failed.

mod corpus;
mod layers;
mod report;
mod serve;
mod util;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// The seed of the existing gauntlet bench rows, so default corpora
/// match them.
const DEFAULT_SEED: u64 = 0x6a41_71e7;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["java8-corpus", "sqljson-corpus", "serve-http"];

/// Settings of one run.
#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phase of a run lasts, at least.
    pub seconds: f64,
    pub traced: bool,
    /// Smallest inputs and phases; only the self-check sets it.
    pub smoke: bool,
    /// Where runs write spans, fingerprints, grammars and daemon logs.
    pub out: PathBuf,
    /// The release `llstar` binary `serve-http` launches.
    pub llstar: PathBuf,
}

struct Cli {
    workload: Option<String>,
    trace: Option<bool>,
    self_check: bool,
    args: Args,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => s.parse(),
    }
    .map_err(|_| format!("--seed: bad number {s:?}"))
}

fn parse_cli() -> Result<Cli, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let mut cli = Cli {
        workload: None,
        trace: None,
        self_check: false,
        args: Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            traced: false,
            smoke: false,
            out: PathBuf::from(&target).join("pipebench"),
            llstar: PathBuf::from(&target).join("release").join("llstar"),
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if w != "all" {
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload {w:?} (known: {WORKLOADS:?})"));
                    }
                    cli.workload = Some(w);
                }
            }
            "--seed" => cli.args.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let s = value()?;
                cli.args.seconds = s
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| format!("--seconds: bad duration {s:?}"))?;
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                })
            }
            "--self-check" => cli.self_check = true,
            "--out" => cli.args.out = PathBuf::from(value()?),
            "--llstar" => cli.args.llstar = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cli)
}

fn run_one(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(&args.workload, args.traced);
    match args.workload.as_str() {
        "java8-corpus" | "sqljson-corpus" => corpus::run(args, &mut report)?,
        _ => serve::run(args, &mut report)?,
    }
    Ok(report)
}

/// Runs every workload at smoke size, both ways, and checks that every
/// catalogue metric is measured with its unit, that BENCHMARK.json (when
/// present in the working directory) declares the same catalogue, and
/// that no operation failed.
fn self_check(base: &Args) -> Result<bool, String> {
    let mut ok = true;
    if let Ok(spec) = std::fs::read_to_string("BENCHMARK.json") {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if !spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")) {
                eprintln!("self-check: BENCHMARK.json does not declare {name} in {unit}");
                ok = false;
            }
        }
    }
    for workload in WORKLOADS {
        for traced in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                traced,
                smoke: true,
                seconds: 0.5,
                ..base.clone()
            };
            let report = run_one(&args)?;
            report.print()?;
            if report.failed != 0 || report.attempted == 0 {
                eprintln!(
                    "self-check: {workload} (traced {traced}): {} of {} operations failed",
                    report.failed, report.attempted
                );
                ok = false;
            }
        }
    }
    println!("self-check {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn main() {
    let outcome = parse_cli().and_then(|cli| {
        std::fs::create_dir_all(&cli.args.out)
            .map_err(|e| format!("{}: {e}", cli.args.out.display()))?;
        if cli.self_check {
            return self_check(&cli.args);
        }
        let workloads: Vec<&str> = match &cli.workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.to_vec(),
        };
        let modes: Vec<bool> = match (cli.trace, &cli.workload) {
            (Some(t), _) => vec![t],
            (None, Some(_)) => vec![false],
            (None, None) => vec![false, true],
        };
        for workload in workloads {
            for &traced in &modes {
                let args = Args { workload: workload.to_string(), traced, ..cli.args.clone() };
                run_one(&args)?.print()?;
            }
        }
        Ok(true)
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    }
}
