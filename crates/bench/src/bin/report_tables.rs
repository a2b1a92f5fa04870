//! Prints the reproduction of every table and figure in the paper's
//! evaluation section.
//!
//! Usage: `report_tables [--lines N] [--seed S] [--table N]...
//! [--figures] [--json PATH]`
//! With no selection flags, everything is printed. Whenever the tables
//! run, the per-decision analysis metrics, runtime summaries, recovery,
//! scaling and coverage-overhead rows are also written through the
//! shared row writer: to `--json PATH` as a fresh stream, or else in
//! place of those record types in `BENCH_analysis.json`.

use llstar_bench::report::REPORT_TYPES;
use llstar_bench::rows::{bench_analysis_path, write_rows};
use llstar_bench::{cyclic_figure, figure1, figure2, figure6, report, GrammarRun};
use std::path::PathBuf;

fn main() {
    let mut lines = 2000usize;
    let mut seed = 42u64;
    let mut tables: Vec<u32> = Vec::new();
    let mut figures = false;
    let mut any_selection = false;
    let mut json: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--lines" => {
                i += 1;
                lines = args[i].parse().expect("--lines takes an integer");
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed takes an integer");
            }
            "--table" => {
                i += 1;
                tables.push(args[i].parse().expect("--table takes 1..=4"));
                any_selection = true;
            }
            "--figures" => {
                figures = true;
                any_selection = true;
            }
            "--json" => {
                i += 1;
                json = Some(PathBuf::from(&args[i]));
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: report_tables [--lines N] [--seed S] [--table N]... [--figures] \
                     [--json PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if !any_selection {
        tables = vec![1, 2, 3, 4];
        figures = true;
    }

    if figures {
        for fig in [figure1(), figure2(), cyclic_figure(), figure6()] {
            println!("== {}\n{}", fig.title, fig.rendering);
        }
    }

    if !tables.is_empty() {
        eprintln!("running all six grammars on ~{lines}-line inputs (seed {seed})…");
        let runs = report::run_all(lines, seed);
        for t in &tables {
            let text = match t {
                1 => report::format_table1(
                    &runs.iter().map(GrammarRun::table1_row).collect::<Vec<_>>(),
                ),
                2 => report::format_table2(
                    &runs.iter().map(GrammarRun::table2_row).collect::<Vec<_>>(),
                ),
                3 => report::format_table3(
                    &runs.iter().map(GrammarRun::table3_row).collect::<Vec<_>>(),
                ),
                4 => report::format_table4(
                    &runs.iter().map(GrammarRun::table4_row).collect::<Vec<_>>(),
                ),
                other => {
                    eprintln!("no such table: {other}");
                    continue;
                }
            };
            println!("{text}");
        }
        eprintln!("measuring error-recovery overhead (clean vs 1% corrupted tokens)…");
        let recovery = report::recovery_all(lines, seed);
        println!("{}", report::format_recovery(&recovery));
        eprintln!("measuring analysis scaling across worker threads…");
        let scaling = report::scaling_all(3);
        println!("{}", report::format_scaling(&scaling));
        eprintln!("measuring coverage-collection overhead…");
        let coverage = report::coverage_overhead_all(lines, seed);
        println!("{}", report::format_coverage_overhead(&coverage));
        eprintln!("measuring memoization on vs off (E10)…");
        println!("{}", report::format_memo(&report::memo_ablation(seed)));
        eprintln!("sweeping fixed k against the cyclic LL(*) DFA (E11)…");
        println!("{}", report::format_fixed_k(&report::fixed_k_sweep()));
        let rows = report::analysis_jsonl(&runs)
            + &report::recovery_jsonl(&recovery)
            + &report::scaling_jsonl(&scaling)
            + &report::coverage_overhead_jsonl(&coverage);
        let target = json.clone().unwrap_or_else(bench_analysis_path);
        match write_rows(json.as_deref(), &bench_analysis_path(), &REPORT_TYPES, &rows) {
            Ok(()) => eprintln!(
                "wrote analysis + summary + recovery + scaling + coverage rows to {}",
                target.display()
            ),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", target.display());
                std::process::exit(1);
            }
        }
    }
}
