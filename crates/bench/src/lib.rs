//! Benchmark harness regenerating the paper's evaluation (Section 6):
//! Tables 1–4, recovery and coverage overhead, analysis scaling, the
//! memoization ablation (E10) and the fixed-k sweep (E11) via
//! [`report`], Figures 1/2/6 and the cyclic-DFA example via
//! [`figures`]. The `report_tables` binary prints all of them. The six
//! benches under `benches/` each produce one row type (`gauntlet`,
//! `lex`, `prediction`, `metrics_overhead`, `spans_overhead`, `serve`)
//! through the one entry point and writer in [`rows`]; every timed
//! figure goes through [`measure`].

#![warn(missing_docs)]

pub mod figures;
pub mod gauntlet;
pub mod lexing;
pub mod measure;
pub mod overhead;
pub mod prediction;
pub mod report;
pub mod rows;

pub use figures::{cyclic_figure, figure1, figure2, figure6, Figure};
pub use gauntlet::{format_gauntlet, gauntlet_all, gauntlet_jsonl, gauntlet_run, GauntletRow};
pub use lexing::{format_lexing, lexing_all, lexing_jsonl, lexing_run, LexingRow};
pub use report::{
    can_backtrack_by_id, decision_classes, format_recovery, format_table1, format_table2,
    format_table3, format_table4, hooks_for, recovery_all, recovery_run, run_all, run_grammar,
    GrammarRun, RecoveryRow, Table1Row, Table2Row, Table3Row, Table4Row,
};
