//! The metric catalogue and the result line.
//!
//! Every workload reports every end-to-end metric (untraced run) or
//! every per-layer metric (traced run) under the same names, so each
//! name has one definition per workload; README.md gives them.

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_mb_s", "MB/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, from the traced run. The prefix
/// names the crate (layer) whose public functions the span wraps.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("grammar.load_ms", "ms"),
    ("core.analyze_ms", "ms"),
    ("core.dfa_states", "count"),
    ("core.closure_calls", "count"),
    ("core.table_bytes", "bytes"),
    ("lexer.lex_ms", "ms"),
    ("lexer.mb_s", "MB/s"),
    ("runtime.parse_ms", "ms"),
    ("runtime.decision_events", "count"),
    ("runtime.avg_k", "tokens"),
    ("runtime.backtracks", "count"),
    ("runtime.spec_tokens", "count"),
    ("runtime.memo_entries", "count"),
    ("runtime.memo_hits", "count"),
    ("runtime.memo_hit_ratio", "ratio"),
    ("runtime.to_sexpr_ms", "ms"),
    ("packrat.recognize_ms", "ms"),
    ("packrat.memo_entries", "count"),
    ("serve.parse_mean_us", "us"),
    ("serve.outside_parse_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// One run's outcome: checked operations plus named metrics.
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Extra figures (per grammar, per rate) printed for people, not
    /// part of the result line.
    info: Vec<(String, f64, String)>,
}

impl Report {
    pub fn new(workload: &str, traced: bool) -> Report {
        Report {
            workload: workload.to_string(),
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            info: Vec::new(),
        }
    }

    /// Counts one checked operation; a failed check is logged to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("pipebench: check failed: {}", what());
            }
        }
    }

    /// Sets a catalogue metric (end-to-end or per-layer).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Adds an informational figure.
    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.info.push((name.into(), value, unit.to_string()));
    }

    fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The catalogue metrics in catalogue order with their units, or an
    /// error naming a missing or non-finite one.
    pub fn values(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        self.catalogue()
            .iter()
            .map(|&(name, unit)| {
                let value =
                    self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).ok_or_else(
                        || format!("{}: metric {name} was not measured", self.workload),
                    )?;
                if !value.is_finite() {
                    return Err(format!("{}: metric {name} is {value}", self.workload));
                }
                Ok((name, value, unit))
            })
            .collect()
    }

    /// Prints the human-readable lines, then the one-line JSON result
    /// (which must come last on stdout).
    pub fn print(&self) -> Result<(), String> {
        let values = self.values()?;
        let mode = if self.traced { "traced" } else { "untraced" };
        println!("== {} ({mode})", self.workload);
        for (name, value, unit) in &values {
            println!("metric {name} = {value:.6} {unit}");
        }
        for (name, value, unit) in &self.info {
            println!("info {name} = {value:.6} {unit}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("info failed_frac = {failed_frac} ratio ({} of {})", self.failed, self.attempted);
        let fields: Vec<String> = values
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}
