//! Prediction dispatch: tokens/sec through representative suite
//! decisions (fixed-k, cyclic, backtracking) under the linear `edges`
//! scan versus the compiled dense tables. The `prediction` bench is the
//! only producer of `prediction` rows.

use crate::measure::{best_of, timed};
use crate::rows::jsonl;
use llstar_core::{
    analyze, CompiledDfa, DecisionClass, Json, LookaheadDfa, TokenClasses, NO_TARGET,
};
use llstar_lexer::TokenType;
use llstar_rng::Rng64;
use llstar_suite as suite;
use std::time::Duration;

/// One prediction-dispatch measurement: a single suite decision driven
/// over the same synthetic token sequence by the linear `edges` scan and
/// by the dense compiled table.
#[derive(Debug, Clone)]
pub struct PredictionRow {
    /// Grammar name.
    pub name: &'static str,
    /// Decision index within the grammar.
    pub decision: usize,
    /// Decision class (`LL(k)`, `cyclic`, `backtrack`).
    pub class: String,
    /// Tokens dispatched per measurement.
    pub tokens: usize,
    /// Linear edge-scan dispatch, microseconds (best of reps).
    pub linear_micros: u64,
    /// Dense-table dispatch, microseconds (best of reps).
    pub dense_micros: u64,
    /// Speedup of the dense table over the linear scan, in thousandths
    /// (2000 = 2.0×) — integer so the JSONL stays exact.
    pub speedup_milli: u64,
    /// Bytes of the compiled table (transition cells plus
    /// accept/default/predicate side tables).
    pub table_bytes: usize,
}

/// One selected decision plus everything needed to drive it: the cloned
/// DFA, the grammar's class partition, the lowered table, and the token
/// walk both dispatch strategies share.
#[derive(Debug, Clone)]
pub struct PredictionCase {
    /// Grammar name.
    pub name: &'static str,
    /// Decision index within the grammar.
    pub decision: usize,
    /// Decision class.
    pub class: DecisionClass,
    /// The source DFA (linear-scan baseline).
    pub dfa: LookaheadDfa,
    /// The grammar-wide token equivalence classes.
    pub classes: TokenClasses,
    /// Dense lowering.
    pub dense: CompiledDfa,
    /// The deterministic token walk to dispatch.
    pub seq: Vec<TokenType>,
}

/// Generates a deterministic token sequence that keeps the DFA busy: a
/// seeded random walk over its edges, restarting at the start state on
/// accept, with a sprinkle of off-edge tokens so the miss path is
/// exercised too.
fn prediction_walk(dfa: &LookaheadDfa, vocab: usize, count: usize, seed: u64) -> Vec<TokenType> {
    let mut rng = Rng64::seed_from_u64(seed);
    let vocab = vocab.max(1) as u32;
    let mut cur = 0usize;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let st = &dfa.states[cur];
        if cur != 0 && (st.accept.is_some() || st.edges.is_empty()) {
            cur = 0;
            continue;
        }
        if st.edges.is_empty() || rng.gen_bool(0.1) {
            out.push(TokenType(rng.gen_range(0u32..vocab)));
            cur = 0;
        } else {
            let (tok, target) = st.edges[rng.gen_range(0usize..st.edges.len())];
            out.push(tok);
            cur = target;
        }
    }
    out
}

/// The linear baseline: what `predict` does without compiled tables —
/// accept check, then an `edges` scan per lookahead token. Returns a
/// checksum of accepts/misses so the loop cannot be optimized away and
/// the dispatch variants can be cross-checked.
pub fn linear_dispatch(dfa: &LookaheadDfa, seq: &[TokenType]) -> u64 {
    let mut cur = 0usize;
    let mut outcome = 0u64;
    for &tok in seq {
        if dfa.states[cur].accept.is_some() {
            outcome += 1;
            cur = 0;
        }
        match dfa.states[cur].target(tok) {
            Some(t) => cur = t,
            None => {
                outcome += 2;
                cur = 0;
            }
        }
    }
    outcome
}

/// The compiled path with identical structure: accept check from the
/// flat side table, then one class-map load and one table lookup.
pub fn table_dispatch(table: &CompiledDfa, classes: &TokenClasses, seq: &[TokenType]) -> u64 {
    let mut cur = 0usize;
    let mut outcome = 0u64;
    for &tok in seq {
        if table.accept_alt(cur).is_some() {
            outcome += 1;
            cur = 0;
        }
        match table.next(cur, classes.class_of(tok)) {
            NO_TARGET => {
                outcome += 2;
                cur = 0;
            }
            t => cur = t as usize,
        }
    }
    outcome
}

/// Selects the representative suite decisions: up to one decision per
/// [`DecisionClass`] variant per grammar (the one with the most DFA
/// states, so table effects are visible), each paired with a
/// `tokens`-long seeded walk.
///
/// # Panics
/// Panics if a compiled table disagrees with the linear scan on the
/// walk — parity is checked once, untimed, at selection time.
pub fn prediction_cases(tokens: usize, seed: u64) -> Vec<PredictionCase> {
    let mut cases = Vec::new();
    for entry in suite::all() {
        let grammar = entry.load();
        let analysis = analyze(&grammar);
        let Some(classes) = analysis.tables.classes() else { continue };
        let mut picks: Vec<(DecisionClass, usize)> = Vec::new();
        for d in &analysis.decisions {
            let class = d.dfa.classify();
            let key = std::mem::discriminant(&class);
            match picks.iter_mut().find(|(c, _)| std::mem::discriminant(c) == key) {
                Some(slot) => {
                    if d.dfa.states.len() > analysis.decisions[slot.1].dfa.states.len() {
                        *slot = (class, d.decision.index());
                    }
                }
                None => picks.push((class, d.decision.index())),
            }
        }
        picks.sort_by_key(|&(_, i)| i);
        for (class, i) in picks {
            let dfa = &analysis.decisions[i].dfa;
            if dfa.states.len() < 2 {
                continue;
            }
            let seq = prediction_walk(dfa, grammar.vocab.len(), tokens, seed ^ i as u64);
            let dense = CompiledDfa::lower(dfa, classes);
            let expected = linear_dispatch(dfa, &seq);
            assert_eq!(expected, table_dispatch(&dense, classes, &seq), "dense parity");
            cases.push(PredictionCase {
                name: entry.name,
                decision: i,
                class,
                dfa: dfa.clone(),
                classes: classes.clone(),
                dense,
                seq,
            });
        }
    }
    cases
}

/// Times every case's two dispatch strategies (best of `reps`).
pub fn measure_prediction(cases: &[PredictionCase], reps: usize) -> Vec<PredictionRow> {
    cases
        .iter()
        .map(|c| {
            let micros = |d: Duration| (d.as_micros() as u64).max(1);
            let linear_micros =
                micros(best_of(reps, || timed(|| linear_dispatch(&c.dfa, &c.seq)).1));
            let dense_micros =
                micros(best_of(reps, || timed(|| table_dispatch(&c.dense, &c.classes, &c.seq)).1));
            PredictionRow {
                name: c.name,
                decision: c.decision,
                class: c.class.to_string(),
                tokens: c.seq.len(),
                linear_micros,
                dense_micros,
                speedup_milli: linear_micros.saturating_mul(1000) / dense_micros.max(1),
                table_bytes: c.dense.table_bytes(),
            }
        })
        .collect()
}

/// Formats the prediction-dispatch table, with per-decision table bytes.
pub fn format_prediction(rows: &[PredictionRow]) -> String {
    let mut out = String::from(
        "Prediction dispatch (same token walk; linear edge scan vs compiled tables)\n\
         Grammar    Dec  Class        Tokens   Linear    Dense  Speedup  Table-B\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>3}  {:<10} {:>7} {:>6}us {:>6}us {:>7.2}x {:>8}\n",
            r.name,
            r.decision,
            r.class,
            r.tokens,
            r.linear_micros,
            r.dense_micros,
            r.speedup_milli as f64 / 1000.0,
            r.table_bytes,
        ));
    }
    out
}

/// JSONL export of the prediction rows: one `prediction` line per
/// measured decision.
pub fn prediction_jsonl(rows: &[PredictionRow]) -> String {
    jsonl(rows.iter().map(|r| {
        Json::Object(vec![
            ("type".into(), Json::Str("prediction".into())),
            ("grammar".into(), Json::Str(r.name.to_string())),
            ("decision".into(), Json::Num(r.decision as u64)),
            ("class".into(), Json::Str(r.class.clone())),
            ("tokens".into(), Json::Num(r.tokens as u64)),
            ("linear-micros".into(), Json::Num(r.linear_micros)),
            ("dense-micros".into(), Json::Num(r.dense_micros)),
            ("speedup-milli".into(), Json::Num(r.speedup_milli)),
            ("table-bytes".into(), Json::Num(r.table_bytes as u64)),
        ])
    }))
}
