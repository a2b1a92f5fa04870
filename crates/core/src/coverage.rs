//! Corpus coverage maps: which alternatives, DFA states, and edges a
//! test corpus actually exercises, and where prediction effort goes.
//!
//! A [`CoverageMap`] is shaped purely by the grammar and its analysis
//! (so maps from different runs are mergeable cell-by-cell) and keyed by
//! the grammar fingerprint (so maps from *different* grammars refuse to
//! merge). It records, per parse at speculation depth zero:
//!
//! * per-rule-alternative completion counts,
//! * per-decision DFA state-visit and edge-traversal counts,
//! * per-decision lookahead-depth histograms,
//! * per-decision prediction / backtrack totals and memo hit/miss
//!   attribution (memo traffic is charged to the innermost in-flight
//!   prediction).
//!
//! The map is deliberately free of wall-clock data: the JSON rendering
//! is byte-deterministic, which is what lets the interpreted and
//! generated engines be parity-tested against each other. Hotspot *time*
//! columns come from an optional per-decision nanosecond table measured
//! by the live runtime and joined in at render time only.
//!
//! The interpreter fills a map directly, where it counts its metrics
//! (`llstar-runtime`'s `Parser::enable_coverage`), and replays a
//! recorded `TraceEvent` stream through the same calls
//! (`replay_coverage`); generated parsers bump the same counters
//! directly and render the same JSON byte-for-byte.

use crate::analysis::GrammarAnalysis;
use crate::atn::DecisionId;
use crate::json::Json;
use crate::schema::{check_schema_field, COVERAGE_SCHEMA_VERSION};
use crate::serialize::grammar_fingerprint;
use llstar_grammar::{alt_to_string, Grammar};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Coverage counters for one parsing decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionCoverage {
    /// Visit counts per DFA state (indexed by `DfaStateId`), counting
    /// the start state once per successful prediction.
    pub states: Vec<u64>,
    /// The decision's distinct `(from, to)` DFA edges, sorted. Multiple
    /// token labels between the same state pair collapse into one edge:
    /// traversal counts are about *paths*, not vocabulary.
    pub edge_list: Vec<(u32, u32)>,
    /// Traversal counts parallel to [`edge_list`](Self::edge_list).
    pub edge_hits: Vec<u64>,
    /// Lookahead-depth histogram: `depth → number of predictions` that
    /// needed exactly `depth` tokens (speculation included, matching the
    /// `lookahead` field of `predict-stop` trace events).
    pub lookahead: BTreeMap<u64, u64>,
    /// Successful predictions at speculation depth zero.
    pub predictions: u64,
    /// Predictions (of those) that fell over to backtracking.
    pub backtracks: u64,
    /// Memo-table hits attributed to this decision.
    pub memo_hits: u64,
    /// Memo-table misses (writes) attributed to this decision.
    pub memo_misses: u64,
}

impl DecisionCoverage {
    fn empty_like(states: usize, edge_list: Vec<(u32, u32)>) -> Self {
        DecisionCoverage {
            states: vec![0; states],
            edge_hits: vec![0; edge_list.len()],
            edge_list,
            lookahead: BTreeMap::new(),
            predictions: 0,
            backtracks: 0,
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// Index of `(from, to)` in the sorted edge list.
    pub fn edge_index(&self, from: u32, to: u32) -> Option<usize> {
        self.edge_list.binary_search(&(from, to)).ok()
    }

    /// Records a successful prediction's DFA path (`path[0]` is the
    /// start state) plus its effective lookahead depth.
    pub fn record_path(&mut self, path: &[u32], lookahead: u64, backtracked: bool) {
        for &s in path {
            if let Some(slot) = self.states.get_mut(s as usize) {
                *slot += 1;
            }
        }
        for w in path.windows(2) {
            if let Some(i) = self.edge_index(w[0], w[1]) {
                self.edge_hits[i] += 1;
            }
        }
        *self.lookahead.entry(lookahead).or_insert(0) += 1;
        self.predictions += 1;
        if backtracked {
            self.backtracks += 1;
        }
    }

    /// The `p`-th percentile (0–100) of the lookahead histogram: the
    /// smallest depth at which `p`% of predictions have completed.
    /// `None` for an empty histogram. Integer arithmetic, so the value
    /// is byte-deterministic.
    pub fn lookahead_percentile(&self, p: u64) -> Option<u64> {
        let total: u64 = self.lookahead.values().sum();
        if total == 0 {
            return None;
        }
        let mut cum = 0u64;
        for (&depth, &count) in &self.lookahead {
            cum += count;
            if cum * 100 >= total * p {
                return Some(depth);
            }
        }
        self.lookahead.keys().next_back().copied()
    }
}

/// A mergeable, grammar-fingerprinted coverage map. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMap {
    /// [`grammar_fingerprint`] of the grammar the map was collected for.
    pub fingerprint: u64,
    /// Number of corpus inputs merged into this map.
    pub files: u64,
    /// Per-rule alternative completion counts, indexed by
    /// [`RuleId`](llstar_grammar::RuleId);
    /// inner vectors are indexed by zero-based alternative.
    pub rules: Vec<Vec<u64>>,
    /// Per-decision counters, indexed by [`DecisionId`] (synthetic
    /// predicate-fragment decisions included so the shape matches the
    /// analysis; they stay zero because speculation is never counted).
    pub decisions: Vec<DecisionCoverage>,
    /// Memo hits observed while no prediction was in flight (syntactic
    /// predicates gating a rule body, away from an alternative's left
    /// edge).
    pub unattributed_memo_hits: u64,
    /// Memo misses observed while no prediction was in flight.
    pub unattributed_memo_misses: u64,
}

impl CoverageMap {
    /// An all-zero map shaped for `grammar` + `analysis`.
    pub fn for_grammar(grammar: &Grammar, analysis: &GrammarAnalysis) -> CoverageMap {
        let rules = grammar.rules.iter().map(|r| vec![0u64; r.alts.len()]).collect();
        let decisions = analysis
            .decisions
            .iter()
            .map(|d| {
                let mut edges: Vec<(u32, u32)> = Vec::new();
                for (from, st) in d.dfa.states.iter().enumerate() {
                    for &(_, to) in &st.edges {
                        edges.push((from as u32, to as u32));
                    }
                }
                edges.sort_unstable();
                edges.dedup();
                DecisionCoverage::empty_like(d.dfa.states.len(), edges)
            })
            .collect();
        CoverageMap {
            fingerprint: grammar_fingerprint(grammar),
            files: 0,
            rules,
            decisions,
            unattributed_memo_hits: 0,
            unattributed_memo_misses: 0,
        }
    }

    /// Records the completion of rule `rule` via 1-based alternative
    /// `alt` (`0` for single-alternative rules and for error-recovery
    /// returns that never chose an alternative — the latter are not
    /// counted).
    pub fn record_rule(&mut self, rule: usize, alt: u16) {
        let Some(counts) = self.rules.get_mut(rule) else { return };
        let idx = if counts.len() == 1 {
            0
        } else if alt >= 1 {
            alt as usize - 1
        } else {
            return;
        };
        if let Some(slot) = counts.get_mut(idx) {
            *slot += 1;
        }
    }

    /// Adds `other` into `self`, cell by cell.
    ///
    /// # Errors
    /// When the fingerprints differ (maps from different grammars) or
    /// the shapes disagree (same fingerprint but different analysis —
    /// should be impossible, reported rather than silently miscounted).
    pub fn merge(&mut self, other: &CoverageMap) -> Result<(), String> {
        if self.fingerprint != other.fingerprint {
            return Err(format!(
                "coverage maps belong to different grammars (fingerprint {:016x} vs {:016x})",
                self.fingerprint, other.fingerprint
            ));
        }
        if self.rules.len() != other.rules.len() || self.decisions.len() != other.decisions.len() {
            return Err("coverage maps have different shapes".into());
        }
        self.files += other.files;
        for (mine, theirs) in self.rules.iter_mut().zip(&other.rules) {
            if mine.len() != theirs.len() {
                return Err("coverage maps have different rule shapes".into());
            }
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        for (mine, theirs) in self.decisions.iter_mut().zip(&other.decisions) {
            if mine.states.len() != theirs.states.len() || mine.edge_list != theirs.edge_list {
                return Err("coverage maps have different decision shapes".into());
            }
            for (a, b) in mine.states.iter_mut().zip(&theirs.states) {
                *a += b;
            }
            for (a, b) in mine.edge_hits.iter_mut().zip(&theirs.edge_hits) {
                *a += b;
            }
            for (&depth, &count) in &theirs.lookahead {
                *mine.lookahead.entry(depth).or_insert(0) += count;
            }
            mine.predictions += theirs.predictions;
            mine.backtracks += theirs.backtracks;
            mine.memo_hits += theirs.memo_hits;
            mine.memo_misses += theirs.memo_misses;
        }
        self.unattributed_memo_hits += other.unattributed_memo_hits;
        self.unattributed_memo_misses += other.unattributed_memo_misses;
        Ok(())
    }

    /// Zero-based `(rule, alt)` pairs whose alternative never completed
    /// a non-speculative parse.
    pub fn uncovered_alts(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (rule, counts) in self.rules.iter().enumerate() {
            for (alt, &count) in counts.iter().enumerate() {
                if count == 0 {
                    out.push((rule, alt));
                }
            }
        }
        out
    }

    /// `(decision, from, to)` DFA edges never traversed by a successful
    /// non-speculative prediction. Synthetic (predicate-fragment)
    /// decisions are skipped: speculation is never counted, so their
    /// edges are dead by construction.
    pub fn dead_edges(&self, analysis: &GrammarAnalysis) -> Vec<(DecisionId, u32, u32)> {
        let mut out = Vec::new();
        for (d, cov) in self.decisions.iter().enumerate() {
            if !analysis.atn.decisions[d].is_grammar_decision() {
                continue;
            }
            for (i, &(from, to)) in cov.edge_list.iter().enumerate() {
                if cov.edge_hits[i] == 0 {
                    out.push((DecisionId(d as u32), from, to));
                }
            }
        }
        out
    }

    /// The stable JSON rendering. One document; byte-deterministic
    /// (generated parsers emit the identical bytes — parity-tested).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"type\":\"coverage\",\"schema\":{},\"fingerprint\":{},\"files\":{},\"rules\":[",
            COVERAGE_SCHEMA_VERSION, self.fingerprint, self.files
        );
        for (i, counts) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, c) in counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push(']');
        }
        out.push_str("],\"decisions\":[");
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"states\":[");
            for (j, c) in d.states.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("],\"edges\":[");
            for (j, (&(from, to), &hits)) in d.edge_list.iter().zip(&d.edge_hits).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{from},{to},{hits}]");
            }
            out.push_str("],\"lookahead\":[");
            for (j, (&depth, &count)) in d.lookahead.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{depth},{count}]");
            }
            let _ = write!(
                out,
                "],\"predictions\":{},\"backtracks\":{},\"memo\":[{},{}]}}",
                d.predictions, d.backtracks, d.memo_hits, d.memo_misses
            );
        }
        let _ = write!(
            out,
            "],\"memo-unattributed\":[{},{}]}}",
            self.unattributed_memo_hits, self.unattributed_memo_misses
        );
        out
    }

    /// Parses a map back from its [`to_json`](Self::to_json) rendering.
    ///
    /// # Errors
    /// On a non-coverage document, an unsupported `"schema"` version, or
    /// structural mismatches.
    pub fn from_json(value: &Json) -> Result<CoverageMap, String> {
        if value.get("type").and_then(Json::as_str) != Some("coverage") {
            return Err("not a coverage document".into());
        }
        check_schema_field(value, "coverage", COVERAGE_SCHEMA_VERSION)?;
        let field = |k: &str| value.get(k).and_then(Json::as_u64).ok_or(format!("missing {k:?}"));
        let fingerprint = field("fingerprint")?;
        let files = field("files")?;
        let rules = value
            .get("rules")
            .and_then(Json::as_array)
            .ok_or("missing \"rules\"")?
            .iter()
            .map(|r| {
                r.as_array()
                    .ok_or("rule entry is not an array")?
                    .iter()
                    .map(|c| c.as_u64().ok_or_else(|| "non-numeric alt count".to_string()))
                    .collect::<Result<Vec<u64>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut decisions = Vec::new();
        for d in value.get("decisions").and_then(Json::as_array).ok_or("missing \"decisions\"")? {
            let nums = |k: &str| -> Result<Vec<u64>, String> {
                d.get(k)
                    .and_then(Json::as_array)
                    .ok_or(format!("missing decision {k:?}"))?
                    .iter()
                    .map(|c| c.as_u64().ok_or_else(|| format!("non-numeric {k}")))
                    .collect()
            };
            let states = nums("states")?;
            let mut edge_list = Vec::new();
            let mut edge_hits = Vec::new();
            for e in d.get("edges").and_then(Json::as_array).ok_or("missing \"edges\"")? {
                match e.as_array() {
                    Some([f, t, c]) => {
                        let (f, t, c) = (
                            f.as_u64().ok_or("bad edge")?,
                            t.as_u64().ok_or("bad edge")?,
                            c.as_u64().ok_or("bad edge")?,
                        );
                        edge_list.push((f as u32, t as u32));
                        edge_hits.push(c);
                    }
                    _ => return Err("edge entry is not a [from,to,count] triple".into()),
                }
            }
            let mut lookahead = BTreeMap::new();
            for e in d.get("lookahead").and_then(Json::as_array).ok_or("missing \"lookahead\"")? {
                match e.as_array() {
                    Some([k, v]) => {
                        lookahead.insert(
                            k.as_u64().ok_or("bad histogram entry")?,
                            v.as_u64().ok_or("bad histogram entry")?,
                        );
                    }
                    _ => return Err("histogram entry is not a [depth,count] pair".into()),
                }
            }
            let dnum = |k: &str| d.get(k).and_then(Json::as_u64).ok_or(format!("missing {k:?}"));
            let memo = d.get("memo").and_then(Json::as_array).ok_or("missing \"memo\"")?;
            let (memo_hits, memo_misses) = match memo {
                [h, m] => (h.as_u64().ok_or("bad memo pair")?, m.as_u64().ok_or("bad memo pair")?),
                _ => return Err("\"memo\" is not a [hits,misses] pair".into()),
            };
            decisions.push(DecisionCoverage {
                states,
                edge_list,
                edge_hits,
                lookahead,
                predictions: dnum("predictions")?,
                backtracks: dnum("backtracks")?,
                memo_hits,
                memo_misses,
            });
        }
        let un = value
            .get("memo-unattributed")
            .and_then(Json::as_array)
            .ok_or("missing \"memo-unattributed\"")?;
        let (unattributed_memo_hits, unattributed_memo_misses) = match un {
            [h, m] => (h.as_u64().ok_or("bad memo pair")?, m.as_u64().ok_or("bad memo pair")?),
            _ => return Err("\"memo-unattributed\" is not a [hits,misses] pair".into()),
        };
        Ok(CoverageMap {
            fingerprint,
            files,
            rules,
            decisions,
            unattributed_memo_hits,
            unattributed_memo_misses,
        })
    }

    /// The annotated-grammar text report: every rule with per-alternative
    /// hit counts (uncovered alternatives flagged), then the dead-edge
    /// list.
    pub fn annotated_report(&self, grammar: &Grammar, analysis: &GrammarAnalysis) -> String {
        let mut out = String::new();
        let total_alts: usize = self.rules.iter().map(Vec::len).sum();
        let uncovered = self.uncovered_alts();
        let _ = writeln!(
            out,
            "grammar {}: {} file(s), {}/{} alternatives covered",
            grammar.name,
            self.files,
            total_alts - uncovered.len(),
            total_alts
        );
        for (rule, counts) in grammar.rules.iter().zip(&self.rules) {
            let _ = writeln!(out, "{} :", rule.name);
            for (i, (alt, &count)) in rule.alts.iter().zip(counts).enumerate() {
                let text = alt_to_string(grammar, alt);
                let sep = if i == 0 { ' ' } else { '|' };
                if count == 0 {
                    let _ = writeln!(out, "      {sep} {text:<40} // UNCOVERED");
                } else {
                    let _ = writeln!(out, "      {sep} {text:<40} // x{count}");
                }
            }
            let _ = writeln!(out, "      ;");
        }
        let dead = self.dead_edges(analysis);
        if dead.is_empty() {
            let _ = writeln!(out, "dead DFA edges: none");
        } else {
            let _ = writeln!(out, "dead DFA edges ({}):", dead.len());
            for (d, from, to) in dead {
                let rule = analysis.atn.decisions[d.index()].rule;
                let _ = writeln!(
                    out,
                    "  d{} (rule {}): s{from} -> s{to} never traversed",
                    d.0,
                    grammar.rules[rule.index()].name
                );
            }
        }
        out
    }

    /// The per-decision hotspot table. `nanos` is an optional
    /// per-decision prediction-time table (indexed by `DecisionId`) from
    /// a live run; without it (JSONL replay) the time columns render as
    /// `-` and rows sort by prediction count instead.
    pub fn hotspot_table(
        &self,
        grammar: &Grammar,
        analysis: &GrammarAnalysis,
        nanos: Option<&[u64]>,
    ) -> String {
        let total_nanos: u64 = nanos.map(|n| n.iter().sum()).unwrap_or(0);
        let mut rows: Vec<usize> = (0..self.decisions.len())
            .filter(|&d| analysis.atn.decisions[d].is_grammar_decision())
            .filter(|&d| {
                self.decisions[d].predictions > 0
                    || nanos.is_some_and(|n| n.get(d).is_some_and(|&t| t > 0))
            })
            .collect();
        rows.sort_by_key(|&d| {
            let time = nanos.and_then(|n| n.get(d).copied()).unwrap_or(0);
            (std::cmp::Reverse(time), std::cmp::Reverse(self.decisions[d].predictions), d)
        });

        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:<14} {:>11} {:>9} {:>6} {:>6} {:>6} {:>6} {:>12}",
            "decision", "rule", "predictions", "time", "share", "p50", "p99", "bt%", "memo h/m"
        );
        for d in rows {
            let cov = &self.decisions[d];
            let dec = &analysis.atn.decisions[d];
            let rule = &grammar.rules[dec.rule.index()].name;
            let (time, share) = match nanos.and_then(|n| n.get(d).copied()) {
                Some(t) if total_nanos > 0 => (
                    format!("{:.2}ms", t as f64 / 1e6),
                    format!("{:.1}%", t as f64 * 100.0 / total_nanos as f64),
                ),
                _ => ("-".to_string(), "-".to_string()),
            };
            let p50 = cov.lookahead_percentile(50).map_or("-".into(), |k| k.to_string());
            let p99 = cov.lookahead_percentile(99).map_or("-".into(), |k| k.to_string());
            let bt = if cov.predictions > 0 {
                format!("{:.1}", cov.backtracks as f64 * 100.0 / cov.predictions as f64)
            } else {
                "-".into()
            };
            let _ = writeln!(
                out,
                "{:<10} {:<14} {:>11} {:>9} {:>6} {:>6} {:>6} {:>6} {:>12}",
                format!("d{}", d),
                rule,
                cov.predictions,
                time,
                share,
                p50,
                p99,
                bt,
                format!("{}/{}", cov.memo_hits, cov.memo_misses)
            );
        }
        if self.unattributed_memo_hits + self.unattributed_memo_misses > 0 {
            let _ = writeln!(
                out,
                "{:<10} {:<14} {:>11} {:>9} {:>6} {:>6} {:>6} {:>6} {:>12}",
                "(gates)",
                "-",
                "-",
                "-",
                "-",
                "-",
                "-",
                "-",
                format!("{}/{}", self.unattributed_memo_hits, self.unattributed_memo_misses)
            );
        }
        out
    }

    /// A one-line summary for CLI output.
    pub fn summary(&self, grammar: &Grammar) -> String {
        let total_alts: usize = self.rules.iter().map(Vec::len).sum();
        let uncovered = self.uncovered_alts().len();
        let predictions: u64 = self.decisions.iter().map(|d| d.predictions).sum();
        format!(
            "{}: {} file(s), {}/{} alternatives covered, {} predictions",
            grammar.name,
            self.files,
            total_alts - uncovered,
            total_alts,
            predictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use llstar_grammar::parse_grammar;

    fn demo() -> (Grammar, GrammarAnalysis) {
        let g = parse_grammar(
            r#"
            grammar Demo;
            s : ID | ID '=' expr ;
            expr : INT ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
            "#,
        )
        .expect("grammar");
        let a = analyze(&g);
        (g, a)
    }

    #[test]
    fn shape_follows_grammar_and_analysis() {
        let (g, a) = demo();
        let map = CoverageMap::for_grammar(&g, &a);
        assert_eq!(map.rules.len(), g.rules.len());
        assert_eq!(map.rules[0].len(), 2);
        assert_eq!(map.decisions.len(), a.decisions.len());
        assert_eq!(map.fingerprint, grammar_fingerprint(&g));
        // Everything starts uncovered.
        assert_eq!(map.uncovered_alts().len(), 3);
        assert!(!map.dead_edges(&a).is_empty());
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let (g, a) = demo();
        let mut map = CoverageMap::for_grammar(&g, &a);
        map.files = 2;
        map.record_rule(0, 2);
        map.record_rule(1, 0);
        map.decisions[0].record_path(&[0, 1, 2], 2, true);
        map.decisions[0].memo_hits = 3;
        map.unattributed_memo_misses = 1;
        let json = map.to_json();
        let parsed =
            CoverageMap::from_json(&Json::parse(&json).expect("valid json")).expect("parses");
        assert_eq!(parsed, map);
        assert_eq!(parsed.to_json(), json, "re-render is byte-identical");
    }

    #[test]
    fn from_json_rejects_wrong_schema_version() {
        let (g, a) = demo();
        let json = CoverageMap::for_grammar(&g, &a).to_json();
        let bumped = json.replacen("\"schema\":1", "\"schema\":99", 1);
        let err = CoverageMap::from_json(&Json::parse(&bumped).unwrap()).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
    }

    #[test]
    fn merge_sums_and_rejects_foreign_maps() {
        let (g, a) = demo();
        let mut left = CoverageMap::for_grammar(&g, &a);
        let mut right = CoverageMap::for_grammar(&g, &a);
        left.files = 1;
        right.files = 2;
        left.record_rule(0, 1);
        right.record_rule(0, 1);
        right.record_rule(0, 2);
        left.decisions[0].record_path(&[0, 1], 1, false);
        right.decisions[0].record_path(&[0, 1], 3, true);
        left.merge(&right).expect("same grammar merges");
        assert_eq!(left.files, 3);
        assert_eq!(left.rules[0], vec![2, 1]);
        assert_eq!(left.decisions[0].predictions, 2);
        assert_eq!(left.decisions[0].backtracks, 1);
        assert_eq!(left.decisions[0].lookahead.get(&1), Some(&1));
        assert_eq!(left.decisions[0].lookahead.get(&3), Some(&1));

        let other_g =
            parse_grammar("grammar Other;\ns : ID ;\nID : [a-z]+ ;\nWS : [ ]+ -> skip ;\n")
                .unwrap();
        let other_a = analyze(&other_g);
        let foreign = CoverageMap::for_grammar(&other_g, &other_a);
        let err = left.merge(&foreign).unwrap_err();
        assert!(err.contains("different grammars"), "{err}");
    }

    #[test]
    fn record_rule_indexing() {
        let (g, a) = demo();
        let mut map = CoverageMap::for_grammar(&g, &a);
        map.record_rule(0, 1); // multi-alt rule, 1-based alt
        map.record_rule(0, 0); // recovery return without an alt: ignored
        map.record_rule(1, 0); // single-alt rule completes as alt 0
        map.record_rule(9, 1); // out of range: ignored
        assert_eq!(map.rules[0], vec![1, 0]);
        assert_eq!(map.rules[1], vec![1]);
    }

    #[test]
    fn percentiles_are_integer_deterministic() {
        let (g, a) = demo();
        let mut map = CoverageMap::for_grammar(&g, &a);
        for (depth, n) in [(1u64, 98u64), (2, 1), (7, 1)] {
            map.decisions[0].lookahead.insert(depth, n);
        }
        assert_eq!(map.decisions[0].lookahead_percentile(50), Some(1));
        assert_eq!(map.decisions[0].lookahead_percentile(99), Some(2));
        assert_eq!(map.decisions[0].lookahead_percentile(100), Some(7));
        assert_eq!(DecisionCoverage::empty_like(1, Vec::new()).lookahead_percentile(50), None);
    }

    #[test]
    fn reports_name_uncovered_alts_and_dead_edges() {
        let (g, a) = demo();
        let mut map = CoverageMap::for_grammar(&g, &a);
        map.files = 1;
        map.record_rule(0, 1);
        let report = map.annotated_report(&g, &a);
        assert!(report.contains("UNCOVERED"), "{report}");
        assert!(report.contains("never traversed"), "{report}");
        let table = map.hotspot_table(&g, &a, None);
        assert!(table.contains("decision"), "{table}");
    }
}
