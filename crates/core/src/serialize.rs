//! Serialization of analysis results, so a grammar can be analyzed once
//! and its lookahead DFAs shipped/loaded without re-running the subset
//! construction — the same role the serialized decision DFAs embedded in
//! ANTLR's generated parsers play.
//!
//! The format is a small line-oriented text format (no external
//! dependencies). The ATN is *not* stored: it is rebuilt
//! deterministically from the grammar at load time; an FNV-1a hash of the
//! grammar's canonical rendering (which includes the `options { … }`
//! block) guards against loading DFAs for a different grammar, and the
//! result-affecting `AnalysisOptions` the analysis ran under are recorded
//! in the header so loaders can tell whether they match the options they
//! would analyze with (`threads` is deliberately excluded — thread count
//! never changes results).

use crate::analysis::{AnalysisOptions, AnalysisWarning, DecisionAnalysis, GrammarAnalysis};
use crate::atn::{Atn, DecisionId};
use crate::config::PredSource;
use crate::dfa::{DfaState, LookaheadDfa};
use crate::metrics::{DecisionMetrics, FallbackReason};
use llstar_grammar::{Grammar, PredId, SynPredId};
use llstar_lexer::TokenType;
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// Error from [`deserialize_analysis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializeError {
    /// 1-based line of the problem. Unexpected-EOF errors point one past
    /// the last line, so this is always ≥ 1.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analysis deserialization failed at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SerializeError {}

/// Current format header. v2 added the mandatory per-decision `metrics`
/// line; v1 files are rejected (an invalid-cache miss, so the cache
/// layer transparently rebuilds them).
const HEADER: &str = "llstar-analysis v2";

/// FNV-1a over the grammar's canonical rendering: cheap integrity check
/// that serialized DFAs belong to this grammar.
pub fn grammar_fingerprint(grammar: &Grammar) -> u64 {
    let text = llstar_grammar::grammar_to_string(grammar);
    let mut hash: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Extracts the grammar fingerprint recorded in serialized-analysis
/// `text` without deserializing the rest. `None` when the header or
/// fingerprint line is missing/malformed — the cache layer uses this to
/// distinguish "stale: grammar changed" from "corrupt file".
pub fn serialized_fingerprint(text: &str) -> Option<u64> {
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    if lines.next()? != HEADER {
        return None;
    }
    let fp = lines.next()?.strip_prefix("fingerprint ")?;
    u64::from_str_radix(fp, 16).ok()
}

fn pred_to_text(p: PredSource) -> String {
    match p {
        PredSource::Sem(id) => format!("sem{}", id.0),
        PredSource::Syn(id) => format!("syn{}", id.0),
        PredSource::NotSyn(id) => format!("nsyn{}", id.0),
    }
}

fn pred_from_text(s: &str, line: usize) -> Result<PredSource, SerializeError> {
    let err = |m: String| SerializeError { line, message: m };
    if let Some(rest) = s.strip_prefix("nsyn") {
        return Ok(PredSource::NotSyn(SynPredId(
            rest.parse().map_err(|_| err(format!("bad predicate id {s:?}")))?,
        )));
    }
    if let Some(rest) = s.strip_prefix("syn") {
        return Ok(PredSource::Syn(SynPredId(
            rest.parse().map_err(|_| err(format!("bad predicate id {s:?}")))?,
        )));
    }
    if let Some(rest) = s.strip_prefix("sem") {
        return Ok(PredSource::Sem(PredId(
            rest.parse().map_err(|_| err(format!("bad predicate id {s:?}")))?,
        )));
    }
    Err(err(format!("unknown predicate kind {s:?}")))
}

fn warning_to_text(w: &AnalysisWarning) -> String {
    match w {
        AnalysisWarning::Ambiguity { alts, resolved_to } => {
            format!("ambiguity {} -> {resolved_to}", join(alts))
        }
        AnalysisWarning::RecursionOverflow { alts } => format!("overflow {}", join(alts)),
        AnalysisWarning::NonLlRegularFallback => "non-ll-regular".to_string(),
        AnalysisWarning::StateLimit => "state-limit".to_string(),
        AnalysisWarning::DeadAlternative { alt } => format!("dead {alt}"),
    }
}

fn join(alts: &[u16]) -> String {
    alts.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",")
}

fn parse_alts(s: &str, line: usize) -> Result<Vec<u16>, SerializeError> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.parse().map_err(|_| SerializeError {
                line,
                message: format!("bad alternative list {s:?}"),
            })
        })
        .collect()
}

fn warning_from_text(s: &str, line: usize) -> Result<AnalysisWarning, SerializeError> {
    let err = |m: String| SerializeError { line, message: m };
    let mut parts = s.split_whitespace();
    match parts.next() {
        Some("ambiguity") => {
            let alts = parse_alts(parts.next().unwrap_or(""), line)?;
            let arrow = parts.next();
            if arrow != Some("->") {
                return Err(err("expected '->' in ambiguity warning".into()));
            }
            let resolved_to = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| err("missing resolved alternative".into()))?;
            Ok(AnalysisWarning::Ambiguity { alts, resolved_to })
        }
        Some("overflow") => Ok(AnalysisWarning::RecursionOverflow {
            alts: parse_alts(parts.next().unwrap_or(""), line)?,
        }),
        Some("non-ll-regular") => Ok(AnalysisWarning::NonLlRegularFallback),
        Some("state-limit") => Ok(AnalysisWarning::StateLimit),
        Some("dead") => {
            let alt = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| err("missing dead alternative".into()))?;
            Ok(AnalysisWarning::DeadAlternative { alt })
        }
        other => Err(err(format!("unknown warning {other:?}"))),
    }
}

fn metrics_to_text(m: &DecisionMetrics) -> String {
    let mut out = String::from("metrics");
    for (name, value) in m.fields() {
        let _ = write!(out, " {name}={value}");
    }
    let _ = write!(out, " fallback={}", m.fallback.map_or("-", FallbackReason::as_str));
    out
}

fn metrics_from_text(s: &str, line: usize) -> Result<DecisionMetrics, SerializeError> {
    let err = |m: String| SerializeError { line, message: m };
    let mut metrics = DecisionMetrics::default();
    for field in s.split_whitespace() {
        let (key, value) =
            field.split_once('=').ok_or_else(|| err(format!("malformed metric {field:?}")))?;
        if key == "fallback" {
            metrics.fallback = if value == "-" {
                None
            } else {
                Some(
                    FallbackReason::from_name(value)
                        .ok_or_else(|| err(format!("bad fallback {value:?}")))?,
                )
            };
        } else {
            let parsed = value.parse().map_err(|_| err(format!("bad metric value {value:?}")))?;
            if !metrics.set_field(key, parsed) {
                return Err(err(format!("unknown metric {key:?}")));
            }
        }
    }
    Ok(metrics)
}

fn options_to_text(o: &AnalysisOptions) -> String {
    let k = o.max_k.map_or("-".to_string(), |k| k.to_string());
    format!(
        "options m={} k={k} max-states={} minimize={}",
        o.rec_depth_m.max(1),
        o.max_dfa_states,
        o.minimize
    )
}

fn options_from_text(s: &str, line: usize) -> Result<AnalysisOptions, SerializeError> {
    let err = |m: String| SerializeError { line, message: m };
    let mut options = AnalysisOptions::default();
    for field in s.split_whitespace() {
        let (key, value) =
            field.split_once('=').ok_or_else(|| err(format!("malformed option {field:?}")))?;
        match key {
            "m" => {
                options.rec_depth_m = value.parse().map_err(|_| err(format!("bad m {value:?}")))?;
            }
            "k" => {
                options.max_k = if value == "-" {
                    None
                } else {
                    Some(value.parse().map_err(|_| err(format!("bad k {value:?}")))?)
                };
            }
            "max-states" => {
                options.max_dfa_states =
                    value.parse().map_err(|_| err(format!("bad max-states {value:?}")))?;
            }
            "minimize" => {
                options.minimize =
                    value.parse().map_err(|_| err(format!("bad minimize {value:?}")))?;
            }
            other => return Err(err(format!("unknown option {other:?}"))),
        }
    }
    Ok(options)
}

/// Serializes an analysis (DFAs + warnings) to the text format.
pub fn serialize_analysis(grammar: &Grammar, analysis: &GrammarAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "fingerprint {:016x}", grammar_fingerprint(grammar));
    let _ = writeln!(out, "{}", options_to_text(&analysis.options));
    let _ = writeln!(out, "decisions {}", analysis.decisions.len());
    for d in &analysis.decisions {
        let _ = writeln!(out, "decision {} states {}", d.decision.0, d.dfa.states.len());
        let _ = writeln!(out, "{}", metrics_to_text(&d.metrics));
        for st in &d.dfa.states {
            let accept = st.accept.map_or("-".to_string(), |a| a.to_string());
            let default = st.default_alt.map_or("-".to_string(), |a| a.to_string());
            let edges: Vec<String> =
                st.edges.iter().map(|(t, target)| format!("{}:{target}", t.0)).collect();
            let preds: Vec<String> =
                st.preds.iter().map(|(p, alt)| format!("{}:{alt}", pred_to_text(*p))).collect();
            let _ = writeln!(
                out,
                "state accept={accept} default={default} edges={} preds={}",
                edges.join(","),
                preds.join(",")
            );
        }
        for w in &d.warnings {
            let _ = writeln!(out, "warning {}", warning_to_text(w));
        }
        let _ = writeln!(out, "end");
    }
    out
}

/// Rebuilds a [`GrammarAnalysis`] from text produced by
/// [`serialize_analysis`]. The ATN is reconstructed from `grammar`; the
/// fingerprint must match. The [`AnalysisOptions`] recorded in the header
/// are restored into the result's `options` field — callers that would
/// have analyzed under different options must check
/// [`AnalysisOptions::same_results`] themselves (the cache layer does,
/// and treats a mismatch as a stale cache).
///
/// # Errors
/// Returns [`SerializeError`] on version/fingerprint mismatch or
/// malformed content.
pub fn deserialize_analysis(
    grammar: &Grammar,
    text: &str,
) -> Result<GrammarAnalysis, SerializeError> {
    let err = |line: usize, m: String| SerializeError { line, message: m };
    // Where unexpected-EOF errors point: one past the last line, so every
    // diagnosis (including truncation) names a concrete 1-based line.
    let eof = text.lines().count() + 1;
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let mut next_line =
        move || -> Option<(usize, &str)> { lines.by_ref().find(|(_, l)| !l.is_empty()) };

    let (ln, header) = next_line().ok_or_else(|| err(eof, "empty input".into()))?;
    if header != HEADER {
        return Err(err(ln, format!("unsupported header {header:?}")));
    }
    let (ln, fp_line) = next_line().ok_or_else(|| err(eof, "missing fingerprint".into()))?;
    let fp = fp_line
        .strip_prefix("fingerprint ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| err(ln, "malformed fingerprint line".into()))?;
    if fp != grammar_fingerprint(grammar) {
        return Err(err(
            ln,
            "fingerprint mismatch: serialized DFAs belong to a different grammar".into(),
        ));
    }

    let (ln, opt_line) = next_line().ok_or_else(|| err(eof, "missing options".into()))?;
    let options = options_from_text(
        opt_line
            .strip_prefix("options ")
            .ok_or_else(|| err(ln, "malformed options line".into()))?,
        ln,
    )?;

    let (ln, count_line) = next_line().ok_or_else(|| err(eof, "missing decision count".into()))?;
    let count: usize = count_line
        .strip_prefix("decisions ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| err(ln, "malformed decision count".into()))?;

    let atn = Atn::from_grammar(grammar);
    if atn.decisions.len() != count {
        return Err(err(
            ln,
            format!(
                "decision count mismatch: grammar has {}, file has {count}",
                atn.decisions.len()
            ),
        ));
    }

    let mut decisions: Vec<DecisionAnalysis> = Vec::with_capacity(count);
    for expected in 0..count {
        let (ln, dline) = next_line().ok_or_else(|| err(eof, "truncated file".into()))?;
        let rest = dline
            .strip_prefix("decision ")
            .ok_or_else(|| err(ln, format!("expected 'decision', found {dline:?}")))?;
        let mut parts = rest.split_whitespace();
        let id: u32 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| err(ln, "missing decision id".into()))?;
        if id as usize != expected {
            return Err(err(ln, format!("out-of-order decision {id} (expected {expected})")));
        }
        let nstates: usize = parts
            .nth(1)
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| err(ln, "missing state count".into()))?;

        let (ln, mline) = next_line().ok_or_else(|| err(eof, "missing metrics".into()))?;
        let metrics = metrics_from_text(
            mline
                .strip_prefix("metrics")
                .ok_or_else(|| err(ln, format!("expected 'metrics', found {mline:?}")))?,
            ln,
        )?;

        let mut states = Vec::with_capacity(nstates);
        for _ in 0..nstates {
            let (ln, sline) = next_line().ok_or_else(|| err(eof, "truncated state list".into()))?;
            let rest = sline
                .strip_prefix("state ")
                .ok_or_else(|| err(ln, format!("expected 'state', found {sline:?}")))?;
            let mut st = DfaState::default();
            for field in rest.split_whitespace() {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| err(ln, format!("malformed field {field:?}")))?;
                match key {
                    "accept" => {
                        if value != "-" {
                            st.accept = Some(
                                value
                                    .parse()
                                    .map_err(|_| err(ln, format!("bad accept {value:?}")))?,
                            );
                        }
                    }
                    "default" => {
                        if value != "-" {
                            st.default_alt = Some(
                                value
                                    .parse()
                                    .map_err(|_| err(ln, format!("bad default {value:?}")))?,
                            );
                        }
                    }
                    "edges" => {
                        for pair in value.split(',').filter(|p| !p.is_empty()) {
                            let (t, target) = pair
                                .split_once(':')
                                .ok_or_else(|| err(ln, format!("bad edge {pair:?}")))?;
                            st.edges.push((
                                TokenType(
                                    t.parse().map_err(|_| err(ln, format!("bad token {t:?}")))?,
                                ),
                                target
                                    .parse()
                                    .map_err(|_| err(ln, format!("bad target {target:?}")))?,
                            ));
                        }
                    }
                    "preds" => {
                        for pair in value.split(',').filter(|p| !p.is_empty()) {
                            let (p, alt) = pair
                                .split_once(':')
                                .ok_or_else(|| err(ln, format!("bad pred {pair:?}")))?;
                            st.preds.push((
                                pred_from_text(p, ln)?,
                                alt.parse()
                                    .map_err(|_| err(ln, format!("bad pred alt {alt:?}")))?,
                            ));
                        }
                    }
                    other => return Err(err(ln, format!("unknown field {other:?}"))),
                }
            }
            states.push(st);
        }
        if states.is_empty() {
            return Err(err(ln, "decision with no states".into()));
        }
        // Bounds-check edges.
        for st in &states {
            for &(_, target) in &st.edges {
                if target >= states.len() {
                    return Err(err(ln, format!("edge target {target} out of range")));
                }
            }
        }
        let mut warnings = Vec::new();
        loop {
            let (ln, wline) = next_line().ok_or_else(|| err(eof, "truncated decision".into()))?;
            if wline == "end" {
                break;
            }
            let rest = wline
                .strip_prefix("warning ")
                .ok_or_else(|| err(ln, format!("expected warning/end, found {wline:?}")))?;
            warnings.push(warning_from_text(rest, ln)?);
        }
        decisions.push(DecisionAnalysis {
            decision: DecisionId(id),
            dfa: LookaheadDfa { decision: DecisionId(id), states },
            warnings,
            metrics,
            elapsed: Duration::ZERO,
        });
    }
    let recovery = crate::recovery::RecoverySets::compute(grammar, &atn);
    // Like the recovery sets, compiled prediction tables are derived
    // data: relowered from the deserialized DFAs so cache loads carry
    // them without widening the serialized format.
    let tables = crate::compiled::CompiledTables::lower(
        grammar.vocab.len(),
        decisions.iter().map(|d| &d.dfa),
    );
    Ok(GrammarAnalysis {
        atn,
        decisions,
        recovery,
        tables,
        elapsed: Duration::ZERO,
        from_cache: true,
        options,
        fingerprint: fp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use llstar_grammar::{apply_peg_mode, parse_grammar};

    fn grammar() -> Grammar {
        apply_peg_mode(
            parse_grammar(
                r#"
                grammar S;
                options { backtrack = true; m = 1; }
                s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
                t : '-'* ID | expr ;
                u : {p}? A | {q}? A ;
                expr : INT | '-' expr ;
                A : 'a' ;
                ID : [a-zA-Z_]+ ;
                INT : [0-9]+ ;
                WS : [ ]+ -> skip ;
                "#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = grammar();
        let a = analyze(&g);
        let text = serialize_analysis(&g, &a);
        let b = deserialize_analysis(&g, &text).unwrap();
        assert_eq!(a.decisions.len(), b.decisions.len());
        for (da, db) in a.decisions.iter().zip(&b.decisions) {
            assert_eq!(da.warnings, db.warnings);
            assert_eq!(da.metrics, db.metrics, "cached analyses report their original cost");
            assert_eq!(da.dfa.states.len(), db.dfa.states.len());
            for (sa, sb) in da.dfa.states.iter().zip(&db.dfa.states) {
                assert_eq!(sa.accept, sb.accept);
                assert_eq!(sa.default_alt, sb.default_alt);
                assert_eq!(sa.edges, sb.edges);
                assert_eq!(sa.preds, sb.preds);
            }
        }
    }

    #[test]
    fn loaded_analysis_parses_like_the_original() {
        // (The runtime crate depends on core, so the parse-equivalence
        // check lives in the workspace integration tests; here we verify
        // classification equivalence.)
        let g = grammar();
        let a = analyze(&g);
        let text = serialize_analysis(&g, &a);
        let b = deserialize_analysis(&g, &text).unwrap();
        for (da, db) in a.decisions.iter().zip(&b.decisions) {
            assert_eq!(da.dfa.classify(), db.dfa.classify());
        }
    }

    #[test]
    fn loaded_analysis_carries_compiled_tables() {
        let g = grammar();
        let a = analyze(&g);
        let text = serialize_analysis(&g, &a);
        let b = deserialize_analysis(&g, &text).unwrap();
        assert!(b.tables.enabled(), "cache loads must relower prediction tables");
        assert_eq!(a.tables.classes(), b.tables.classes());
        assert_eq!(a.tables.dfas().len(), b.tables.dfas().len());
        for (ta, tb) in a.tables.dfas().iter().zip(b.tables.dfas()) {
            assert_eq!(ta.num_states, tb.num_states);
            assert_eq!(ta.next, tb.next);
            assert_eq!(ta.accept, tb.accept);
            assert_eq!(ta.default_alt, tb.default_alt);
            assert_eq!(ta.preds, tb.preds);
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let g = grammar();
        let a = analyze(&g);
        let text = serialize_analysis(&g, &a);
        let other =
            apply_peg_mode(parse_grammar("grammar O; s : A | B ; A : 'a' ; B : 'b' ;").unwrap());
        let e = deserialize_analysis(&other, &text).unwrap_err();
        assert!(e.message.contains("fingerprint mismatch"), "{e}");
    }

    #[test]
    fn corrupted_inputs_error_cleanly() {
        let g = grammar();
        let a = analyze(&g);
        let text = serialize_analysis(&g, &a);
        for corrupt in [
            "".to_string(),
            "nonsense".to_string(),
            text.replace(HEADER, "llstar-analysis v9"),
            text.replace("decisions ", "decisions 9"),
            text.lines().take(8).collect::<Vec<_>>().join("\n"),
            text.replace("accept=", "wat="),
            text.replace("metrics builds=", "metrics wat="),
        ] {
            assert!(deserialize_analysis(&g, &corrupt).is_err(), "accepted: {corrupt:.80}");
        }
    }

    #[test]
    fn edge_targets_are_bounds_checked() {
        let g = grammar();
        let a = analyze(&g);
        let text = serialize_analysis(&g, &a);
        // Blow up a target index.
        let corrupt = text.replacen(":1 ", ":9999 ", 1).replacen(":1\n", ":9999\n", 1);
        if corrupt != text {
            assert!(deserialize_analysis(&g, &corrupt).is_err());
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let g1 = grammar();
        let g2 = grammar();
        assert_eq!(grammar_fingerprint(&g1), grammar_fingerprint(&g2));
        let other = parse_grammar("grammar S; s : A ; A : 'a' ;").unwrap();
        assert_ne!(grammar_fingerprint(&g1), grammar_fingerprint(&other));
    }
}
