//! Filling a [`CoverageMap`] from the runtime. A [`CoverageRecorder`]
//! holds the map and the decision stack. The interpreter calls it
//! directly, at the sites where it already bumps its metrics
//! ([`Parser::enable_coverage`]), the way generated parsers bump their
//! `Coverage` counters; `llstar coverage <trace.jsonl>` replays a
//! recorded event stream through the same methods ([`replay_coverage`]).
//!
//! The gating rules are the contract both engines keep (parity-tested
//! byte-for-byte):
//!
//! * Speculation is never counted: only depth-0 prediction stops and
//!   successful depth-0 rule exits bump counters.
//! * A failed prediction has no stop, so it leaves its start entry
//!   dangling on the decision stack; a later successful stop pops
//!   through dangling entries. Both engines implement exactly this
//!   pop-until-match rule, keeping memo attribution deterministic even
//!   around no-viable errors. The stack lives as long as the map: one
//!   recorder spans a whole corpus.
//! * Memo traffic is charged to the innermost in-flight prediction
//!   (decision-stack top); with none active (a syntactic-predicate gate
//!   in a rule body, i.e. one not at the left edge of an alternative, so
//!   no prediction owns it), it lands in the map's unattributed bucket.
//!   Memo traffic is counted at any depth — it exists only during
//!   speculation.
//!
//! [`Parser::enable_coverage`]: crate::Parser::enable_coverage

use crate::trace::TraceEvent;
use llstar_core::coverage::CoverageMap;
use llstar_core::GrammarAnalysis;
use llstar_grammar::Grammar;

/// A [`CoverageMap`] being filled, with the decision stack its memo
/// attribution needs. See the module docs for the gating rules.
pub(crate) struct CoverageRecorder {
    map: CoverageMap,
    decision_stack: Vec<u32>,
    /// The DFA path of the depth-0 prediction in flight, reused across
    /// predictions (depth-0 predictions never nest).
    pub(crate) path: Vec<u32>,
}

impl CoverageRecorder {
    /// An empty map shaped for `grammar` + `analysis`.
    pub(crate) fn new(grammar: &Grammar, analysis: &GrammarAnalysis) -> CoverageRecorder {
        CoverageRecorder {
            map: CoverageMap::for_grammar(grammar, analysis),
            decision_stack: Vec::new(),
            path: Vec::new(),
        }
    }

    /// A prediction of `decision` starts.
    #[inline]
    pub(crate) fn predict_start(&mut self, decision: u32) {
        self.decision_stack.push(decision);
    }

    /// A prediction of `decision` succeeded: pops the decision stack
    /// through any dangling entries, then — only when `counted`, i.e. at
    /// speculation depth 0 — records its DFA `path`, `lookahead` and
    /// whether it `backtracked`.
    pub(crate) fn predict_stop(
        &mut self,
        decision: u32,
        path: &[u32],
        lookahead: u64,
        backtracked: bool,
        counted: bool,
    ) {
        while let Some(top) = self.decision_stack.pop() {
            if top == decision {
                break;
            }
        }
        if counted {
            if let Some(cov) = self.map.decisions.get_mut(decision as usize) {
                cov.record_path(path, lookahead, backtracked);
            }
        }
    }

    /// `rule` completed through alternative `alt` at speculation depth 0.
    #[inline]
    pub(crate) fn rule_exit(&mut self, rule: u32, alt: u16) {
        self.map.record_rule(rule as usize, alt);
    }

    /// One memo-table hit (`hit`) or write, charged to the innermost
    /// in-flight prediction.
    pub(crate) fn memo(&mut self, hit: bool) {
        let (hits, misses) = match self.decision_stack.last() {
            Some(&d) => match self.map.decisions.get_mut(d as usize) {
                Some(cov) => (&mut cov.memo_hits, &mut cov.memo_misses),
                None => return,
            },
            None => (&mut self.map.unattributed_memo_hits, &mut self.map.unattributed_memo_misses),
        };
        *if hit { hits } else { misses } += 1;
    }

    /// Consumes the recorder, returning the map. Its `files` count is
    /// left for the caller to set.
    pub(crate) fn into_map(self) -> CoverageMap {
        self.map
    }
}

/// Replays a recorded event stream into a map shaped for `grammar` +
/// `analysis`, through the recorder calls the parser makes, tracking
/// the speculation depth from the stream's backtrack events. The map's
/// `files` count is left at 0 for the caller to set.
pub fn replay_coverage(
    grammar: &Grammar,
    analysis: &GrammarAnalysis,
    events: &[TraceEvent],
) -> CoverageMap {
    let mut recorder = CoverageRecorder::new(grammar, analysis);
    let mut depth = 0u32;
    for event in events {
        match event {
            TraceEvent::PredictStart { decision, .. } => recorder.predict_start(*decision),
            TraceEvent::PredictStop { decision, lookahead, path, backtracked, .. } => {
                recorder.predict_stop(*decision, path, *lookahead, *backtracked, depth == 0);
            }
            TraceEvent::BacktrackEnter { .. } => depth += 1,
            TraceEvent::BacktrackExit { .. } => depth = depth.saturating_sub(1),
            TraceEvent::MemoHit { .. } => recorder.memo(true),
            TraceEvent::MemoWrite { .. } => recorder.memo(false),
            TraceEvent::RuleExit { rule, alt, ok: true, .. } if depth == 0 => {
                recorder.rule_exit(*rule, *alt);
            }
            _ => {}
        }
    }
    recorder.into_map()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NopHooks;
    use crate::parser::Parser;
    use crate::stream::TokenStream;
    use llstar_core::analyze;
    use llstar_grammar::{apply_peg_mode, parse_grammar};

    fn setup(src: &str) -> (Grammar, GrammarAnalysis) {
        let g = apply_peg_mode(parse_grammar(src).expect("grammar"));
        let a = analyze(&g);
        (g, a)
    }

    fn record(g: &Grammar, a: &GrammarAnalysis, input: &str, rule: &str) -> CoverageMap {
        let scanner = g.lexer.build().expect("lexer");
        let tokens = TokenStream::new(scanner.tokenize(input).expect("lexes"));
        let mut parser = Parser::new(g, a, tokens, NopHooks);
        parser.enable_coverage();
        parser.parse_to_eof(rule).expect("parses");
        let mut map = parser.take_coverage().expect("coverage was enabled");
        map.files = 1;
        map
    }

    const DEMO: &str = r#"
    grammar Demo;
    s : ID | ID '=' expr ;
    expr : INT ;
    ID : [a-z]+ ;
    INT : [0-9]+ ;
    WS : [ ]+ -> skip ;
    "#;

    #[test]
    fn recorder_counts_alts_paths_and_histograms() {
        let (g, a) = setup(DEMO);
        let map = record(&g, &a, "x = 4", "s");
        assert_eq!(map.files, 1);
        // Rule s completed via alternative 2; expr via its only alt.
        assert_eq!(map.rules[0], vec![0, 1]);
        assert_eq!(map.rules[1], vec![1]);
        let d0 = &map.decisions[0];
        assert_eq!(d0.predictions, 1);
        assert_eq!(d0.backtracks, 0);
        assert_eq!(d0.states[0], 1, "start state counted once per prediction");
        assert!(d0.lookahead.values().sum::<u64>() == 1);
        assert!(d0.edge_hits.iter().sum::<u64>() > 0, "token edges traversed");
        // The uncovered first alternative is visible.
        assert!(map.uncovered_alts().contains(&(0, 0)));
    }

    #[test]
    fn speculation_is_not_counted() {
        // PEG mode: `item`'s decision is not LL(*) (`x` nests), so its
        // prediction backtracks through `x`, and the recorder must gate
        // out speculative predictions and rule exits.
        let peg = r#"
        grammar Peg;
        options { backtrack = true; m = 1; }
        s : item+ ;
        item : x SEMI | x BANG | x QUERY ;
        x : LP x RP | ID ;
        SEMI : ';' ;
        BANG : '!' ;
        QUERY : '?' ;
        LP : '(' ;
        RP : ')' ;
        ID : [a-z]+ ;
        WS : [ ]+ -> skip ;
        "#;
        let (g, a) = setup(peg);
        let map = record(&g, &a, "( a ) ; ( b ) !", "s");
        // Two non-speculative completions of `item`, one per predicted
        // alternative, and of `x`, two per alternative — the speculative
        // sub-parses inside prediction are not counted.
        assert_eq!(map.rules[1], vec![1, 1, 0]);
        assert_eq!(map.rules[2], vec![2, 2]);
        // Memo traffic exists (the second speculation over `x` at one
        // position hits the first one's memo entry) and every memo event
        // is attributed somewhere deterministic.
        let attributed: u64 = map.decisions.iter().map(|d| d.memo_hits + d.memo_misses).sum();
        let total = attributed + map.unattributed_memo_hits + map.unattributed_memo_misses;
        assert!(total > 0, "PEG parse should produce memo traffic");
    }

    #[test]
    fn merged_maps_equal_single_map_sums() {
        let (g, a) = setup(DEMO);
        let mut left = record(&g, &a, "x", "s");
        let right = record(&g, &a, "y = 2", "s");
        left.merge(&right).expect("same grammar");
        assert_eq!(left.files, 2);
        assert_eq!(left.rules[0], vec![1, 1]);
        assert!(left.uncovered_alts().is_empty());
    }
}
