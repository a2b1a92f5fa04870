//! Filling a [`CoverageMap`] from the runtime: [`CoverageSink`] is a
//! [`TraceSink`] that folds the event stream into coverage counters
//! without buffering events — attach it alone for trace-off coverage
//! collection, or tee it with an export sink (see
//! [`TeeSink`](crate::trace::TeeSink)).
//!
//! The fold's gating rules are the contract that generated parsers
//! reproduce with direct counters (parity-tested byte-for-byte):
//!
//! * Speculation is never counted. The fold tracks depth via
//!   `backtrack-enter`/`-exit`; only depth-0 `predict-stop` and
//!   successful depth-0 `rule-exit` events bump counters.
//! * Failed predictions emit no `predict-stop`, so they leave their
//!   `predict-start` entry dangling on the decision stack; a later
//!   successful stop pops through dangling entries. Both engines
//!   implement exactly this pop-until-match rule, keeping memo
//!   attribution deterministic even around no-viable errors.
//! * Memo events are charged to the innermost in-flight prediction
//!   (decision-stack top); with none active (a syntactic-predicate gate
//!   in a rule body, i.e. one not at the left edge of an alternative, so
//!   no prediction owns it), they land in the map's unattributed bucket.
//!   Memo traffic is counted at any depth — it exists only during
//!   speculation.

use crate::trace::{TraceEvent, TraceSink};
use llstar_core::coverage::CoverageMap;
use llstar_core::GrammarAnalysis;
use llstar_grammar::Grammar;

/// A [`TraceSink`] folding events into a [`CoverageMap`]. See the
/// module docs for the fold's gating rules.
pub struct CoverageSink {
    map: CoverageMap,
    spec_depth: u32,
    decision_stack: Vec<u32>,
}

impl CoverageSink {
    /// An empty fold shaped for `grammar` + `analysis`.
    pub fn new(grammar: &Grammar, analysis: &GrammarAnalysis) -> CoverageSink {
        CoverageSink {
            map: CoverageMap::for_grammar(grammar, analysis),
            spec_depth: 0,
            decision_stack: Vec::new(),
        }
    }

    /// Folds one event into the map.
    pub fn apply(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::PredictStart { decision, .. } => {
                self.decision_stack.push(*decision);
            }
            TraceEvent::PredictStop { decision, lookahead, path, backtracked, .. } => {
                while let Some(top) = self.decision_stack.pop() {
                    if top == *decision {
                        break;
                    }
                }
                if self.spec_depth == 0 {
                    if let Some(cov) = self.map.decisions.get_mut(*decision as usize) {
                        cov.record_path(path, *lookahead, *backtracked);
                    }
                }
            }
            TraceEvent::BacktrackEnter { .. } => self.spec_depth += 1,
            TraceEvent::BacktrackExit { .. } => {
                self.spec_depth = self.spec_depth.saturating_sub(1);
            }
            TraceEvent::MemoHit { .. } => self.bump_memo(true),
            TraceEvent::MemoWrite { .. } => self.bump_memo(false),
            TraceEvent::RuleExit { rule, alt, ok, .. } if self.spec_depth == 0 && *ok => {
                self.map.record_rule(*rule as usize, *alt);
            }
            _ => {}
        }
    }

    fn bump_memo(&mut self, hit: bool) {
        match self.decision_stack.last() {
            Some(&d) => {
                if let Some(cov) = self.map.decisions.get_mut(d as usize) {
                    if hit {
                        cov.memo_hits += 1;
                    } else {
                        cov.memo_misses += 1;
                    }
                }
            }
            None => {
                if hit {
                    self.map.unattributed_memo_hits += 1;
                } else {
                    self.map.unattributed_memo_misses += 1;
                }
            }
        }
    }

    /// Marks one corpus input as folded (bumps the map's file counter).
    pub fn finish_file(&mut self) {
        self.map.files += 1;
    }

    /// The map folded so far.
    pub fn map(&self) -> &CoverageMap {
        &self.map
    }

    /// Consumes the sink, returning the folded map.
    pub fn into_map(self) -> CoverageMap {
        self.map
    }
}

impl TraceSink for CoverageSink {
    fn event(&mut self, event: &TraceEvent) {
        self.apply(event);
    }
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

    fn fold(g: &Grammar, a: &GrammarAnalysis, input: &str, rule: &str) -> CoverageMap {
        let scanner = g.lexer.build().expect("lexer");
        let tokens = TokenStream::new(scanner.tokenize(input).expect("lexes"));
        let mut sink = CoverageSink::new(g, a);
        let mut parser = Parser::new(g, a, tokens, NopHooks);
        parser.set_trace_sink(&mut sink);
        parser.parse_to_eof(rule).expect("parses");
        sink.finish_file();
        sink.into_map()
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
    fn fold_counts_alts_paths_and_histograms() {
        let (g, a) = setup(DEMO);
        let map = fold(&g, &a, "x = 4", "s");
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
        // prediction backtracks through `x`, and the fold must gate out
        // speculative predictions and rule exits.
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
        let map = fold(&g, &a, "( a ) ; ( b ) !", "s");
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
    fn merged_folds_equal_single_fold_sums() {
        let (g, a) = setup(DEMO);
        let mut left = fold(&g, &a, "x", "s");
        let right = fold(&g, &a, "y = 2", "s");
        left.merge(&right).expect("same grammar");
        assert_eq!(left.files, 2);
        assert_eq!(left.rules[0], vec![1, 1]);
        assert!(left.uncovered_alts().is_empty());
    }
}
