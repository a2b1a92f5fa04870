//! Compiled prediction tables: the lowering from [`LookaheadDfa`]s to
//! dense array-indexed dispatch.
//!
//! The paper's argument is that lookahead DFAs make LL(*) prediction
//! *cheap at parse time* — but a `Vec<(TokenType, DfaStateId)>` edge list
//! still costs a linear scan per lookahead token. ANTLR ships serialized
//! decision tables so its hot path is pure array indexing; this module
//! plays that role for both the interpreter and generated parsers:
//!
//! 1. [`TokenClasses`] partitions the token vocabulary into
//!    **equivalence classes**: two tokens land in the same class iff
//!    every DFA state of every decision moves them to the same target.
//!    The partition is grammar-wide, so the shrink is modest on
//!    token-hungry grammars; its main job is bounding row width to
//!    ≤256 so the class map is a single `u8` load.
//! 2. [`CompiledDfa`] lowers one DFA into a dense
//!    `next[state * num_classes + class] -> state` table plus flat
//!    accept / default / predicate side tables, so a transition is one
//!    indexed load. Decision DFAs are small: the largest table among the
//!    repository's grammars is 3,317 cells (java8, 13 KiB), so the table
//!    is never compressed.
//! 3. [`CompiledTables`] bundles the per-grammar class map with the
//!    per-decision tables. It is derived data — recomputed from the DFAs
//!    on every construction path (fresh analysis *and* cache load, like
//!    [`crate::recovery::RecoverySets`]) and never serialized, so the
//!    `llstar-analysis v2` cache format carries it for free.
//!
//! State ids are preserved by the lowering (state `i` of the compiled
//! table *is* state `i` of the source DFA), so trace paths, coverage
//! maps, and diagnostics stay byte-identical whichever dispatch the
//! runtime uses.

use crate::config::PredSource;
use crate::dfa::LookaheadDfa;
use crate::fxhash::FxHashMap;
use llstar_lexer::TokenType;

/// Sentinel in `next` tables: no transition.
pub const NO_TARGET: u32 = u32::MAX;

/// Sentinel in accept/default side tables: no alternative.
pub const NO_ALT: u16 = u16::MAX;

/// The per-grammar token equivalence-class partition.
///
/// Classes are numbered densely from 0 in first-appearance (token-type)
/// order, so the partition — and everything lowered from it — is
/// deterministic. At most 256 classes are representable (the class map
/// is `u8`-typed so generated parsers can embed it compactly); a grammar
/// that would exceed that is not lowered at all and the runtime keeps
/// its linear-scan dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenClasses {
    class_of: Vec<u8>,
    num_classes: usize,
}

impl TokenClasses {
    /// Computes the coarsest partition of `0..vocab_len` token types such
    /// that tokens in one class are indistinguishable to every DFA state:
    /// refined once per state by `(current class, target for token)`.
    /// Returns `None` when more than 256 classes are needed.
    pub fn compute<'a>(
        vocab_len: usize,
        dfas: impl Iterator<Item = &'a LookaheadDfa>,
    ) -> Option<TokenClasses> {
        let vocab_len = vocab_len.max(1);
        let mut class_of: Vec<u32> = vec![0; vocab_len];
        let mut num_classes: usize = 1;
        let mut row: Vec<u32> = vec![NO_TARGET; vocab_len];
        for dfa in dfas {
            for st in &dfa.states {
                if st.edges.is_empty() {
                    continue;
                }
                let mut touched = false;
                for &(t, target) in &st.edges {
                    if let Some(slot) = row.get_mut(t.index()) {
                        *slot = target as u32;
                        touched = true;
                    }
                }
                if !touched {
                    continue;
                }
                // Split every class by the target this state assigns.
                let mut sig_to_class: FxHashMap<(u32, u32), u32> = FxHashMap::default();
                let mut fresh: u32 = 0;
                for (t, class) in class_of.iter_mut().enumerate() {
                    let key = (*class, row[t]);
                    let next = fresh;
                    let id = *sig_to_class.entry(key).or_insert_with(|| {
                        fresh += 1;
                        next
                    });
                    *class = id;
                }
                num_classes = fresh as usize;
                // Reset only the cells this state populated.
                for &(t, _) in &st.edges {
                    if let Some(slot) = row.get_mut(t.index()) {
                        *slot = NO_TARGET;
                    }
                }
            }
        }
        if num_classes > 256 {
            return None;
        }
        Some(TokenClasses {
            class_of: class_of.into_iter().map(|c| c as u8).collect(),
            num_classes,
        })
    }

    /// The class of `token`. Token types past the vocabulary (which a
    /// well-formed scanner never produces) share class 0; that is safe
    /// because lookups against a class the state has no edge for yield
    /// [`NO_TARGET`] — exactly the "no transition" answer a linear scan
    /// would give for an unknown token.
    #[inline]
    pub fn class_of(&self, token: TokenType) -> usize {
        self.class_of.get(token.index()).copied().unwrap_or(0) as usize
    }

    /// Number of classes in the partition.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The raw class map, indexed by token type (for codegen emission).
    pub fn map(&self) -> &[u8] {
        &self.class_of
    }
}

/// One lookahead DFA lowered to flat tables. State numbering is the
/// source DFA's, so paths recorded through this table match paths
/// recorded through [`crate::dfa::DfaState::target`] byte for byte.
#[derive(Debug, Clone)]
pub struct CompiledDfa {
    /// Number of DFA states.
    pub num_states: usize,
    /// Row width (the grammar's class count).
    pub num_classes: usize,
    /// `next[state * num_classes + class]`, [`NO_TARGET`]-filled.
    pub next: Vec<u32>,
    /// Accept alternative per state ([`NO_ALT`] = not an accept state).
    pub accept: Vec<u16>,
    /// Default ("else") alternative per state ([`NO_ALT`] = none).
    pub default_alt: Vec<u16>,
    /// `preds[pred_range[s].0 .. pred_range[s].1]` are state `s`'s
    /// predicate transitions, in evaluation order.
    pub pred_range: Vec<(u32, u32)>,
    /// All predicate transitions, flattened.
    pub preds: Vec<(PredSource, u16)>,
}

impl CompiledDfa {
    /// Lowers `dfa` to the dense `state × class` table against the
    /// grammar's class partition.
    pub fn lower(dfa: &LookaheadDfa, classes: &TokenClasses) -> CompiledDfa {
        let nc = classes.num_classes();
        let n = dfa.states.len();
        let mut next = vec![NO_TARGET; n * nc];
        let mut accept = Vec::with_capacity(n);
        let mut default_alt = Vec::with_capacity(n);
        let mut pred_range = Vec::with_capacity(n);
        let mut preds = Vec::new();
        for (s, st) in dfa.states.iter().enumerate() {
            for &(t, target) in &st.edges {
                let cell = &mut next[s * nc + classes.class_of(t)];
                debug_assert!(
                    *cell == NO_TARGET || *cell == target as u32,
                    "tokens of one class must share a target (class partition bug)"
                );
                *cell = target as u32;
            }
            accept.push(st.accept.unwrap_or(NO_ALT));
            default_alt.push(st.default_alt.unwrap_or(NO_ALT));
            let start = preds.len() as u32;
            preds.extend_from_slice(&st.preds);
            pred_range.push((start, preds.len() as u32));
        }
        CompiledDfa { num_states: n, num_classes: nc, next, accept, default_alt, pred_range, preds }
    }

    /// The transition target from `state` on `class`, or [`NO_TARGET`].
    #[inline]
    pub fn next(&self, state: usize, class: usize) -> u32 {
        self.next[state * self.num_classes + class]
    }

    /// The accept alternative of `state`, if it is an accept state.
    #[inline]
    pub fn accept_alt(&self, state: usize) -> Option<u16> {
        match self.accept[state] {
            NO_ALT => None,
            alt => Some(alt),
        }
    }

    /// The default ("else") alternative of `state`, if any.
    #[inline]
    pub fn default_of(&self, state: usize) -> Option<u16> {
        match self.default_alt[state] {
            NO_ALT => None,
            alt => Some(alt),
        }
    }

    /// State `state`'s predicate transitions, in evaluation order.
    #[inline]
    pub fn preds_of(&self, state: usize) -> &[(PredSource, u16)] {
        let (lo, hi) = self.pred_range[state];
        &self.preds[lo as usize..hi as usize]
    }

    /// Approximate memory footprint of all tables, in bytes (transition
    /// cells at 4 bytes, accept/default at 2, predicates at 8).
    pub fn table_bytes(&self) -> usize {
        self.next.len() * 4
            + self.accept.len() * 2
            + self.default_alt.len() * 2
            + self.pred_range.len() * 8
            + self.preds.len() * 8
    }
}

/// The per-grammar bundle: one class partition, one compiled DFA per
/// decision. Empty (`enabled() == false`) when the grammar needs more
/// than 256 token classes; every consumer must then fall back to linear
/// edge scans.
#[derive(Debug, Clone)]
pub struct CompiledTables {
    classes: Option<TokenClasses>,
    dfas: Vec<CompiledDfa>,
}

impl CompiledTables {
    /// Lowers every decision DFA of a grammar. `dfas` must be in
    /// [`crate::atn::DecisionId`] order.
    pub fn lower<'a>(
        vocab_len: usize,
        dfas: impl Iterator<Item = &'a LookaheadDfa> + Clone,
    ) -> CompiledTables {
        let Some(classes) = TokenClasses::compute(vocab_len, dfas.clone()) else {
            return CompiledTables { classes: None, dfas: Vec::new() };
        };
        let dfas = dfas.map(|dfa| CompiledDfa::lower(dfa, &classes)).collect();
        CompiledTables { classes: Some(classes), dfas }
    }

    /// An empty bundle (linear-scan dispatch everywhere).
    pub fn disabled() -> CompiledTables {
        CompiledTables { classes: None, dfas: Vec::new() }
    }

    /// Whether compiled dispatch is available.
    pub fn enabled(&self) -> bool {
        self.classes.is_some()
    }

    /// The class partition, when enabled.
    pub fn classes(&self) -> Option<&TokenClasses> {
        self.classes.as_ref()
    }

    /// The class map and compiled table for `decision`, when enabled.
    #[inline]
    pub fn get(&self, decision: usize) -> Option<(&TokenClasses, &CompiledDfa)> {
        match (&self.classes, self.dfas.get(decision)) {
            (Some(classes), Some(dfa)) => Some((classes, dfa)),
            _ => None,
        }
    }

    /// All compiled DFAs, in decision order (empty when disabled).
    pub fn dfas(&self) -> &[CompiledDfa] {
        &self.dfas
    }

    /// `(lowered decisions, token classes, total table bytes)`, for
    /// `llstar check -v` and the bench reports; all zero when disabled.
    pub fn summary(&self) -> (usize, usize, usize) {
        let classes = self.classes.as_ref().map_or(0, TokenClasses::num_classes);
        let bytes = self.dfas.iter().map(|d| d.table_bytes()).sum();
        (self.dfas.len(), classes, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atn::DecisionId;
    use crate::dfa::DfaState;
    use llstar_grammar::SynPredId;

    fn accept(alt: u16) -> DfaState {
        DfaState { accept: Some(alt), ..Default::default() }
    }

    /// s0 -t1-> s1 -t2-> accept(1); s0 -t3-> accept(2)
    fn chain_dfa() -> LookaheadDfa {
        let mut dfa = LookaheadDfa::new(DecisionId(0));
        dfa.states[0].edges.push((TokenType(1), 1));
        dfa.states[0].edges.push((TokenType(3), 2));
        dfa.states.push(DfaState { edges: vec![(TokenType(2), 3)], ..Default::default() });
        dfa.states.push(accept(2));
        dfa.states.push(accept(1));
        dfa
    }

    #[test]
    fn classes_merge_indistinguishable_tokens() {
        let dfa = chain_dfa();
        // Vocabulary: EOF, t1..t3 plus two tokens (4, 5) on no edge.
        let classes = TokenClasses::compute(6, std::iter::once(&dfa)).unwrap();
        // t4, t5 and EOF are indistinguishable (no edges anywhere).
        assert_eq!(classes.class_of(TokenType(4)), classes.class_of(TokenType(5)));
        assert_eq!(classes.class_of(TokenType(0)), classes.class_of(TokenType(4)));
        // t1, t2, t3 each behave differently somewhere.
        let (c1, c2, c3) = (
            classes.class_of(TokenType(1)),
            classes.class_of(TokenType(2)),
            classes.class_of(TokenType(3)),
        );
        assert!(c1 != c2 && c2 != c3 && c1 != c3, "{classes:?}");
        assert_eq!(classes.num_classes(), 4);
    }

    #[test]
    fn dense_lowering_matches_linear_scan() {
        let dfa = chain_dfa();
        let classes = TokenClasses::compute(6, std::iter::once(&dfa)).unwrap();
        let compiled = CompiledDfa::lower(&dfa, &classes);
        for (s, st) in dfa.states.iter().enumerate() {
            assert_eq!(compiled.accept_alt(s), st.accept);
            assert_eq!(compiled.default_of(s), st.default_alt);
            assert_eq!(compiled.preds_of(s), st.preds.as_slice());
            for t in 0..6u32 {
                let token = TokenType(t);
                let linear = st.target(token).map(|x| x as u32).unwrap_or(NO_TARGET);
                assert_eq!(compiled.next(s, classes.class_of(token)), linear, "s{s} t{t}");
            }
        }
    }

    #[test]
    fn preds_and_defaults_are_flattened_in_order() {
        let mut dfa = chain_dfa();
        dfa.states[1].preds =
            vec![(PredSource::Syn(SynPredId(0)), 1), (PredSource::NotSyn(SynPredId(1)), 2)];
        dfa.states[1].default_alt = Some(3);
        let classes = TokenClasses::compute(6, std::iter::once(&dfa)).unwrap();
        let compiled = CompiledDfa::lower(&dfa, &classes);
        assert_eq!(compiled.preds_of(0), &[]);
        assert_eq!(compiled.preds_of(1), dfa.states[1].preds.as_slice());
        assert_eq!(compiled.default_of(1), Some(3));
    }

    #[test]
    fn class_overflow_disables_lowering() {
        // 300 states each distinguishing its own token: 300+ classes.
        let mut dfa = LookaheadDfa::new(DecisionId(0));
        dfa.states.resize_with(301, DfaState::default);
        for s in 0..300 {
            dfa.states[s].edges.push((TokenType(s as u32 + 1), 300));
            dfa.states[s].edges.push((TokenType(((s + 1) % 300) as u32 + 1), s));
        }
        dfa.states[300].accept = Some(1);
        assert!(TokenClasses::compute(301, std::iter::once(&dfa)).is_none());
        let tables = CompiledTables::lower(301, std::iter::once(&dfa));
        assert!(!tables.enabled());
        assert!(tables.get(0).is_none());
    }

    #[test]
    fn tables_bundle_indexes_by_decision() {
        let a = chain_dfa();
        let mut b = LookaheadDfa::new(DecisionId(1));
        b.states[0].accept = Some(1);
        let dfas = [a, b];
        let tables = CompiledTables::lower(6, dfas.iter());
        assert!(tables.enabled());
        let (_, ca) = tables.get(0).unwrap();
        assert_eq!(ca.num_states, 4);
        let (_, cb) = tables.get(1).unwrap();
        assert_eq!(cb.accept_alt(0), Some(1));
        assert!(tables.get(2).is_none());
        let (lowered, classes, bytes) = tables.summary();
        assert_eq!((lowered, classes), (2, 4));
        assert!(bytes > 0);
    }

    // -----------------------------------------------------------------
    // Boundary regressions: the exact edges of the class-count limit.
    // -----------------------------------------------------------------

    /// A hub DFA whose start state fans out on tokens `1..=k`, each to a
    /// distinct accept state: tokens `1..=k` land in `k` distinct
    /// classes, everything else shares one more, so `k + 1` classes.
    fn fanout_dfa(k: usize) -> LookaheadDfa {
        let mut dfa = LookaheadDfa::new(DecisionId(0));
        dfa.states.resize_with(k + 1, DfaState::default);
        for t in 1..=k {
            dfa.states[0].edges.push((TokenType(t as u32), t));
            dfa.states[t].accept = Some(1);
        }
        dfa
    }

    #[test]
    fn exactly_256_classes_still_lower() {
        // 255 fanout edges + the everything-else class = 256 classes,
        // the last value a u8 class map can represent.
        let dfa = fanout_dfa(255);
        let classes = TokenClasses::compute(256, std::iter::once(&dfa))
            .expect("256 classes must fit the u8 class map");
        assert_eq!(classes.num_classes(), 256);
        let tables = CompiledTables::lower(256, std::iter::once(&dfa));
        assert!(tables.enabled(), "lowering must stay enabled at the 256-class boundary");
        // Behaviour parity right at the boundary.
        let (classes, compiled) = tables.get(0).unwrap();
        for (s, st) in dfa.states.iter().enumerate() {
            for t in 0..256u32 {
                let token = TokenType(t);
                let linear = st.target(token).map(|x| x as u32).unwrap_or(NO_TARGET);
                assert_eq!(compiled.next(s, classes.class_of(token)), linear, "s{s} t{t}");
            }
        }
    }

    #[test]
    fn class_257_disables_lowering() {
        // One more distinguishable token pushes the partition to 257
        // classes — past the u8 map — so lowering must bail, not wrap.
        let dfa = fanout_dfa(256);
        assert!(TokenClasses::compute(257, std::iter::once(&dfa)).is_none());
        assert!(!CompiledTables::lower(257, std::iter::once(&dfa)).enabled());
    }
}
