//! Thompson NFA construction from lexer-rule regular expressions.
//!
//! Each lexer rule contributes one NFA fragment; all fragments share a
//! single start state so that the scanner DFA can match every rule
//! simultaneously (maximal munch with rule-priority tie-breaking).

use crate::charclass::CharSet;
use crate::regex::Rx;

/// Identifier of an NFA state (index into [`Nfa::states`]).
pub type NfaStateId = usize;

/// One NFA state: epsilon successors, at most one labelled edge, and an
/// optional accept tag.
#[derive(Debug, Clone, Default)]
pub struct NfaState {
    /// Epsilon transitions.
    pub eps: Vec<NfaStateId>,
    /// A labelled transition, if any (Thompson states need at most one).
    pub edge: Option<(CharSet, NfaStateId)>,
    /// If `Some(rule)`, reaching this state accepts lexer rule `rule`.
    pub accept: Option<usize>,
}

/// A nondeterministic finite automaton over characters, with rule-tagged
/// accept states.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// All states; state `0` is the shared start state.
    pub states: Vec<NfaState>,
    /// The start state (always `0`).
    pub start: NfaStateId,
}

impl Nfa {
    /// Creates an NFA containing only a start state.
    pub fn new() -> Self {
        Nfa { states: vec![NfaState::default()], start: 0 }
    }

    fn add_state(&mut self) -> NfaStateId {
        self.states.push(NfaState::default());
        self.states.len() - 1
    }

    fn add_eps(&mut self, from: NfaStateId, to: NfaStateId) {
        self.states[from].eps.push(to);
    }

    /// Adds `rx` as lexer rule number `rule`, reachable from the shared
    /// start state. Fragments must already be resolved.
    ///
    /// # Panics
    /// Panics if `rx` still contains [`Rx::Fragment`] nodes.
    pub fn add_rule(&mut self, rule: usize, rx: &Rx) {
        let (entry, exit) = self.build(rx);
        self.add_eps(self.start, entry);
        self.states[exit].accept = Some(rule);
    }

    /// Thompson construction; returns `(entry, exit)` of the fragment.
    fn build(&mut self, rx: &Rx) -> (NfaStateId, NfaStateId) {
        match rx {
            Rx::Empty => {
                let s = self.add_state();
                let e = self.add_state();
                self.add_eps(s, e);
                (s, e)
            }
            Rx::Set(set) => {
                let s = self.add_state();
                let e = self.add_state();
                self.states[s].edge = Some((set.clone(), e));
                (s, e)
            }
            Rx::Seq(items) => {
                let mut entry = None;
                let mut prev_exit: Option<NfaStateId> = None;
                for item in items {
                    let (s, e) = self.build(item);
                    if let Some(pe) = prev_exit {
                        self.add_eps(pe, s);
                    } else {
                        entry = Some(s);
                    }
                    prev_exit = Some(e);
                }
                match (entry, prev_exit) {
                    (Some(s), Some(e)) => (s, e),
                    _ => self.build(&Rx::Empty),
                }
            }
            Rx::Alt(items) => {
                let s = self.add_state();
                let e = self.add_state();
                for item in items {
                    let (is, ie) = self.build(item);
                    self.add_eps(s, is);
                    self.add_eps(ie, e);
                }
                (s, e)
            }
            Rx::Star(inner) => {
                let s = self.add_state();
                let e = self.add_state();
                let (is, ie) = self.build(inner);
                self.add_eps(s, is);
                self.add_eps(s, e);
                self.add_eps(ie, is);
                self.add_eps(ie, e);
                (s, e)
            }
            Rx::Plus(inner) => {
                let s = self.add_state();
                let e = self.add_state();
                let (is, ie) = self.build(inner);
                self.add_eps(s, is);
                self.add_eps(ie, is);
                self.add_eps(ie, e);
                (s, e)
            }
            Rx::Opt(inner) => {
                let s = self.add_state();
                let e = self.add_state();
                let (is, ie) = self.build(inner);
                self.add_eps(s, is);
                self.add_eps(s, e);
                self.add_eps(ie, e);
                (s, e)
            }
            Rx::Fragment(name) => {
                panic!("unresolved lexer fragment {name:?} reached NFA construction")
            }
        }
    }

    /// Epsilon closure of a set of states (sorted, deduplicated).
    pub fn eps_closure(&self, seed: &[NfaStateId]) -> Vec<NfaStateId> {
        EpsClosure::new(self).of(self, seed)
    }

    /// Simulates the NFA on `input`, returning the longest match length and
    /// the lowest-numbered accepting rule at that length, if any.
    ///
    /// This is the slow reference implementation that the DFA is tested
    /// against.
    pub fn longest_match(&self, input: &str) -> Option<(usize, usize)> {
        let mut current = self.eps_closure(&[self.start]);
        let mut best: Option<(usize, usize)> = None;
        let mut consumed = 0usize;
        let record = |states: &[NfaStateId], consumed: usize, best: &mut Option<(usize, usize)>| {
            let rule = states.iter().filter_map(|&s| self.states[s].accept).min();
            if let Some(r) = rule {
                if consumed > 0 {
                    *best = Some((consumed, r));
                }
            }
        };
        record(&current, consumed, &mut best);
        for c in input.chars() {
            let mut next: Vec<NfaStateId> = Vec::new();
            for &s in &current {
                if let Some((set, t)) = &self.states[s].edge {
                    if set.contains(c) {
                        next.push(*t);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            consumed += c.len_utf8();
            current = self.eps_closure(&next);
            record(&current, consumed, &mut best);
        }
        best
    }

    /// All distinct edge labels in the NFA (for alphabet partitioning).
    pub fn edge_sets(&self) -> Vec<CharSet> {
        self.states.iter().filter_map(|s| s.edge.as_ref().map(|(set, _)| set.clone())).collect()
    }
}

impl Default for Nfa {
    fn default() -> Self {
        Self::new()
    }
}

/// ε-closure with its visited marks kept between calls: a state is
/// visited in the current call when its mark equals the call's
/// generation, so repeated closures over one NFA (the scanner subset
/// construction takes one per DFA transition) never clear or reallocate
/// a per-NFA-state array.
pub(crate) struct EpsClosure {
    mark: Vec<u32>,
    generation: u32,
    stack: Vec<NfaStateId>,
}

impl EpsClosure {
    pub(crate) fn new(nfa: &Nfa) -> Self {
        EpsClosure { mark: vec![0; nfa.states.len()], generation: 0, stack: Vec::new() }
    }

    /// The ε-closure of `seed`, sorted and deduplicated.
    pub(crate) fn of(&mut self, nfa: &Nfa, seed: &[NfaStateId]) -> Vec<NfaStateId> {
        self.generation += 1;
        let generation = self.generation;
        let mut out = Vec::new();
        for &s in seed {
            if self.mark[s] != generation {
                self.mark[s] = generation;
                self.stack.push(s);
            }
        }
        while let Some(s) = self.stack.pop() {
            out.push(s);
            for &t in &nfa.states[s].eps {
                if self.mark[t] != generation {
                    self.mark[t] = generation;
                    self.stack.push(t);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nfa_for(patterns: &[&str]) -> Nfa {
        let mut nfa = Nfa::new();
        for (i, p) in patterns.iter().enumerate() {
            nfa.add_rule(i, &Rx::parse(p).unwrap());
        }
        nfa
    }

    #[test]
    fn single_literal() {
        let nfa = nfa_for(&["'if'"]);
        assert_eq!(nfa.longest_match("if"), Some((2, 0)));
        assert_eq!(nfa.longest_match("ifx"), Some((2, 0)));
        assert_eq!(nfa.longest_match("i"), None);
    }

    #[test]
    fn maximal_munch() {
        let nfa = nfa_for(&["'i'", "'if'"]);
        // Longest match wins even though rule 0 matches a prefix.
        assert_eq!(nfa.longest_match("if"), Some((2, 1)));
        assert_eq!(nfa.longest_match("ix"), Some((1, 0)));
    }

    #[test]
    fn priority_tie_break() {
        // Both rules match "ab"; the lower-numbered rule wins.
        let nfa = nfa_for(&["'ab'", "[a-z]+"]);
        assert_eq!(nfa.longest_match("ab"), Some((2, 0)));
        assert_eq!(nfa.longest_match("abc"), Some((3, 1)));
    }

    #[test]
    fn star_plus_opt() {
        let nfa = nfa_for(&["[0-9]+ ('.' [0-9]*)?"]);
        assert_eq!(nfa.longest_match("123"), Some((3, 0)));
        assert_eq!(nfa.longest_match("12.5x"), Some((4, 0)));
        assert_eq!(nfa.longest_match("12."), Some((3, 0)));
        assert_eq!(nfa.longest_match("."), None);
    }

    #[test]
    fn empty_match_is_not_a_token() {
        let nfa = nfa_for(&["'a'*"]);
        // A nullable rule must not produce zero-length matches.
        assert_eq!(nfa.longest_match("bbb"), None);
        assert_eq!(nfa.longest_match("aab"), Some((2, 0)));
    }

    #[test]
    fn unicode_input() {
        let nfa = nfa_for(&["[α-ω]+"]);
        assert_eq!(nfa.longest_match("αβγ!"), Some(("αβγ".len(), 0)));
    }

    #[test]
    #[should_panic(expected = "unresolved lexer fragment")]
    fn unresolved_fragment_panics() {
        let mut nfa = Nfa::new();
        nfa.add_rule(0, &Rx::Fragment("Digit".into()));
    }
}
