//! Subset construction from the scanner NFA to a deterministic scanner DFA,
//! with alphabet compression.
//!
//! The classic algorithm (Aho/Sethi/Ullman) — the same algorithm the paper's
//! grammar analysis *modifies* for ATN configurations — here in its
//! unmodified character-level form for the lexer substrate.

use crate::charclass::{disjoint_partition, CharSet};
use crate::fxhash::FxHashMap;
use crate::nfa::{EpsClosure, Nfa, NfaStateId};

/// Identifier of a DFA state (index into [`ScannerDfa::states`]).
pub type DfaStateId = usize;

/// One deterministic scanner state.
#[derive(Debug, Clone)]
pub struct ScannerDfaState {
    /// Outgoing transitions `(symbol-class index, target)`.
    pub transitions: Vec<(usize, DfaStateId)>,
    /// Lowest-priority-number lexer rule accepted here, if any.
    pub accept: Option<usize>,
}

/// A deterministic scanner automaton produced by [`ScannerDfa::from_nfa`].
///
/// The input alphabet is compressed into disjoint character classes
/// (`classes`); `transitions` are indexed by class id.
#[derive(Debug, Clone)]
pub struct ScannerDfa {
    /// Disjoint character classes forming the compressed alphabet.
    pub classes: Vec<CharSet>,
    /// All DFA states; state `0` is the start state.
    pub states: Vec<ScannerDfaState>,
    /// Flattened `(lo, hi, class)` codepoint ranges of every class, sorted
    /// by `lo`, so [`ScannerDfa::class_of`] is a binary search instead of a
    /// linear probe over [`CharSet`]s.
    class_index: Vec<(u32, u32, u32)>,
}

impl ScannerDfa {
    /// Builds the DFA equivalent of `nfa` via subset construction.
    pub fn from_nfa(nfa: &Nfa) -> Self {
        let classes = disjoint_partition(&nfa.edge_sets());
        let mut class_index: Vec<(u32, u32, u32)> = classes
            .iter()
            .enumerate()
            .flat_map(|(cid, set)| set.ranges().iter().map(move |&(lo, hi)| (lo, hi, cid as u32)))
            .collect();
        class_index.sort_unstable();
        // Each NFA edge set as the sorted ids of the classes it covers.
        // Classes are blocks of the partition of all edge sets, so every
        // class range lies wholly inside one range of an edge set or
        // outside the set: a range covers exactly the class ranges that
        // start inside it.
        let edge_classes: Vec<Vec<usize>> = nfa
            .states
            .iter()
            .map(|st| {
                let Some((set, _)) = &st.edge else { return Vec::new() };
                let mut ids: Vec<usize> = Vec::new();
                for &(lo, hi) in set.ranges() {
                    let first = class_index.partition_point(|&(clo, _, _)| clo < lo);
                    ids.extend(
                        class_index[first..]
                            .iter()
                            .take_while(|&&(clo, _, _)| clo <= hi)
                            .map(|&(_, _, cid)| cid as usize),
                    );
                }
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();

        let start = nfa.eps_closure(&[nfa.start]);
        let mut states: Vec<ScannerDfaState> = Vec::new();
        let mut index: FxHashMap<Vec<NfaStateId>, DfaStateId> = FxHashMap::default();
        // `work[id]` holds DFA state `id`'s NFA set until it is expanded.
        let mut work: Vec<Vec<NfaStateId>> = Vec::new();

        let intern = |set: Vec<NfaStateId>,
                      states: &mut Vec<ScannerDfaState>,
                      index: &mut FxHashMap<Vec<NfaStateId>, DfaStateId>,
                      work: &mut Vec<Vec<NfaStateId>>|
         -> DfaStateId {
            if let Some(&id) = index.get(&set) {
                return id;
            }
            let accept = set.iter().filter_map(|&s| nfa.states[s].accept).min();
            let id = states.len();
            states.push(ScannerDfaState { transitions: Vec::new(), accept });
            index.insert(set.clone(), id);
            work.push(set);
            id
        };

        intern(start, &mut states, &mut index, &mut work);
        // move(D, class) for every class at once: one pass over D's NFA
        // states fills each touched class's target list.
        let mut moves: Vec<Vec<NfaStateId>> = vec![Vec::new(); classes.len()];
        let mut touched: Vec<usize> = Vec::new();
        let mut closure = EpsClosure::new(nfa);
        let mut from = 0;
        while from < work.len() {
            let current = std::mem::take(&mut work[from]);
            for &s in &current {
                if let Some((_, t)) = &nfa.states[s].edge {
                    for &class_id in &edge_classes[s] {
                        if moves[class_id].is_empty() {
                            touched.push(class_id);
                        }
                        moves[class_id].push(*t);
                    }
                }
            }
            touched.sort_unstable();
            for &class_id in &touched {
                let target_set = closure.of(nfa, &moves[class_id]);
                moves[class_id].clear();
                let to = intern(target_set, &mut states, &mut index, &mut work);
                states[from].transitions.push((class_id, to));
            }
            touched.clear();
            from += 1;
        }
        // Transitions are pushed in increasing class id order, so every
        // transition list is already sorted by class — the invariant
        // `step`'s binary search relies on. Assert rather than re-sort.
        debug_assert!(states.iter().all(|st| st.transitions.windows(2).all(|w| w[0].0 < w[1].0)));
        ScannerDfa { classes, states, class_index }
    }

    /// The class id matching character `c`, if any. Binary search over the
    /// flattened class ranges (classes are disjoint, so ranges are too).
    pub fn class_of(&self, c: char) -> Option<usize> {
        let cp = c as u32;
        self.class_index
            .binary_search_by(|&(lo, hi, _)| {
                if hi < cp {
                    std::cmp::Ordering::Less
                } else if lo > cp {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
            .map(|idx| self.class_index[idx].2 as usize)
    }

    /// Follows one transition. Transition lists are sorted by class id
    /// (see [`ScannerDfa::from_nfa`]), so this is a binary search rather
    /// than the historical linear scan.
    pub fn step(&self, state: DfaStateId, c: char) -> Option<DfaStateId> {
        let class = self.class_of(c)?;
        self.states[state]
            .transitions
            .binary_search_by_key(&class, |&(cl, _)| cl)
            .ok()
            .map(|idx| self.states[state].transitions[idx].1)
    }

    /// Longest-match simulation: returns `(byte length, rule)` of the
    /// longest non-empty prefix of `input` accepted by any rule.
    pub fn longest_match(&self, input: &str) -> Option<(usize, usize)> {
        let mut state = 0;
        let mut best: Option<(usize, usize)> = None;
        let mut consumed = 0;
        for c in input.chars() {
            match self.step(state, c) {
                Some(next) => {
                    state = next;
                    consumed += c.len_utf8();
                    if let Some(rule) = self.states[state].accept {
                        best = Some((consumed, rule));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Rx;
    use llstar_rng::Rng64;

    fn build(patterns: &[&str]) -> (Nfa, ScannerDfa) {
        let mut nfa = Nfa::new();
        for (i, p) in patterns.iter().enumerate() {
            nfa.add_rule(i, &Rx::parse(p).unwrap());
        }
        let dfa = ScannerDfa::from_nfa(&nfa);
        (nfa, dfa)
    }

    #[test]
    fn matches_like_nfa_on_keywords_vs_ident() {
        let (nfa, dfa) = build(&["'if'", "'int'", "[a-z]+"]);
        for input in ["if", "int", "i", "inx", "ifelse", "zebra", "9"] {
            assert_eq!(dfa.longest_match(input), nfa.longest_match(input), "input {input:?}");
        }
    }

    #[test]
    fn number_pattern() {
        let (_, dfa) = build(&["[0-9]+ ('.' [0-9]+)?"]);
        assert_eq!(dfa.longest_match("3.14x"), Some((4, 0)));
        assert_eq!(dfa.longest_match("3."), Some((1, 0)), "dangling dot is not consumed");
    }

    #[test]
    fn dfa_is_deterministic() {
        let (_, dfa) = build(&["[ab]+", "'ab'"]);
        for st in &dfa.states {
            let mut seen = std::collections::HashSet::new();
            for &(class, _) in &st.transitions {
                assert!(seen.insert(class), "duplicate transition on class {class}");
            }
        }
    }

    #[test]
    fn string_literal_rule() {
        let (_, dfa) = build(&[r#"'"' (~["\\] | '\\' .)* '"'"#]);
        assert_eq!(dfa.longest_match(r#""hi there" rest"#), Some((10, 0)));
        assert_eq!(dfa.longest_match(r#""esc\"aped" rest"#), Some((11, 0)));
        assert_eq!(dfa.longest_match(r#""unterminated"#), None);
    }

    /// The binary-searched `class_of`/`step` must agree with the linear
    /// scans they replaced, on random characters across every state.
    #[test]
    fn indexed_class_and_step_match_linear_reference() {
        let (_, dfa) = build(&["'if'", "[a-z]+", "[0-9]+ ('.' [0-9]+)?", "[ \\t\\n]+", "[α-ω]+"]);
        let mut rng = Rng64::seed_from_u64(0xC1A55);
        for _ in 0..512 {
            let c = rng.gen_char();
            let linear = dfa.classes.iter().position(|set| set.contains(c));
            assert_eq!(dfa.class_of(c), linear, "class_of({c:?})");
            for state in 0..dfa.state_count() {
                let reference = linear.and_then(|class| {
                    dfa.states[state]
                        .transitions
                        .iter()
                        .find(|&&(cl, _)| cl == class)
                        .map(|&(_, t)| t)
                });
                assert_eq!(dfa.step(state, c), reference, "step({state}, {c:?})");
            }
        }
    }

    /// The DFA must agree with the NFA reference simulation on random
    /// inputs for a representative rule set.
    #[test]
    fn prop_dfa_equals_nfa() {
        let (nfa, dfa) = build(&["'a'", "[a-c]+", "[0-2]+ ('.' [0-2]+)?", "'.'"]);
        let mut rng = Rng64::seed_from_u64(0xd5a1);
        for _ in 0..256 {
            let input = rng.gen_string_from("abc012.", 12);
            assert_eq!(dfa.longest_match(&input), nfa.longest_match(&input), "input {input:?}");
        }
    }

    /// Random pattern fuzz: any parseable pattern must yield agreeing
    /// NFA/DFA behaviour.
    #[test]
    fn prop_random_patterns() {
        let mut rng = Rng64::seed_from_u64(0xd5a2);
        for _ in 0..256 {
            let len = rng.gen_range(1usize..=10);
            let seed_pat = rng.gen_string_from("abc|()*+?", len);
            if seed_pat.is_empty() {
                continue;
            }
            let input = rng.gen_string_from("abc", 8);
            if let Ok(raw) = Rx::parse(&seed_pat) {
                // Bare letters parse as fragment references; resolve each
                // one-letter fragment to the corresponding literal.
                let rx = raw
                    .resolve_fragments(&|name| Some(Rx::literal(name)))
                    .expect("every name resolves to its literal");
                if !rx.is_nullable() {
                    let mut nfa = Nfa::new();
                    nfa.add_rule(0, &rx);
                    let dfa = ScannerDfa::from_nfa(&nfa);
                    assert_eq!(
                        dfa.longest_match(&input),
                        nfa.longest_match(&input),
                        "pattern {seed_pat:?}, input {input:?}"
                    );
                }
            }
        }
    }
}
