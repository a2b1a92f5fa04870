//! Scanner-DFA lowering to byte-indexed dispatch tables.
//!
//! This is the lexer-side twin of `llstar-core`'s decision-DFA lowering
//! (PR 5): the subset-construction [`ScannerDfa`] keeps its transitions as
//! per-state `(char class, target)` lists over
//! [`CharSet`](crate::charclass::CharSet) classes, which costs a linear
//! class probe plus a linear transition scan per input character. [`ScannerTables`] replaces both with array loads:
//!
//! 1. **Byte classes.** A 128-entry `u8` map sends each ASCII byte to its
//!    scanner class; non-ASCII codepoints binary-search a small sorted
//!    range list. A synthetic *dead class* (id = original class count)
//!    absorbs every unmapped byte, so the hot loop never branches on
//!    "no class" — the dead class simply has no transition anywhere.
//! 2. **Next table.** A dense `next[state * num_classes + class]` as
//!    `u16`: one indexed load per input byte. The largest scanner among
//!    the repository's grammars (java8) is 19,337 cells, under 40 KiB.
//!
//! Lowering is refused (returns `None`) when the automaton outgrows the
//! fixed-width encodings: more than [`MAX_CLASSES`] character classes
//! (the dead class must still fit in a `u8`), or `u16::MAX`-or-more states
//! or rules. Callers fall back to the [`ScannerDfa`] simulation, which is
//! always byte-identical.

use crate::dfa::ScannerDfa;

/// "No transition" sentinel in the next table.
pub const NO_STATE: u16 = u16::MAX;
/// "Not an accept state" sentinel in the accept table.
pub const NO_RULE: u16 = u16::MAX;
/// Most character classes a lowerable scanner may have: class ids plus the
/// synthetic dead class must fit in a `u8`, so 255 real classes is the
/// ceiling and a 256-class automaton stays on the interpreted path.
pub const MAX_CLASSES: usize = 255;
/// A [`ScannerDfa`] lowered to byte-indexed tables.
#[derive(Debug, Clone)]
pub struct ScannerTables {
    num_states: usize,
    /// Class count *including* the dead class (id `num_classes - 1`).
    num_classes: usize,
    /// ASCII byte → class id (dead class when no [`CharSet`] covers it).
    ascii_class: [u8; 128],
    /// Sorted, disjoint `(lo, hi, class)` codepoint ranges for `char`s
    /// ≥ `0x80`; codepoints not found take the dead class.
    wide: Vec<(u32, u32, u8)>,
    /// `next[state * num_classes + class]`, [`NO_STATE`]-filled.
    next: Vec<u16>,
    /// Accepted rule per state ([`NO_RULE`] = none).
    accept: Vec<u16>,
}

impl ScannerTables {
    /// Lowers `dfa`, or `None` when it exceeds the table encodings.
    pub fn lower(dfa: &ScannerDfa) -> Option<ScannerTables> {
        let k = dfa.classes.len();
        if k > MAX_CLASSES || dfa.states.len() >= NO_STATE as usize {
            return None;
        }
        let max_rule = dfa.states.iter().filter_map(|s| s.accept).max().unwrap_or(0);
        if max_rule >= NO_RULE as usize {
            return None;
        }
        let nc = k + 1; // id `k` is the dead class
        let dead = k as u8;
        let mut ascii_class = [dead; 128];
        let mut wide: Vec<(u32, u32, u8)> = Vec::new();
        for (cid, set) in dfa.classes.iter().enumerate() {
            for &(lo, hi) in set.ranges() {
                for b in lo..=hi.min(0x7F) {
                    ascii_class[b as usize] = cid as u8;
                }
                if hi >= 0x80 {
                    wide.push((lo.max(0x80), hi, cid as u8));
                }
            }
        }
        wide.sort_unstable();

        let n = dfa.states.len();
        let mut next = vec![NO_STATE; n * nc];
        for (s, st) in dfa.states.iter().enumerate() {
            for &(class, target) in &st.transitions {
                next[s * nc + class] = target as u16;
            }
        }
        let accept: Vec<u16> =
            dfa.states.iter().map(|s| s.accept.map_or(NO_RULE, |r| r as u16)).collect();

        Some(ScannerTables { num_states: n, num_classes: nc, ascii_class, wide, next, accept })
    }

    /// The transition target from `state` on `class`, or [`NO_STATE`].
    #[inline]
    pub fn next(&self, state: usize, class: usize) -> u16 {
        self.next[state * self.num_classes + class]
    }

    /// Class of an ASCII byte (`b < 0x80`).
    #[inline]
    pub fn ascii_class_of(&self, b: u8) -> usize {
        debug_assert!(b < 0x80);
        self.ascii_class[b as usize] as usize
    }

    /// Class of a non-ASCII codepoint (dead class when unmapped).
    #[inline]
    pub fn wide_class_of(&self, cp: u32) -> usize {
        match self.wide.binary_search_by(|&(lo, hi, _)| {
            if hi < cp {
                std::cmp::Ordering::Less
            } else if lo > cp {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(idx) => self.wide[idx].2 as usize,
            Err(_) => self.num_classes - 1,
        }
    }

    /// Longest-match simulation over the lowered tables. Byte-identical
    /// to [`ScannerDfa::longest_match`] by construction.
    pub fn longest_match(&self, input: &str) -> Option<(usize, usize)> {
        let bytes = input.as_bytes();
        let mut state = 0usize;
        let mut best: Option<(usize, usize)> = None;
        let mut i = 0usize;
        while i < bytes.len() {
            let b = bytes[i];
            let (class, step) = if b < 0x80 {
                (self.ascii_class[b as usize] as usize, 1)
            } else {
                let c = input[i..].chars().next().expect("i is a char boundary");
                (self.wide_class_of(c as u32), c.len_utf8())
            };
            let next = self.next(state, class);
            if next == NO_STATE {
                break;
            }
            state = next as usize;
            i += step;
            if self.accept[state] != NO_RULE {
                best = Some((i, self.accept[state] as usize));
            }
        }
        best
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of classes, dead class included.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The ASCII byte-class map (128 entries).
    pub fn ascii_map(&self) -> &[u8; 128] {
        &self.ascii_class
    }

    /// The non-ASCII `(lo, hi, class)` ranges, sorted by `lo`.
    pub fn wide_ranges(&self) -> &[(u32, u32, u8)] {
        &self.wide
    }

    /// The dense transition table, `next[state * num_classes + class]`.
    pub fn next_table(&self) -> &[u16] {
        &self.next
    }

    /// Accepted rule per state ([`NO_RULE`] = none).
    pub fn accept_table(&self) -> &[u16] {
        &self.accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use crate::regex::Rx;
    use llstar_rng::Rng64;

    fn dfa_of(patterns: &[&str]) -> ScannerDfa {
        let mut nfa = Nfa::new();
        for (i, p) in patterns.iter().enumerate() {
            nfa.add_rule(i, &Rx::parse(p).unwrap());
        }
        ScannerDfa::from_nfa(&nfa)
    }

    fn assert_equivalent(dfa: &ScannerDfa, tables: &ScannerTables, input: &str) {
        assert_eq!(
            tables.longest_match(input),
            dfa.longest_match(input),
            "table path on {input:?}"
        );
    }

    #[test]
    fn matches_dfa_on_representative_rules() {
        let dfa = dfa_of(&["'if'", "[a-zA-Z_] [a-zA-Z0-9_]*", "[0-9]+", "[ \\t\\r\\n]+"]);
        let tables = ScannerTables::lower(&dfa).expect("small dfa lowers");
        for input in
            ["if", "iffy", "i", "x9_", "42", "  \t\n ", "", "+", "ifx 12", "_", "９", "héllo"]
        {
            assert_equivalent(&dfa, &tables, input);
        }
    }

    #[test]
    fn wide_class_binary_search() {
        let dfa = dfa_of(&["[α-ω]+", "[a-z]+"]);
        let tables = ScannerTables::lower(&dfa).unwrap();
        for input in ["αβγ", "abcαβ", "α", "ωz", "Ω"] {
            assert_equivalent(&dfa, &tables, input);
        }
        assert_eq!(tables.wide_class_of('Ω' as u32), tables.num_classes() - 1, "unmapped → dead");
    }

    #[test]
    fn class_count_ceiling() {
        // 255 single-char classes (+ dead) still lower; 256 refuse.
        let mut nfa = Nfa::new();
        for i in 0..255u32 {
            let c = char::from_u32(0x100 + i).unwrap();
            nfa.add_rule(i as usize, &Rx::Set(crate::CharSet::range(c, c)));
        }
        let dfa = ScannerDfa::from_nfa(&nfa);
        assert_eq!(dfa.classes.len(), 255);
        let tables = ScannerTables::lower(&dfa).expect("255 classes fit with the dead class");
        assert_eq!(tables.num_classes(), 256);
        assert_equivalent(&dfa, &tables, "\u{100}\u{1FE}");

        let mut nfa = Nfa::new();
        for i in 0..256u32 {
            let c = char::from_u32(0x100 + i).unwrap();
            nfa.add_rule(i as usize, &Rx::Set(crate::CharSet::range(c, c)));
        }
        let dfa = ScannerDfa::from_nfa(&nfa);
        assert_eq!(dfa.classes.len(), 256);
        assert!(ScannerTables::lower(&dfa).is_none(), "256 classes leave no room for the sentinel");
    }

    /// Random rule sets: the lowered tables must agree with the DFA on
    /// random inputs drawn from (and beyond) the rules' alphabet.
    #[test]
    fn prop_lowering_preserves_longest_match() {
        let mut rng = Rng64::seed_from_u64(0x7AB1E5);
        let pieces =
            ["[a-c]+", "'ab'", "[0-3]+ ('.' [0-3]+)?", "'.'", "[ \\t\\n]+", "'cc'", "[x-zα-γ]+"];
        for round in 0..64 {
            let n = rng.gen_range(1usize..=pieces.len());
            let mut nfa = Nfa::new();
            for i in 0..n {
                let p = pieces[rng.gen_range(0usize..pieces.len())];
                nfa.add_rule(i, &Rx::parse(p).unwrap());
            }
            let dfa = ScannerDfa::from_nfa(&nfa);
            let tables = ScannerTables::lower(&dfa).expect("small random dfa lowers");
            for _ in 0..32 {
                let input = rng.gen_string_from("abc0123. \t\nxyzαβγq", 24);
                assert_equivalent(&dfa, &tables, &input);
            }
            let _ = round;
        }
    }
}
