//! Scanner-DFA lowering to byte-indexed dispatch tables.
//!
//! This is the lexer-side twin of `llstar-core`'s decision-DFA lowering
//! (PR 5): the subset-construction [`ScannerDfa`] keeps its transitions as
//! per-state `(char class, target)` lists over [`CharSet`] classes, which
//! costs a linear class probe plus a linear transition scan per input
//! character. [`ScannerTables`] replaces both with array loads:
//!
//! 1. **Byte classes.** A 128-entry `u8` map sends each ASCII byte to its
//!    scanner class; non-ASCII codepoints binary-search a small sorted
//!    range list. A synthetic *dead class* (id = original class count)
//!    absorbs every unmapped byte, so the hot loop never branches on
//!    "no class" — the dead class simply has no transition anywhere.
//! 2. **Next table.** `next[state * num_classes + class]` as `u16`, either
//!    dense or row-displacement compressed. The dense/displaced policy
//!    *mirrors* `llstar_core::compiled` (same [`DENSE_CELL_BUDGET`], same
//!    quarter-saving threshold, same densest-first first-fit placement);
//!    the constants are duplicated here because `core` depends on this
//!    crate, not the other way around — keep the two in sync.
//!
//! Lowering is refused (returns `None`) when the automaton outgrows the
//! fixed-width encodings: more than [`MAX_CLASSES`] character classes
//! (the dead class must still fit in a `u8`), or `u16::MAX`-or-more states
//! or rules. Callers fall back to the [`ScannerDfa`] simulation, which is
//! always byte-identical.

use crate::dfa::ScannerDfa;

/// "No transition" sentinel in the next/check tables.
pub const NO_STATE: u16 = u16::MAX;
/// "Not an accept state" sentinel in the accept table.
pub const NO_RULE: u16 = u16::MAX;
/// Most character classes a lowerable scanner may have: class ids plus the
/// synthetic dead class must fit in a `u8`, so 255 real classes is the
/// ceiling and a 256-class automaton stays on the interpreted path.
pub const MAX_CLASSES: usize = 255;
/// Dense tables at most this many cells skip row displacement entirely
/// (mirrors `llstar_core::compiled::DENSE_CELL_BUDGET`).
pub const DENSE_CELL_BUDGET: usize = 4096;

/// The transition table representation, chosen by [`ScannerTables::lower`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanNext {
    /// `next[state * num_classes + class]`, [`NO_STATE`]-filled.
    Dense(Vec<u16>),
    /// Tarjan/Yao row displacement: row `s` lives at `base[s]`, slot
    /// ownership validated through `check`.
    RowDisplaced {
        /// Per-state row offset into `check`/`next`.
        base: Vec<u32>,
        /// Owning state per slot ([`NO_STATE`] = free).
        check: Vec<u16>,
        /// Transition target per slot.
        next: Vec<u16>,
    },
}

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
    table: ScanNext,
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
        let table = Self::choose_table(dfa, n, nc);
        let accept: Vec<u16> =
            dfa.states.iter().map(|s| s.accept.map_or(NO_RULE, |r| r as u16)).collect();

        Some(ScannerTables { num_states: n, num_classes: nc, ascii_class, wide, table, accept })
    }

    /// Dense within budget, else row displacement when it saves ≥ ¼ of the
    /// cells — the `core::compiled` policy verbatim.
    fn choose_table(dfa: &ScannerDfa, n: usize, nc: usize) -> ScanNext {
        let dense = Self::lower_dense(dfa, n, nc);
        let dense_cells = match &dense {
            ScanNext::Dense(v) => v.len(),
            ScanNext::RowDisplaced { .. } => unreachable!("lower_dense is dense"),
        };
        if dense_cells <= DENSE_CELL_BUDGET {
            return dense;
        }
        let displaced = Self::lower_row_displaced(dfa, n, nc);
        let displaced_cells = match &displaced {
            ScanNext::Dense(_) => unreachable!("lower_row_displaced is displaced"),
            ScanNext::RowDisplaced { base, check, next } => base.len() + check.len() + next.len(),
        };
        if displaced_cells * 4 <= dense_cells * 3 {
            displaced
        } else {
            dense
        }
    }

    fn lower_dense(dfa: &ScannerDfa, n: usize, nc: usize) -> ScanNext {
        let mut next = vec![NO_STATE; n * nc];
        for (s, st) in dfa.states.iter().enumerate() {
            for &(class, target) in &st.transitions {
                next[s * nc + class] = target as u16;
            }
        }
        ScanNext::Dense(next)
    }

    /// First-fit placement, densest rows first, ties by state id; empty
    /// rows share offset 0 (`check` never names them, so probes miss).
    fn lower_row_displaced(dfa: &ScannerDfa, n: usize, nc: usize) -> ScanNext {
        let rows: Vec<&[(usize, usize)]> =
            dfa.states.iter().map(|st| st.transitions.as_slice()).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| rows[b].len().cmp(&rows[a].len()).then(a.cmp(&b)));
        let mut base = vec![0u32; n];
        let mut check: Vec<u16> = Vec::new();
        let mut next: Vec<u16> = Vec::new();
        for &s in &order {
            if rows[s].is_empty() {
                base[s] = 0;
                continue;
            }
            let mut offset = 0usize;
            'probe: loop {
                for &(c, _) in rows[s] {
                    if let Some(&owner) = check.get(offset + c) {
                        if owner != NO_STATE {
                            offset += 1;
                            continue 'probe;
                        }
                    }
                }
                break;
            }
            let top = offset + rows[s].last().expect("non-empty row").0 + 1;
            if check.len() < top {
                check.resize(top, NO_STATE);
                next.resize(top, NO_STATE);
            }
            for &(c, target) in rows[s] {
                check[offset + c] = s as u16;
                next[offset + c] = target as u16;
            }
            base[s] = offset as u32;
        }
        // Pad so `base[s] + class` is always in bounds.
        let reach = base.iter().map(|&b| b as usize + nc).max().unwrap_or(nc);
        check.resize(reach, NO_STATE);
        next.resize(reach, NO_STATE);
        ScanNext::RowDisplaced { base, check, next }
    }

    /// The transition target from `state` on `class`, or [`NO_STATE`].
    #[inline]
    pub fn next(&self, state: usize, class: usize) -> u16 {
        match &self.table {
            ScanNext::Dense(next) => next[state * self.num_classes + class],
            ScanNext::RowDisplaced { base, check, next } => {
                let slot = base[state] as usize + class;
                if check[slot] == state as u16 {
                    next[slot]
                } else {
                    NO_STATE
                }
            }
        }
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

    /// The transition table representation.
    pub fn next_table(&self) -> &ScanNext {
        &self.table
    }

    /// Accepted rule per state ([`NO_RULE`] = none).
    pub fn accept_table(&self) -> &[u16] {
        &self.accept
    }

    /// Total table cells, for size accounting and the dense/displaced tests.
    pub fn table_cells(&self) -> usize {
        match &self.table {
            ScanNext::Dense(next) => next.len(),
            ScanNext::RowDisplaced { base, check, next } => base.len() + check.len() + next.len(),
        }
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

    #[test]
    fn dense_within_budget_stays_dense() {
        let dfa = dfa_of(&["[a-z]+", "[0-9]+"]);
        let tables = ScannerTables::lower(&dfa).unwrap();
        assert!(tables.table_cells() <= DENSE_CELL_BUDGET);
        assert!(matches!(tables.next_table(), ScanNext::Dense(_)));
    }

    #[test]
    fn sparse_over_budget_takes_displacement() {
        // Many keyword literals over a broad alphabet: long spine of
        // single-transition states → dense blows the budget, displacement
        // packs the sparse rows.
        let words: Vec<String> = (0..40)
            .map(|i| format!("'{}k{}w{}'", (b'a' + (i % 26)) as char, i, (b'a' + (i % 7)) as char))
            .collect();
        let patterns: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let dfa = dfa_of(&patterns);
        let tables = ScannerTables::lower(&dfa).unwrap();
        let dense_cells = dfa.states.len() * (dfa.classes.len() + 1);
        assert!(dense_cells > DENSE_CELL_BUDGET, "test premise: dense over budget");
        assert!(
            matches!(tables.next_table(), ScanNext::RowDisplaced { .. }),
            "sparse keyword automaton should displace ({} dense cells, {} used)",
            dense_cells,
            tables.table_cells()
        );
        assert_equivalent(&dfa, &tables, "ak0wa bk1wb junk");
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
