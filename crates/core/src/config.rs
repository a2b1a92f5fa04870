//! ATN configurations and interned call stacks (Section 5.2).
//!
//! A configuration is the tuple *(p, i, γ, π)*: ATN state, predicted
//! alternative, call stack, and optional predicate. Stacks are interned
//! cons lists so configurations hash and compare cheaply; equivalence
//! follows Definition 6 (equal, one empty, or one a suffix of the other).

use crate::atn::AtnStateId;
use crate::fxhash::FxHashMap;
use llstar_grammar::{PredId, SynPredId};

/// An interned call stack. `StackId::EMPTY` is the empty stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StackId(u32);

impl StackId {
    /// The empty stack (the analysis wildcard: "any caller").
    pub const EMPTY: StackId = StackId(0);

    /// Whether this is the empty stack.
    pub fn is_empty(self) -> bool {
        self == Self::EMPTY
    }
}

/// Arena interning cons-list stacks of ATN return states.
///
/// ```
/// use llstar_core::config::{StackArena, StackId};
/// let mut arena = StackArena::new();
/// let s1 = arena.push(StackId::EMPTY, 7);
/// let s2 = arena.push(s1, 9);
/// assert_eq!(arena.to_vec(s2), vec![9, 7]); // top first
/// assert_eq!(arena.pop(s2), Some((9, s1)));
/// assert!(arena.equivalent(s1, StackId::EMPTY)); // empty is a wildcard
/// assert!(arena.equivalent(s1, s2));             // s1 is a suffix of s2
/// ```
#[derive(Debug, Clone, Default)]
pub struct StackArena {
    /// `nodes[id-1] = (top, rest)`; id 0 is the empty stack.
    nodes: Vec<(AtnStateId, StackId)>,
    /// `depths[id-1]`: the depth of stack `id`.
    depths: Vec<u32>,
    intern: FxHashMap<(AtnStateId, StackId), StackId>,
}

impl StackArena {
    /// An arena containing only the empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes `state` on `stack`, returning the interned result.
    pub fn push(&mut self, stack: StackId, state: AtnStateId) -> StackId {
        if let Some(&id) = self.intern.get(&(state, stack)) {
            return id;
        }
        self.nodes.push((state, stack));
        self.depths.push(self.depth(stack) as u32 + 1);
        let id = StackId(self.nodes.len() as u32);
        self.intern.insert((state, stack), id);
        id
    }

    /// Pops the top, returning `(top, rest)`, or `None` on the empty stack.
    pub fn pop(&self, stack: StackId) -> Option<(AtnStateId, StackId)> {
        if stack.is_empty() {
            None
        } else {
            Some(self.nodes[stack.0 as usize - 1])
        }
    }

    /// The stack as a vector, top first.
    pub fn to_vec(&self, mut stack: StackId) -> Vec<AtnStateId> {
        let mut out = Vec::new();
        while let Some((top, rest)) = self.pop(stack) {
            out.push(top);
            stack = rest;
        }
        out
    }

    /// Number of occurrences of `state` in `stack` (the recursion-depth
    /// measure from Algorithm 9's closure).
    pub fn occurrences(&self, mut stack: StackId, state: AtnStateId) -> u32 {
        let mut n = 0;
        while let Some((top, rest)) = self.pop(stack) {
            if top == state {
                n += 1;
            }
            stack = rest;
        }
        n
    }

    /// Stack depth.
    pub fn depth(&self, stack: StackId) -> usize {
        if stack.is_empty() {
            0
        } else {
            self.depths[stack.0 as usize - 1] as usize
        }
    }

    /// Definition 6 equivalence: equal, at least one empty, or one a
    /// suffix of the other. Interning is canonical (equal stacks have
    /// equal ids) and a cons list's suffix of length *n* is what is left
    /// after popping down to depth *n*, so "one is a suffix of the other"
    /// is: pop the deeper stack to the shallower one's depth and compare
    /// ids. That costs the depth difference and allocates nothing.
    pub fn equivalent(&self, a: StackId, b: StackId) -> bool {
        if a == b || a.is_empty() || b.is_empty() {
            return true;
        }
        let (short, mut long) = if self.depth(a) <= self.depth(b) { (a, b) } else { (b, a) };
        for _ in self.depth(short)..self.depth(long) {
            long = self.nodes[long.0 as usize - 1].1;
        }
        long == short
    }
}

/// The predicate component of a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredSource {
    /// A semantic predicate `{π}?`.
    Sem(PredId),
    /// A syntactic predicate `(α)=>` (evaluated by speculative parse).
    Syn(SynPredId),
    /// A negated syntactic predicate `!(α)=>`: passes when the fragment
    /// does *not* match.
    NotSyn(SynPredId),
}

/// An ATN configuration *(p, i, γ, π)*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Config {
    /// ATN state *p*.
    pub state: AtnStateId,
    /// Predicted alternative *i* (1-based, as in the paper).
    pub alt: u16,
    /// Call stack *γ*.
    pub stack: StackId,
    /// Optional predicate *π* seen on the path to this configuration.
    pub pred: Option<PredSource>,
    /// Set once closure pops out of the decision's own context (the
    /// empty-stack FOLLOW wildcard). Predicates encountered beyond that
    /// point gate *other* decisions and must not be hoisted into this
    /// one.
    pub followed: bool,
}

impl Config {
    /// A configuration with an empty stack and no predicate.
    pub fn initial(state: AtnStateId, alt: u16) -> Config {
        Config { state, alt, stack: StackId::EMPTY, pred: None, followed: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llstar_rng::Rng64;

    #[test]
    fn push_pop_round_trip() {
        let mut a = StackArena::new();
        let s1 = a.push(StackId::EMPTY, 3);
        let s2 = a.push(s1, 5);
        assert_eq!(a.pop(s2), Some((5, s1)));
        assert_eq!(a.pop(s1), Some((3, StackId::EMPTY)));
        assert_eq!(a.pop(StackId::EMPTY), None);
        assert_eq!(a.depth(s2), 2);
    }

    #[test]
    fn interning_is_canonical() {
        let mut a = StackArena::new();
        let s1 = a.push(StackId::EMPTY, 3);
        let s1b = a.push(StackId::EMPTY, 3);
        assert_eq!(s1, s1b);
        let s2 = a.push(s1, 5);
        let s2b = a.push(s1b, 5);
        assert_eq!(s2, s2b);
    }

    #[test]
    fn occurrences_counts_duplicates() {
        let mut a = StackArena::new();
        let s = a.push(StackId::EMPTY, 9);
        let s = a.push(s, 2);
        let s = a.push(s, 9);
        assert_eq!(a.occurrences(s, 9), 2);
        assert_eq!(a.occurrences(s, 2), 1);
        assert_eq!(a.occurrences(s, 7), 0);
    }

    #[test]
    fn equivalence_definition6() {
        let mut a = StackArena::new();
        let p2 = a.push(StackId::EMPTY, 2);
        let p9p2 = a.push(p2, 9);
        let p5 = a.push(StackId::EMPTY, 5);
        // Equal stacks.
        assert!(a.equivalent(p2, p2));
        // Empty is equivalent to anything.
        assert!(a.equivalent(StackId::EMPTY, p9p2));
        assert!(a.equivalent(p9p2, StackId::EMPTY));
        // Suffix: [2] is a suffix of [9,2].
        assert!(a.equivalent(p2, p9p2));
        assert!(a.equivalent(p9p2, p2));
        // Not suffixes of each other.
        assert!(!a.equivalent(p2, p5));
        // [9,2] vs [9]: 9 is the *top*, not a suffix.
        let p9 = a.push(StackId::EMPTY, 9);
        assert!(!a.equivalent(p9, p9p2));
    }

    #[test]
    fn config_ordering_is_stable() {
        let c1 = Config::initial(1, 1);
        let c2 = Config::initial(1, 2);
        let c3 = Config::initial(2, 1);
        let mut v = vec![c3, c2, c1];
        v.sort();
        assert_eq!(v, vec![c1, c2, c3]);
    }

    fn random_vec(rng: &mut Rng64, bound: usize, min_len: usize, max_len: usize) -> Vec<usize> {
        let len = rng.gen_range(min_len..=max_len);
        (0..len).map(|_| rng.gen_range(0..bound)).collect()
    }

    #[test]
    fn prop_to_vec_matches_pushes() {
        let mut rng = Rng64::seed_from_u64(0xc0f1);
        for _ in 0..256 {
            let states = random_vec(&mut rng, 50, 0, 11);
            let mut a = StackArena::new();
            let mut id = StackId::EMPTY;
            for &s in &states {
                id = a.push(id, s);
            }
            let mut expect = states.clone();
            expect.reverse();
            assert_eq!(a.to_vec(id), expect);
        }
    }

    #[test]
    fn prop_equivalence_is_symmetric() {
        let mut rng = Rng64::seed_from_u64(0xc0f2);
        for _ in 0..256 {
            let xs = random_vec(&mut rng, 6, 0, 5);
            let ys = random_vec(&mut rng, 6, 0, 5);
            let mut a = StackArena::new();
            let mut sx = StackId::EMPTY;
            for &s in &xs {
                sx = a.push(sx, s);
            }
            let mut sy = StackId::EMPTY;
            for &s in &ys {
                sy = a.push(sy, s);
            }
            assert_eq!(a.equivalent(sx, sy), a.equivalent(sy, sx), "{xs:?} vs {ys:?}");
        }
    }

    /// The depth-indexed check agrees with Definition 6 spelled out on
    /// the stacks' contents, and `depth` with the vector's length.
    #[test]
    fn prop_equivalence_matches_vector_suffix_check() {
        let mut rng = Rng64::seed_from_u64(0xc0f4);
        let mut a = StackArena::new();
        let mut ids = vec![StackId::EMPTY];
        for _ in 0..256 {
            let base = ids[rng.gen_range(0..ids.len())];
            let pushed = a.push(base, rng.gen_range(0usize..4));
            ids.push(pushed);
        }
        for &x in &ids {
            assert_eq!(a.depth(x), a.to_vec(x).len());
            for &y in &ids {
                let (vx, vy) = (a.to_vec(x), a.to_vec(y));
                let expect = vx.ends_with(&vy) || vy.ends_with(&vx);
                assert_eq!(a.equivalent(x, y), expect, "{vx:?} vs {vy:?}");
            }
        }
    }

    #[test]
    fn prop_suffix_equivalence() {
        // Pushing more on top of a stack keeps it equivalent to the
        // original (the original is a suffix).
        let mut rng = Rng64::seed_from_u64(0xc0f3);
        for _ in 0..256 {
            let base = random_vec(&mut rng, 6, 0, 5);
            let ext = random_vec(&mut rng, 6, 1, 3);
            let mut a = StackArena::new();
            let mut s = StackId::EMPTY;
            for &x in &base {
                s = a.push(s, x);
            }
            let orig = s;
            for &x in &ext {
                s = a.push(s, x);
            }
            assert!(a.equivalent(orig, s), "{base:?} + {ext:?}");
        }
    }
}
