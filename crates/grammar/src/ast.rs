//! The predicated-grammar abstract syntax, following Section 3 of the
//! paper.
//!
//! A [`Grammar`] is the tuple *G = (N, T, P, S, Π, M)*: nonterminals
//! ([`Rule`]s), terminals (the [`TokenVocab`]), productions ([`Alt`]s),
//! a start symbol, side-effect-free semantic predicates, and actions
//! (mutators). We additionally keep syntactic predicates explicit (the
//! paper erases them to semantic predicates `synpred(α)` — Section 4.1 —
//! which the runtime does too).

use crate::vocab::TokenVocab;
use llstar_lexer::{LexerSpec, TokenType};
use std::collections::HashMap;
use std::fmt;

/// Identifies a parser rule (nonterminal) within its [`Grammar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub u32);

impl RuleId {
    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a semantic predicate (host-language boolean expression).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

/// Identifies an embedded action (mutator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId(pub u32);

/// Identifies a syntactic predicate: a grammar fragment that must match
/// the upcoming input for the gated production to be viable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SynPredId(pub u32);

/// EBNF suffix of a [`Block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ebnf {
    /// Plain subrule `( … )`: exactly once.
    None,
    /// `( … )?`: at most once.
    Optional,
    /// `( … )*`: zero or more times.
    Star,
    /// `( … )+`: one or more times.
    Plus,
}

impl Ebnf {
    /// The suffix characters as written in a grammar.
    pub fn suffix(self) -> &'static str {
        match self {
            Ebnf::None => "",
            Ebnf::Optional => "?",
            Ebnf::Star => "*",
            Ebnf::Plus => "+",
        }
    }
}

/// A parenthesized subrule with an EBNF suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The alternatives inside the parentheses.
    pub alts: Vec<Alt>,
    /// The EBNF operator applied to the block.
    pub ebnf: Ebnf,
}

/// One element on the right-hand side of a production.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Element {
    /// A terminal (token reference or literal, already resolved to a type).
    Token(TokenType),
    /// A nonterminal reference.
    Rule(RuleId),
    /// A nested subrule, possibly with an EBNF operator.
    Block(Block),
    /// A semantic predicate `{π}?` gating what follows.
    SemPred(PredId),
    /// A syntactic predicate `(α)=>` gating what follows.
    SynPred(SynPredId),
    /// A negated syntactic predicate `!(α)=>`: what follows is viable
    /// only if the fragment does *not* match (Ford's PEG not-predicate,
    /// Section 4.1).
    NotSynPred(SynPredId),
    /// An embedded action `{μ}`; `always` actions (`{{μ}}`) execute even
    /// during speculation.
    Action {
        /// Index into [`Grammar::actions`].
        id: ActionId,
        /// Whether the action runs during speculative parses.
        always: bool,
    },
}

impl Element {
    /// A non-always action element.
    pub fn action(id: ActionId) -> Element {
        Element::Action { id, always: false }
    }
}

/// One production (alternative) of a rule: a sequence of elements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Alt {
    /// The elements, in order; empty means ε.
    pub elements: Vec<Element>,
}

impl Alt {
    /// Creates an alternative from elements.
    pub fn new(elements: Vec<Element>) -> Self {
        Alt { elements }
    }

    /// The empty (ε) alternative.
    pub fn epsilon() -> Self {
        Alt::default()
    }
}

impl FromIterator<Element> for Alt {
    fn from_iter<I: IntoIterator<Item = Element>>(iter: I) -> Self {
        Alt { elements: iter.into_iter().collect() }
    }
}

/// A parser rule (nonterminal) with its ordered alternatives.
///
/// Alternative order encodes precedence: ambiguities resolve in favour of
/// the lowest-numbered production (Section 3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The rule name as written in the grammar.
    pub name: String,
    /// This rule's id (its index in [`Grammar::rules`]).
    pub id: RuleId,
    /// The ordered productions.
    pub alts: Vec<Alt>,
}

/// Grammar-level options (the `options { … }` section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrammarOptions {
    /// PEG mode: auto-insert a syntactic predicate on the left edge of
    /// every production of every decision (Section 2).
    pub backtrack: bool,
    /// Memoize speculative sub-parses (packrat caching; Section 6.2).
    pub memoize: bool,
    /// The recursion-depth bound `m` used by grammar analysis to avoid
    /// nontermination (Section 5.3). The paper's examples use `m = 1`.
    pub rec_depth_m: u32,
    /// Optional cap on lookahead DFA depth (a fixed-k mode used by the
    /// LL(k) blow-up experiment); `None` means unbounded (true LL(*)).
    pub max_k: Option<u32>,
}

impl Default for GrammarOptions {
    fn default() -> Self {
        GrammarOptions { backtrack: false, memoize: true, rec_depth_m: 1, max_k: None }
    }
}

/// A predicated grammar: rules, token vocabulary, predicates, actions, and
/// the lexer specification that produces its terminals.
#[derive(Debug, Clone)]
pub struct Grammar {
    /// The grammar name.
    pub name: String,
    /// Grammar-level options.
    pub options: GrammarOptions,
    /// Parser rules; `rules[i].id == RuleId(i)`. The start symbol is the
    /// first rule unless overridden by consumers.
    pub rules: Vec<Rule>,
    /// Terminal vocabulary.
    pub vocab: TokenVocab,
    /// Lexer rules compiled alongside the grammar.
    pub lexer: LexerSpec,
    /// Semantic predicate source texts, indexed by [`PredId`].
    pub sempreds: Vec<String>,
    /// Action source texts, indexed by [`ActionId`].
    pub actions: Vec<String>,
    /// Syntactic predicate fragments, indexed by [`SynPredId`]. Each is a
    /// production-like sequence that must match the upcoming input.
    pub synpreds: Vec<Alt>,
    /// The rule each syntactic predicate was written in (or inserted
    /// into, in PEG mode), indexed by [`SynPredId`]: its fragment's
    /// decisions and errors are attributed to this rule.
    pub synpred_rules: Vec<RuleId>,
    rule_map: HashMap<String, RuleId>,
}

impl Grammar {
    /// Creates an empty grammar with the given name and options.
    pub fn new(name: &str, options: GrammarOptions) -> Self {
        Grammar {
            name: name.to_string(),
            options,
            rules: Vec::new(),
            vocab: TokenVocab::new(),
            lexer: LexerSpec::new(),
            sempreds: Vec::new(),
            actions: Vec::new(),
            synpreds: Vec::new(),
            synpred_rules: Vec::new(),
            rule_map: HashMap::new(),
        }
    }

    /// Adds a rule shell (no alternatives yet) and returns its id.
    ///
    /// # Panics
    /// Panics if a rule with this name already exists.
    pub fn add_rule(&mut self, name: &str) -> RuleId {
        assert!(!self.rule_map.contains_key(name), "duplicate rule definition {name:?}");
        let id = RuleId(self.rules.len() as u32);
        self.rules.push(Rule { name: name.to_string(), id, alts: Vec::new() });
        self.rule_map.insert(name.to_string(), id);
        id
    }

    /// Appends an alternative to `rule`.
    pub fn add_alt(&mut self, rule: RuleId, alt: Alt) {
        self.rules[rule.index()].alts.push(alt);
    }

    /// Looks a rule up by name.
    pub fn rule_by_name(&self, name: &str) -> Option<&Rule> {
        self.rule_map.get(name).map(|id| &self.rules[id.index()])
    }

    /// Looks a rule id up by name.
    pub fn rule_id(&self, name: &str) -> Option<RuleId> {
        self.rule_map.get(name).copied()
    }

    /// The rule for `id`.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.index()]
    }

    /// The start rule (first rule of the grammar).
    ///
    /// # Panics
    /// Panics if the grammar has no rules.
    pub fn start_rule(&self) -> &Rule {
        self.rules.first().expect("grammar has no rules")
    }

    /// Registers a semantic predicate and returns its id.
    pub fn add_sempred(&mut self, text: &str) -> PredId {
        self.sempreds.push(text.to_string());
        PredId(self.sempreds.len() as u32 - 1)
    }

    /// Registers an action and returns its id.
    pub fn add_action(&mut self, text: &str) -> ActionId {
        self.actions.push(text.to_string());
        ActionId(self.actions.len() as u32 - 1)
    }

    /// Registers a syntactic-predicate fragment written in `rule` and
    /// returns its id.
    pub fn add_synpred(&mut self, fragment: Alt, rule: RuleId) -> SynPredId {
        self.synpreds.push(fragment);
        self.synpred_rules.push(rule);
        SynPredId(self.synpreds.len() as u32 - 1)
    }

    /// The source text of semantic predicate `id`.
    pub fn sempred_text(&self, id: PredId) -> &str {
        &self.sempreds[id.0 as usize]
    }

    /// The source text of action `id`.
    pub fn action_text(&self, id: ActionId) -> &str {
        &self.actions[id.0 as usize]
    }

    /// The fragment of syntactic predicate `id`.
    pub fn synpred(&self, id: SynPredId) -> &Alt {
        &self.synpreds[id.0 as usize]
    }

    /// Total number of grammar positions (a rough size metric used in the
    /// evaluation tables).
    pub fn element_count(&self) -> usize {
        fn count_alt(alt: &Alt) -> usize {
            alt.elements.iter().map(count_elem).sum::<usize>()
        }
        fn count_elem(e: &Element) -> usize {
            match e {
                Element::Block(b) => 1 + b.alts.iter().map(count_alt).sum::<usize>(),
                _ => 1,
            }
        }
        self.rules.iter().flat_map(|r| r.alts.iter()).map(count_alt).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Grammar {
        let mut g = Grammar::new("T", GrammarOptions::default());
        let a = g.vocab.define_token("A");
        let s = g.add_rule("s");
        let x = g.add_rule("x");
        g.add_alt(s, Alt::new(vec![Element::Rule(x), Element::Token(a)]));
        g.add_alt(x, Alt::epsilon());
        g
    }

    #[test]
    fn rule_registration_and_lookup() {
        let g = tiny();
        assert_eq!(g.rule_id("s"), Some(RuleId(0)));
        assert_eq!(g.rule_id("x"), Some(RuleId(1)));
        assert!(g.rule_id("nope").is_none());
        assert_eq!(g.start_rule().name, "s");
        assert_eq!(g.rule_by_name("x").unwrap().alts.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate rule")]
    fn duplicate_rule_panics() {
        let mut g = tiny();
        g.add_rule("s");
    }

    #[test]
    fn predicate_and_action_pools() {
        let mut g = tiny();
        let p = g.add_sempred("isTypeName");
        let a = g.add_action("println!(\"hi\")");
        assert_eq!(g.sempred_text(p), "isTypeName");
        assert_eq!(g.action_text(a), "println!(\"hi\")");
        let s = g.rule_id("s").unwrap();
        let sp = g.add_synpred(Alt::epsilon(), s);
        assert_eq!(g.synpred(sp), &Alt::epsilon());
        assert_eq!(g.synpred_rules[sp.0 as usize], s);
    }

    #[test]
    fn element_count_includes_blocks() {
        let mut g = tiny();
        let a = g.vocab.define_token("B");
        let r = g.add_rule("blocky");
        g.add_alt(
            r,
            Alt::new(vec![Element::Block(Block {
                alts: vec![Alt::new(vec![Element::Token(a)])],
                ebnf: Ebnf::Star,
            })]),
        );
        // s: rule+token (2); x: 0; blocky: block(1) + inner token(1).
        assert_eq!(g.element_count(), 4);
    }

    #[test]
    fn ebnf_suffixes() {
        assert_eq!(Ebnf::None.suffix(), "");
        assert_eq!(Ebnf::Optional.suffix(), "?");
        assert_eq!(Ebnf::Star.suffix(), "*");
        assert_eq!(Ebnf::Plus.suffix(), "+");
    }
}
