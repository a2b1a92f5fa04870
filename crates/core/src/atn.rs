//! Augmented transition networks (Section 5.1).
//!
//! The grammar is converted to an ATN *M_G = (Q, Σ, Δ, E, F)* per Figure 7:
//! one submachine per nonterminal with entry state `p_A` and stop state
//! `p'_A`, ε edges to per-production left-edge states, terminal edges,
//! nonterminal ("call") edges that record a follow state, predicate edges,
//! and action edges. EBNF subrules become nested decision states; loops
//! become cycles, exactly as ANTLR's analysis expects.

use llstar_grammar::{ActionId, Alt, Block, Ebnf, Element, Grammar, PredId, RuleId, SynPredId};
use llstar_lexer::TokenType;
use std::fmt;

/// Index of an ATN state within [`Atn::states`].
pub type AtnStateId = usize;

/// Index of a parsing decision within [`Atn::decisions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DecisionId(pub u32);

impl DecisionId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DecisionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// An edge label in the ATN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtnEdge {
    /// ε transition.
    Epsilon,
    /// Terminal transition.
    Token(TokenType),
    /// Nonterminal invocation: control enters `rule`'s submachine and
    /// resumes at `follow` when its stop state is reached.
    Rule {
        /// The invoked rule.
        rule: RuleId,
        /// The state pushed on the call stack.
        follow: AtnStateId,
    },
    /// Semantic predicate gate.
    Pred(PredId),
    /// Syntactic predicate gate (erased to a speculation-launching
    /// semantic predicate at parse time, Section 4.1).
    SynPred(SynPredId),
    /// Negated syntactic predicate gate (Ford's PEG not-predicate):
    /// passable only when the fragment does *not* match.
    NotSynPred(SynPredId),
    /// Embedded action (mutator); `always` actions run during speculation.
    Action(ActionId, bool),
}

/// What role an ATN state plays (for rendering and decision bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// Ordinary state.
    Basic,
    /// Submachine entry `p_A`.
    RuleEntry,
    /// Submachine stop `p'_A`.
    RuleStop,
    /// A decision state: its outgoing ε edges are the numbered
    /// alternatives of decision `DecisionId`.
    Decision(DecisionId),
}

/// One ATN state.
#[derive(Debug, Clone)]
pub struct AtnState {
    /// Outgoing edges. For decision states, edge order is alternative
    /// order (alternative *i* is edge *i−1*).
    pub edges: Vec<(AtnEdge, AtnStateId)>,
    /// The rule whose submachine owns this state.
    pub rule: RuleId,
    /// The state's role.
    pub kind: StateKind,
}

/// What the parse-time interpreter does at a state once the ε moves
/// leading to it are taken: the ATN lowered to a flat, `Copy` op table
/// ([`Atn::ops`]). Successor states are ATN edge targets, stored as
/// `u32` so that an [`OpEntry`] takes 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtnOp {
    /// A rule or fragment stop state: the submachine returns. States
    /// with no outgoing edge (the sinks of the synthetic continuations)
    /// lower to this too.
    Stop,
    /// A decision state: predict alternative *i*, then continue at
    /// `alt_starts[k + i - 1]`, where `k` is the second field (see
    /// [`Atn::alt_starts`]).
    Decide(DecisionId, u32),
    /// Match a token, then continue at the successor.
    Match(TokenType, u32),
    /// Invoke a rule, then continue at its follow state.
    Call(RuleId, u32),
    /// Gate on a semantic predicate.
    Pred(PredId, u32),
    /// Gate on a syntactic predicate (`true`: a negated one).
    SynPred(SynPredId, bool, u32),
    /// Run an action (`true`: also while speculating).
    Action(ActionId, bool, u32),
}

/// One op-table entry: a run of `eps` ε moves from the indexing state,
/// then the op of the state the run ends at. A state that is not itself
/// an ε move has `eps == 0`. Every ATN cycle passes a decision state,
/// so runs are finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpEntry {
    /// ε moves collapsed into this entry.
    pub eps: u32,
    /// What happens at the end of the run.
    pub op: AtnOp,
}

/// What grammar construct a decision belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Choice among a rule's productions.
    RuleAlts,
    /// Choice among a plain `( … )` block's alternatives.
    Block,
    /// `( … )?` — last alternative is "skip".
    Optional,
    /// `( … )*` loop entry — last alternative is "exit".
    Star,
    /// `( … )+` loop-back — last alternative is "exit".
    PlusLoop,
    /// Choice among a syntactic-predicate fragment's productions (these
    /// exist so speculative parses can be interpreted; they are not
    /// counted in grammar statistics).
    SynPredAlts,
}

/// Metadata for one parsing decision.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The decision number.
    pub id: DecisionId,
    /// The decision state in the ATN.
    pub state: AtnStateId,
    /// The rule containing the decision.
    pub rule: RuleId,
    /// The construct kind.
    pub kind: DecisionKind,
    /// `true` for decisions living inside syntactic-predicate fragments
    /// (duplicates of real grammar decisions, used only by speculation).
    pub synthetic: bool,
}

impl Decision {
    /// Whether this decision counts toward grammar statistics (synthetic
    /// synpred-fragment decisions do not).
    pub fn is_grammar_decision(&self) -> bool {
        !self.synthetic && !matches!(self.kind, DecisionKind::SynPredAlts)
    }
}

/// The augmented transition network for a grammar.
#[derive(Debug, Clone)]
pub struct Atn {
    /// All states.
    pub states: Vec<AtnState>,
    /// Entry state `p_A` per rule.
    pub rule_entry: Vec<AtnStateId>,
    /// Stop state `p'_A` per rule.
    pub rule_stop: Vec<AtnStateId>,
    /// All decisions, in creation order.
    pub decisions: Vec<Decision>,
    /// For each rule *A*, the follow states of every `Rule` edge that
    /// invokes *A* (used by closure when the stack is empty).
    pub rule_followers: Vec<Vec<AtnStateId>>,
    /// Entry state per syntactic-predicate fragment (the fragment behaves
    /// like an anonymous rule; the runtime speculates from here).
    pub synpred_entry: Vec<AtnStateId>,
    /// Stop state per syntactic-predicate fragment.
    pub synpred_stop: Vec<AtnStateId>,
    /// A synthetic state with a single `Token(EOF)` edge, used as the
    /// continuation of rules that no other rule invokes (the start rule's
    /// follow is end-of-file).
    pub eof_follow: AtnStateId,
    /// A synthetic state with an edge on *every* token type, used as the
    /// continuation of syntactic-predicate fragments: once a fragment has
    /// matched, anything at all may follow, so exit branches of decisions
    /// inside fragments must stay viable on any next token.
    pub any_follow: AtnStateId,
    /// `(from, to)` per `Token` edge created while building rule bodies
    /// and syntactic-predicate fragments, in creation order. Creation
    /// order equals grammar-AST traversal order — the same invariant the
    /// code generator's decision cursor relies on — so codegen can walk
    /// this list to attach per-match-site recovery sets.
    pub token_sites: Vec<(AtnStateId, AtnStateId)>,
    /// The follow state per `Rule` edge created while building rule
    /// bodies and fragments, in creation order (mirrors `token_sites`;
    /// codegen uses it to push the caller's continuation onto the
    /// runtime resynchronization stack).
    pub call_sites: Vec<AtnStateId>,
    /// Per state: whether it is the left-edge state of an alternative of
    /// a multi-alternative rule or block whose first element is a
    /// syntactic predicate (`(α)=>`, as PEG mode inserts, or `!(α)=>`).
    /// Such a predicate is a prediction-time construct: the decision's
    /// lookahead DFA evaluates it, or the analysis proved it need not.
    /// The `SynPred`/`NotSynPred` edge stays so the analysis can hoist
    /// it; the parse passes over it ([`Atn::alt_start`]).
    pub prediction_gate: Vec<bool>,
    /// The op table, indexed by state ([`OpEntry`]): with `alt_starts`,
    /// all the parse-time interpreter reads of the network.
    pub ops: Vec<OpEntry>,
    /// [`Atn::alt_start`] of every alternative of every decision, the
    /// decisions' runs in decision order.
    pub alt_starts: Vec<u32>,
    /// Per rule: the fewest children any parse of the rule produces,
    /// the 0-1 shortest path over `Token` and `Rule` edges from its
    /// entry to its stop. Tree builders size a rule node's children to
    /// it.
    pub min_children: Vec<u32>,
}

impl Atn {
    /// Builds the ATN for `grammar` (Figure 7).
    pub fn from_grammar(grammar: &Grammar) -> Atn {
        Builder::new(grammar).build()
    }

    /// The decision whose decision state is `state`, if any.
    pub fn decision_at(&self, state: AtnStateId) -> Option<&Decision> {
        match self.states[state].kind {
            StateKind::Decision(id) => Some(&self.decisions[id.index()]),
            _ => None,
        }
    }

    /// Whether `state` is some rule's stop state.
    pub fn is_stop_state(&self, state: AtnStateId) -> bool {
        self.states[state].kind == StateKind::RuleStop
    }

    /// Whether `state` is the stop state of a syntactic-predicate
    /// fragment (whose continuation is the any-token wildcard).
    pub fn is_fragment_stop(&self, state: AtnStateId) -> bool {
        self.synpred_stop.binary_search(&state).is_ok()
    }

    /// The state where the parse of alternative `alt` (1-based) of the
    /// decision at `state` begins: the alternative's left-edge state, or
    /// the state past its left-edge syntactic predicate when prediction
    /// owns that predicate (see [`Atn::prediction_gate`]).
    pub fn alt_start(&self, state: AtnStateId, alt: u16) -> AtnStateId {
        let left = self.states[state].edges[alt as usize - 1].1;
        if self.prediction_gate[left] {
            self.states[left].edges[0].1
        } else {
            left
        }
    }

    /// Builds the op table and the alternative starts it points into.
    fn lower(&mut self) {
        let mut alt_base = Vec::with_capacity(self.decisions.len());
        let mut alt_starts = Vec::new();
        for d in &self.decisions {
            alt_base.push(u32::try_from(alt_starts.len()).expect("alternatives fit u32"));
            for alt in 1..=self.states[d.state].edges.len() {
                let start =
                    self.alt_start(d.state, u16::try_from(alt).expect("alternatives fit u16"));
                alt_starts.push(state_u32(start));
            }
        }
        self.ops = lower_ops(&self.states, &alt_base);
        self.alt_starts = alt_starts;
    }

    /// Number of alternatives of decision `id`.
    pub fn alt_count(&self, id: DecisionId) -> usize {
        self.states[self.decisions[id.index()].state].edges.len()
    }

    /// Renders the ATN in Graphviz dot format (for debugging and the
    /// Figure 6 test).
    pub fn to_dot(&self, grammar: &Grammar) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph atn {\n  rankdir=LR;\n");
        for (i, st) in self.states.iter().enumerate() {
            let shape = match st.kind {
                StateKind::RuleStop => "doublecircle",
                StateKind::Decision(_) => "diamond",
                _ => "circle",
            };
            let _ = writeln!(
                out,
                "  p{i} [shape={shape},label=\"p{i}\\n{}\"];",
                grammar.rule(st.rule).name
            );
            for (edge, target) in &st.edges {
                let label = match edge {
                    AtnEdge::Epsilon => "ε".to_string(),
                    AtnEdge::Token(t) => grammar.vocab.display_name(*t),
                    AtnEdge::Rule { rule, .. } => grammar.rule(*rule).name.clone(),
                    AtnEdge::Pred(p) => format!("{{{}}}?", grammar.sempred_text(*p)),
                    AtnEdge::SynPred(sp) => format!("synpred{}=>", sp.0),
                    AtnEdge::NotSynPred(sp) => format!("!synpred{}=>", sp.0),
                    AtnEdge::Action(..) => "{…}".to_string(),
                };
                let _ = writeln!(out, "  p{i} -> p{target} [label=\"{label}\"];");
            }
        }
        out.push_str("}\n");
        out
    }
}

struct Builder<'g> {
    grammar: &'g Grammar,
    states: Vec<AtnState>,
    decisions: Vec<Decision>,
    rule_entry: Vec<AtnStateId>,
    rule_stop: Vec<AtnStateId>,
    synpred_entry: Vec<AtnStateId>,
    synpred_stop: Vec<AtnStateId>,
    token_sites: Vec<(AtnStateId, AtnStateId)>,
    call_sites: Vec<AtnStateId>,
    prediction_gates: Vec<AtnStateId>,
    current_rule: RuleId,
    in_fragment: bool,
}

impl<'g> Builder<'g> {
    fn new(grammar: &'g Grammar) -> Self {
        Builder {
            grammar,
            states: Vec::new(),
            decisions: Vec::new(),
            rule_entry: Vec::new(),
            rule_stop: Vec::new(),
            synpred_entry: Vec::new(),
            synpred_stop: Vec::new(),
            token_sites: Vec::new(),
            call_sites: Vec::new(),
            prediction_gates: Vec::new(),
            current_rule: RuleId(0),
            in_fragment: false,
        }
    }

    fn add_state(&mut self, kind: StateKind) -> AtnStateId {
        self.states.push(AtnState { edges: Vec::new(), rule: self.current_rule, kind });
        self.states.len() - 1
    }

    fn add_edge(&mut self, from: AtnStateId, edge: AtnEdge, to: AtnStateId) {
        self.states[from].edges.push((edge, to));
    }

    fn new_decision(&mut self, state: AtnStateId, kind: DecisionKind) {
        let id = DecisionId(self.decisions.len() as u32);
        self.states[state].kind = StateKind::Decision(id);
        self.decisions.push(Decision {
            id,
            state,
            rule: self.current_rule,
            kind,
            synthetic: self.in_fragment,
        });
    }

    fn build(mut self) -> Atn {
        // Reserve entry/stop pairs for every rule first so Rule edges can
        // target them during body construction.
        for rule in &self.grammar.rules {
            self.current_rule = rule.id;
            let entry = self.add_state(StateKind::RuleEntry);
            let stop = self.add_state(StateKind::RuleStop);
            self.rule_entry.push(entry);
            self.rule_stop.push(stop);
        }
        for rule in &self.grammar.rules {
            self.current_rule = rule.id;
            let entry = self.rule_entry[rule.id.index()];
            let stop = self.rule_stop[rule.id.index()];
            self.build_alternatives(entry, stop, &rule.alts, DecisionKind::RuleAlts);
        }
        // Syntactic-predicate fragments become anonymous submachines so
        // both the analysis (if it ever chases them) and the speculative
        // runtime can execute them. Each is attributed to the rule the
        // predicate was written in, so an error inside a fragment names
        // that rule.
        self.in_fragment = true;
        for i in 0..self.grammar.synpreds.len() {
            self.current_rule = self.grammar.synpred_rules[i];
            let frag: &Alt = &self.grammar.synpreds[i];
            let entry = self.add_state(StateKind::RuleEntry);
            let stop = self.add_state(StateKind::RuleStop);
            let alts = vec![frag.clone()];
            self.build_alternatives(entry, stop, &alts, DecisionKind::SynPredAlts);
            self.synpred_entry.push(entry);
            self.synpred_stop.push(stop);
        }
        self.in_fragment = false;
        // Synthetic EOF continuation for otherwise-unreferenced rules.
        let eof_follow = self.add_state(StateKind::Basic);
        let eof_sink = self.add_state(StateKind::Basic);
        self.add_edge(eof_follow, AtnEdge::Token(TokenType::EOF), eof_sink);
        // Wildcard continuation for syntactic-predicate fragments.
        let any_follow = self.add_state(StateKind::Basic);
        let any_sink = self.add_state(StateKind::Basic);
        self.add_edge(any_follow, AtnEdge::Token(TokenType::EOF), any_sink);
        for t in self.grammar.vocab.token_types() {
            self.add_edge(any_follow, AtnEdge::Token(t), any_sink);
        }

        // Collect Rule-edge followers per rule.
        let mut rule_followers: Vec<Vec<AtnStateId>> = vec![Vec::new(); self.grammar.rules.len()];
        for st in &self.states {
            for (edge, _) in &st.edges {
                if let AtnEdge::Rule { rule, follow } = edge {
                    rule_followers[rule.index()].push(*follow);
                }
            }
        }
        for followers in rule_followers.iter_mut() {
            // Any rule may serve as a parse entry point, so end-of-file
            // is always a possible continuation in addition to the real
            // call sites.
            followers.push(eof_follow);
            followers.sort_unstable();
            followers.dedup();
        }

        let mut prediction_gate = vec![false; self.states.len()];
        for &s in &self.prediction_gates {
            prediction_gate[s] = true;
        }
        let min_children = min_children(&self.states, &self.rule_entry, &self.rule_stop);
        let mut atn = Atn {
            states: self.states,
            rule_entry: self.rule_entry,
            rule_stop: self.rule_stop,
            decisions: self.decisions,
            rule_followers,
            synpred_entry: self.synpred_entry,
            synpred_stop: self.synpred_stop,
            eof_follow,
            any_follow,
            token_sites: self.token_sites,
            call_sites: self.call_sites,
            prediction_gate,
            ops: Vec::new(),
            alt_starts: Vec::new(),
            min_children,
        };
        atn.lower();
        atn
    }

    /// Wires `entry` through each alternative to `stop`. Multi-alternative
    /// sets make `entry` a decision state of the given kind.
    fn build_alternatives(
        &mut self,
        entry: AtnStateId,
        stop: AtnStateId,
        alts: &[Alt],
        kind: DecisionKind,
    ) {
        let multi = alts.len() > 1;
        if multi {
            self.new_decision(entry, kind);
        }
        for alt in alts {
            let end = self.build_alt(entry, alt, multi);
            self.add_edge(end, AtnEdge::Epsilon, stop);
        }
    }

    /// Adds an alternative of the choice at `decision`: an ε edge to a
    /// fresh left-edge state, then the alternative's elements. Returns
    /// the alternative's final state. In a multi-alternative set a
    /// left-edge syntactic predicate is recorded as a prediction gate.
    fn build_alt(&mut self, decision: AtnStateId, alt: &Alt, multi: bool) -> AtnStateId {
        let left = self.add_state(StateKind::Basic);
        self.add_edge(decision, AtnEdge::Epsilon, left);
        if multi
            && matches!(alt.elements.first(), Some(Element::SynPred(_) | Element::NotSynPred(_)))
        {
            self.prediction_gates.push(left);
        }
        self.build_sequence(left, &alt.elements)
    }

    /// Builds the chain of states for `elements` starting at `start`;
    /// returns the final state of the chain.
    fn build_sequence(&mut self, start: AtnStateId, elements: &[Element]) -> AtnStateId {
        let mut current = start;
        for elem in elements {
            current = self.build_element(current, elem);
        }
        current
    }

    fn build_element(&mut self, from: AtnStateId, elem: &Element) -> AtnStateId {
        match elem {
            Element::Token(t) => {
                let next = self.add_state(StateKind::Basic);
                self.add_edge(from, AtnEdge::Token(*t), next);
                self.token_sites.push((from, next));
                next
            }
            Element::Rule(r) => {
                let next = self.add_state(StateKind::Basic);
                let entry = self.rule_entry[r.index()];
                self.add_edge(from, AtnEdge::Rule { rule: *r, follow: next }, entry);
                self.call_sites.push(next);
                next
            }
            Element::SemPred(p) => {
                let next = self.add_state(StateKind::Basic);
                self.add_edge(from, AtnEdge::Pred(*p), next);
                next
            }
            Element::SynPred(sp) => {
                let next = self.add_state(StateKind::Basic);
                self.add_edge(from, AtnEdge::SynPred(*sp), next);
                next
            }
            Element::NotSynPred(sp) => {
                let next = self.add_state(StateKind::Basic);
                self.add_edge(from, AtnEdge::NotSynPred(*sp), next);
                next
            }
            Element::Action { id, always } => {
                let next = self.add_state(StateKind::Basic);
                self.add_edge(from, AtnEdge::Action(*id, *always), next);
                next
            }
            Element::Block(block) => self.build_block(from, block),
        }
    }

    fn build_block(&mut self, from: AtnStateId, block: &Block) -> AtnStateId {
        match block.ebnf {
            Ebnf::None => {
                let end = self.add_state(StateKind::Basic);
                if block.alts.len() > 1 {
                    // `from` may already carry edges (mid-sequence), so
                    // introduce a fresh decision state.
                    let decision = self.add_state(StateKind::Basic);
                    self.add_edge(from, AtnEdge::Epsilon, decision);
                    self.new_decision(decision, DecisionKind::Block);
                    for alt in &block.alts {
                        let alt_end = self.build_alt(decision, alt, true);
                        self.add_edge(alt_end, AtnEdge::Epsilon, end);
                    }
                } else {
                    let alt = block.alts.first().expect("blocks have at least one alt");
                    let alt_end = self.build_sequence(from, &alt.elements);
                    self.add_edge(alt_end, AtnEdge::Epsilon, end);
                }
                end
            }
            Ebnf::Optional => {
                // Decision alternatives: each body alternative, then
                // "skip" (greedy: body preferred).
                let decision = self.add_state(StateKind::Basic);
                self.add_edge(from, AtnEdge::Epsilon, decision);
                self.new_decision(decision, DecisionKind::Optional);
                let end = self.add_state(StateKind::Basic);
                let multi = block.alts.len() > 1;
                for alt in &block.alts {
                    let alt_end = self.build_alt(decision, alt, multi);
                    self.add_edge(alt_end, AtnEdge::Epsilon, end);
                }
                self.add_edge(decision, AtnEdge::Epsilon, end);
                end
            }
            Ebnf::Star => {
                // Loop-entry decision: body alternatives re-enter the
                // decision; final alternative exits.
                let decision = self.add_state(StateKind::Basic);
                self.add_edge(from, AtnEdge::Epsilon, decision);
                self.new_decision(decision, DecisionKind::Star);
                let end = self.add_state(StateKind::Basic);
                let multi = block.alts.len() > 1;
                for alt in &block.alts {
                    let alt_end = self.build_alt(decision, alt, multi);
                    self.add_edge(alt_end, AtnEdge::Epsilon, decision);
                }
                self.add_edge(decision, AtnEdge::Epsilon, end);
                end
            }
            Ebnf::Plus => {
                // First iteration is unconditional; the loop-back state is
                // the decision (alternatives: repeat…, exit).
                let body_entry = self.add_state(StateKind::Basic);
                self.add_edge(from, AtnEdge::Epsilon, body_entry);
                let loopback = self.add_state(StateKind::Basic);
                let end = self.add_state(StateKind::Basic);
                // Entry block: if multiple alternatives, the first
                // iteration needs its own decision.
                let multi = block.alts.len() > 1;
                if multi {
                    self.new_decision(body_entry, DecisionKind::Block);
                }
                for alt in &block.alts {
                    let alt_end = self.build_alt(body_entry, alt, multi);
                    self.add_edge(alt_end, AtnEdge::Epsilon, loopback);
                }
                self.new_decision(loopback, DecisionKind::PlusLoop);
                // Loop-back alternatives: re-run the body, or exit.
                self.add_edge(loopback, AtnEdge::Epsilon, body_entry);
                self.add_edge(loopback, AtnEdge::Epsilon, end);
                end
            }
        }
    }
}

/// The op of `state` alone, or `None` for an ε move (a non-decision
/// state whose edge is ε).
fn own_op(state: &AtnState, alt_base: &[u32]) -> Option<AtnOp> {
    match state.kind {
        StateKind::RuleStop => return Some(AtnOp::Stop),
        StateKind::Decision(d) => return Some(AtnOp::Decide(d, alt_base[d.index()])),
        StateKind::Basic | StateKind::RuleEntry => {}
    }
    let Some((edge, target)) = state.edges.first() else {
        return Some(AtnOp::Stop);
    };
    let next = state_u32(*target);
    Some(match *edge {
        AtnEdge::Epsilon => return None,
        AtnEdge::Token(t) => AtnOp::Match(t, next),
        AtnEdge::Rule { rule, follow } => AtnOp::Call(rule, state_u32(follow)),
        AtnEdge::Pred(p) => AtnOp::Pred(p, next),
        AtnEdge::SynPred(sp) => AtnOp::SynPred(sp, false, next),
        AtnEdge::NotSynPred(sp) => AtnOp::SynPred(sp, true, next),
        AtnEdge::Action(a, always) => AtnOp::Action(a, always, next),
    })
}

fn state_u32(index: usize) -> u32 {
    u32::try_from(index).expect("ATN state ids fit in u32")
}

/// Lowers every state to its [`OpEntry`], collapsing ε runs. Each run
/// is resolved once: an entry reuses the entry of the state it moves to.
fn lower_ops(states: &[AtnState], alt_base: &[u32]) -> Vec<OpEntry> {
    let mut ops: Vec<Option<OpEntry>> = vec![None; states.len()];
    let mut run = Vec::new();
    for s in 0..states.len() {
        let mut cur = s;
        let end = loop {
            if let Some(entry) = ops[cur] {
                break entry;
            }
            match own_op(&states[cur], alt_base) {
                Some(op) => break OpEntry { eps: 0, op },
                None => {
                    run.push(cur);
                    cur = states[cur].edges[0].1;
                }
            }
        };
        ops[cur] = Some(end);
        for (i, &state) in run.iter().rev().enumerate() {
            ops[state] = Some(OpEntry { eps: end.eps + i as u32 + 1, op: end.op });
        }
        run.clear();
    }
    ops.into_iter().map(|entry| entry.expect("every state lowered")).collect()
}

/// Per rule, the fewest `Token` and `Rule` edges on any path from its
/// entry to its stop (0-1 breadth-first search; a `Rule` edge steps to
/// its follow state). Submachines share no states, so one distance
/// array serves every rule.
fn min_children(
    states: &[AtnState],
    rule_entry: &[AtnStateId],
    rule_stop: &[AtnStateId],
) -> Vec<u32> {
    let mut dist = vec![u32::MAX; states.len()];
    let mut queue = std::collections::VecDeque::new();
    for &entry in rule_entry {
        dist[entry] = 0;
        queue.push_back(entry);
        while let Some(s) = queue.pop_front() {
            for (edge, target) in &states[s].edges {
                let (next, weight) = match *edge {
                    AtnEdge::Token(_) => (*target, 1),
                    AtnEdge::Rule { follow, .. } => (follow, 1),
                    _ => (*target, 0),
                };
                let d = dist[s] + weight;
                if d < dist[next] {
                    dist[next] = d;
                    if weight == 0 {
                        queue.push_front(next);
                    } else {
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    rule_stop.iter().map(|&stop| if dist[stop] == u32::MAX { 0 } else { dist[stop] }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llstar_grammar::parse_grammar;

    /// Figure 6: ATN for S → Ac | Ad, A → aA | b.
    #[test]
    fn figure6_structure() {
        let g =
            parse_grammar("grammar F6; s : a C | a D ; a : A a | B ; A:'a'; B:'b'; C:'c'; D:'d';")
                .unwrap();
        let atn = Atn::from_grammar(&g);
        // Two decisions: s (2 alts) and a (2 alts).
        let grammar_decisions: Vec<_> =
            atn.decisions.iter().filter(|d| d.is_grammar_decision()).collect();
        assert_eq!(grammar_decisions.len(), 2);
        // Rule entries are decision states with 2 alternatives each.
        for rule in &g.rules {
            let entry = atn.rule_entry[rule.id.index()];
            assert!(matches!(atn.states[entry].kind, StateKind::Decision(_)));
            assert_eq!(atn.states[entry].edges.len(), 2);
        }
        // Rule `a` is invoked twice from s and once from itself -> three
        // distinct follow states, plus the universal EOF continuation.
        let a = g.rule_id("a").unwrap();
        assert_eq!(atn.rule_followers[a.index()].len(), 4);
        assert!(atn.rule_followers[a.index()].contains(&atn.eof_follow));
        // Rule `s` is never invoked -> only the EOF continuation.
        let s = g.rule_id("s").unwrap();
        assert_eq!(atn.rule_followers[s.index()], vec![atn.eof_follow]);
    }

    #[test]
    fn single_alt_rule_has_no_decision() {
        let g = parse_grammar("grammar G; s : A B ; A:'a'; B:'b';").unwrap();
        let atn = Atn::from_grammar(&g);
        assert!(atn.decisions.is_empty());
        // entry -ε-> left -A-> . -B-> . -ε-> stop
        let entry = atn.rule_entry[0];
        assert_eq!(atn.states[entry].kind, StateKind::RuleEntry);
    }

    #[test]
    fn ebnf_operators_create_decisions() {
        let g = parse_grammar("grammar G; s : A? B* C+ (D|E) ; A:'a'; B:'b'; C:'c'; D:'d'; E:'e';")
            .unwrap();
        let atn = Atn::from_grammar(&g);
        let kinds: Vec<DecisionKind> = atn.decisions.iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DecisionKind::Optional,
                DecisionKind::Star,
                DecisionKind::PlusLoop,
                DecisionKind::Block
            ]
        );
    }

    #[test]
    fn star_loop_cycles_back_to_decision() {
        let g = parse_grammar("grammar G; s : A* B ; A:'a'; B:'b';").unwrap();
        let atn = Atn::from_grammar(&g);
        let d = &atn.decisions[0];
        assert_eq!(d.kind, DecisionKind::Star);
        // Follow the body alternative: it must come back to the decision.
        let (_, body_left) = atn.states[d.state].edges[0].clone();
        let (edge, after_a) = atn.states[body_left].edges[0].clone();
        assert!(matches!(edge, AtnEdge::Token(_)));
        let (back_edge, back_target) = atn.states[after_a].edges[0].clone();
        assert_eq!(back_edge, AtnEdge::Epsilon);
        assert_eq!(back_target, d.state, "loop body returns to the decision state");
    }

    #[test]
    fn plus_loop_runs_body_then_decides() {
        let g = parse_grammar("grammar G; s : A+ ; A:'a';").unwrap();
        let atn = Atn::from_grammar(&g);
        assert_eq!(atn.decisions.len(), 1);
        assert_eq!(atn.decisions[0].kind, DecisionKind::PlusLoop);
        // The loop-back decision has two alternatives: repeat and exit.
        assert_eq!(atn.states[atn.decisions[0].state].edges.len(), 2);
    }

    #[test]
    fn rule_edges_record_follow_states() {
        let g = parse_grammar("grammar G; s : x B ; x : A ; A:'a'; B:'b';").unwrap();
        let atn = Atn::from_grammar(&g);
        let x = g.rule_id("x").unwrap();
        let mut found = false;
        for st in &atn.states {
            for (edge, target) in &st.edges {
                if let AtnEdge::Rule { rule, follow } = edge {
                    assert_eq!(*rule, x);
                    assert_eq!(*target, atn.rule_entry[x.index()]);
                    assert!(atn.rule_followers[x.index()].contains(follow));
                    found = true;
                }
            }
        }
        assert!(found, "expected a Rule edge for x");
    }

    #[test]
    fn predicates_and_actions_become_edges() {
        let g = parse_grammar("grammar G; s : {p}? A {act()} | (B)=> B ; A:'a'; B:'b';").unwrap();
        let atn = Atn::from_grammar(&g);
        let mut saw = (false, false, false);
        for st in &atn.states {
            for (edge, _) in &st.edges {
                match edge {
                    AtnEdge::Pred(_) => saw.0 = true,
                    AtnEdge::Action(_, false) => saw.1 = true,
                    AtnEdge::SynPred(_) => saw.2 = true,
                    _ => {}
                }
            }
        }
        assert_eq!(saw, (true, true, true), "pred/action/synpred edges present");
        // The synpred fragment has its own submachine.
        assert_eq!(atn.synpred_entry.len(), 1);
        assert_eq!(atn.synpred_stop.len(), 1);
    }

    #[test]
    fn left_edge_synpreds_of_multi_alt_sets_are_prediction_gates() {
        let g = parse_grammar(
            "grammar G; s : (A)=> A B | !(C)=> D | x ; x : (B)=> B (A)=> A ; \
             y : ((A)=> A)? ((B)=> B | C)* ; A:'a'; B:'b'; C:'c'; D:'d';",
        )
        .unwrap();
        let atn = Atn::from_grammar(&g);
        let gates: Vec<(AtnStateId, &AtnEdge)> = atn
            .states
            .iter()
            .enumerate()
            .filter(|&(i, _)| atn.prediction_gate[i])
            .map(|(i, st)| (i, &st.edges[0].0))
            .collect();
        // `s`'s two predicated alternatives and the multi-alternative
        // loop's first; not `x`'s single alternative, its mid-sequence
        // predicate, or the single-alternative optional block.
        assert_eq!(gates.len(), 3, "{gates:?}");
        assert!(gates
            .iter()
            .all(|(_, e)| matches!(e, AtnEdge::SynPred(_) | AtnEdge::NotSynPred(_))));
        let s = &atn.decisions[0];
        let first = atn.states[s.state].edges[0].1;
        assert_eq!(atn.alt_start(s.state, 1), atn.states[first].edges[0].1, "steps past the gate");
        let third = atn.states[s.state].edges[2].1;
        assert_eq!(
            atn.alt_start(s.state, 3),
            third,
            "an ungated alternative starts at its left edge"
        );
    }

    #[test]
    fn fragment_decisions_belong_to_the_predicate_rule() {
        let g = parse_grammar(
            "grammar G; s : t ; t : ((A | B) C)=> (A | B) C | D ; A:'a'; B:'b'; C:'c'; D:'d';",
        )
        .unwrap();
        let atn = Atn::from_grammar(&g);
        let t = g.rule_id("t").unwrap();
        let fragment: Vec<&Decision> = atn.decisions.iter().filter(|d| d.synthetic).collect();
        assert_eq!(fragment.len(), 1);
        assert_eq!(fragment[0].rule, t);
        assert_eq!(atn.states[atn.synpred_entry[0]].rule, t);
    }

    /// Every entry is the op of the state its ε run ends at, and a
    /// decision's entry points at its alternatives' starts.
    #[test]
    fn op_table_collapses_epsilon_runs() {
        let g = parse_grammar(
            "grammar G; s : A ((B)) | x {act} ; x : ((A)=> A)? C+ ; A:'a'; B:'b'; C:'c';",
        )
        .unwrap();
        let atn = Atn::from_grammar(&g);
        assert_eq!(atn.ops.len(), atn.states.len());
        for (state, entry) in atn.ops.iter().enumerate() {
            let mut end = state;
            for _ in 0..entry.eps {
                assert_eq!(atn.states[end].edges.len(), 1, "an ε run has one way on");
                assert_eq!(atn.states[end].edges[0].0, AtnEdge::Epsilon);
                end = atn.states[end].edges[0].1;
            }
            let st = &atn.states[end];
            let moves_on = matches!(st.kind, StateKind::Basic | StateKind::RuleEntry)
                && matches!(st.edges.first(), Some((AtnEdge::Epsilon, _)));
            assert!(!moves_on, "the run ends at a state that does work");
            if let AtnOp::Decide(d, base) = entry.op {
                assert_eq!(atn.decisions[d.index()].state, end);
                for alt in 1..=atn.alt_count(d) {
                    let start = atn.alt_starts[base as usize + alt - 1] as usize;
                    assert_eq!(start, atn.alt_start(end, alt as u16));
                }
            }
        }
        assert!(atn.ops.iter().any(|e| e.eps >= 2), "((B)) leaves a two-move run");
        let entry = atn.rule_entry[g.rule_id("x").unwrap().index()];
        assert!(matches!(atn.ops[entry].op, AtnOp::Decide(..)), "x's entry runs into `?`");
    }

    #[test]
    fn min_children_is_the_shortest_token_and_rule_path() {
        let g = parse_grammar(
            "grammar G; s : A B | x ; x : C? ; t : (A B)+ x ; u : {p}? ; A:'a'; B:'b'; C:'c';",
        )
        .unwrap();
        let atn = Atn::from_grammar(&g);
        let min = |name: &str| atn.min_children[g.rule_id(name).unwrap().index()];
        assert_eq!((min("s"), min("x"), min("t"), min("u")), (1, 0, 3, 0));
    }

    #[test]
    fn dot_rendering_mentions_tokens() {
        let g = parse_grammar("grammar G; s : A | B ; A:'a'; B:'b';").unwrap();
        let atn = Atn::from_grammar(&g);
        let dot = atn.to_dot(&g);
        assert!(dot.contains("digraph atn"));
        assert!(dot.contains("label=\"A\""), "{dot}");
    }

    #[test]
    fn alt_count_matches_grammar() {
        let g = parse_grammar("grammar G; s : A | B | C ; A:'a'; B:'b'; C:'c';").unwrap();
        let atn = Atn::from_grammar(&g);
        assert_eq!(atn.alt_count(atn.decisions[0].id), 3);
    }
}
