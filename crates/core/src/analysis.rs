//! The LL(*) grammar analysis algorithm (Section 5): a modified subset
//! construction over ATN configurations that builds one lookahead DFA per
//! parsing decision.
//!
//! Key elements, mapped to the paper:
//! * `createDFA` (Algorithm 8) → `DfaBuilder::build`
//! * `closure` (Algorithm 9) → `DfaBuilder::closure`
//! * `resolve` / `resolveWithPreds` (Algorithms 10/11) → `DfaBuilder::resolve`
//! * recursion-depth bound `m` and the `LikelyNonLLRegular` abort
//!   (Sections 5.3–5.4) → [`AnalysisWarning::NonLlRegularFallback`] plus
//!   the LL(1) fallback.

use crate::atn::{Atn, AtnEdge, Decision, DecisionId};
use crate::compiled::CompiledTables;
use crate::config::{Config, PredSource, StackArena, StackId};
use crate::dfa::{DfaState, DfaStateId, LookaheadDfa};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::metrics::{DecisionMetrics, FallbackReason};
use crate::recovery::RecoverySets;
use llstar_grammar::Grammar;
use llstar_lexer::TokenType;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Warnings produced while analyzing a decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisWarning {
    /// The grammar is ambiguous at this decision; the conflict was
    /// resolved in favour of the lowest-numbered alternative.
    Ambiguity {
        /// The conflicting alternatives.
        alts: Vec<u16>,
        /// The surviving alternative.
        resolved_to: u16,
    },
    /// Recursion exceeded depth `m`; analysis terminated lookahead early
    /// and resolved by precedence (or predicates).
    RecursionOverflow {
        /// Alternatives still viable at the overflow point.
        alts: Vec<u16>,
    },
    /// Recursion was detected in more than one alternative; the decision
    /// is likely not LL-regular, and analysis fell back to LL(1).
    NonLlRegularFallback,
    /// DFA construction exceeded the state budget; fell back to LL(1).
    StateLimit,
    /// An alternative can never be predicted by the final DFA (dead
    /// production).
    DeadAlternative {
        /// The unreachable alternative.
        alt: u16,
    },
}

/// Analysis output for one decision.
#[derive(Debug, Clone)]
pub struct DecisionAnalysis {
    /// Which decision this is.
    pub decision: DecisionId,
    /// The lookahead DFA driving the decision.
    pub dfa: LookaheadDfa,
    /// Warnings encountered.
    pub warnings: Vec<AnalysisWarning>,
    /// Construction cost counters. Deterministic, and serialized with the
    /// cache — a cache-loaded analysis still reports its original cost.
    pub metrics: DecisionMetrics,
    /// Wall-clock time spent on this decision's subset construction
    /// (zero when the analysis was loaded from a cache; timing is
    /// display-only and never serialized).
    pub elapsed: Duration,
}

/// Whole-grammar analysis output.
#[derive(Debug, Clone)]
pub struct GrammarAnalysis {
    /// The ATN the analysis ran over.
    pub atn: Atn,
    /// Per-decision results, indexed by [`DecisionId`].
    pub decisions: Vec<DecisionAnalysis>,
    /// Expected-token and resynchronization sets for error recovery,
    /// recomputed from the ATN on every construction path (including
    /// cache loads — like the ATN itself, they are never serialized).
    pub recovery: RecoverySets,
    /// Compiled prediction tables (token equivalence classes + one dense
    /// transition table per decision), lowered from the decision DFAs
    /// on every construction path — including cache loads — and never
    /// serialized, like [`RecoverySets`]. The parser predicts through
    /// them whenever they are enabled; [`CompiledTables::disabled`] here
    /// selects the linear `DfaState::target` walk, which grammars over
    /// 256 token classes always use and the parity tests use as the
    /// reference.
    pub tables: CompiledTables,
    /// Wall-clock time spent analyzing (grammar → DFAs). For cache loads
    /// this is the deserialization time, not a subset-construction time.
    pub elapsed: Duration,
    /// Whether this analysis was deserialized (cache/`--dfa` load) rather
    /// than computed by subset construction.
    pub from_cache: bool,
    /// The options the analysis was produced under. For cache loads these
    /// are the options recorded in the serialized file (with `threads`
    /// reset to the default, since thread count never affects results);
    /// the cache layer compares them against the caller's request.
    pub options: AnalysisOptions,
    /// [`grammar_fingerprint`] of the analyzed grammar, computed once
    /// here so parse-time consumers (metrics and coverage labels, serve
    /// registry keys) never re-render the grammar.
    ///
    /// [`grammar_fingerprint`]: crate::grammar_fingerprint
    pub fingerprint: u64,
}

impl GrammarAnalysis {
    /// The analysis result for `id`.
    pub fn decision(&self, id: DecisionId) -> &DecisionAnalysis {
        &self.decisions[id.index()]
    }

    /// Construction cost summed over every decision.
    pub fn total_metrics(&self) -> DecisionMetrics {
        let mut total = DecisionMetrics::default();
        for d in &self.decisions {
            total.absorb(&d.metrics);
        }
        // A sum has no single fallback reason; per-decision metrics do.
        total.fallback = None;
        total
    }
}

/// Tunable analysis limits.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Recursion-depth bound `m` (Section 5.3). Values below 1 are
    /// clamped to 1.
    pub rec_depth_m: u32,
    /// Force terminal resolution once lookahead reaches this depth
    /// (the "fixed-k" mode; `None` = unbounded LL(*)).
    pub max_k: Option<u32>,
    /// Per-decision DFA state budget before falling back to LL(1).
    pub max_dfa_states: usize,
    /// Minimize each lookahead DFA after construction (Moore partition
    /// refinement; behaviour-preserving).
    pub minimize: bool,
    /// Worker threads for per-decision DFA construction: `0` uses the
    /// machine's available parallelism, `1` is the sequential path.
    /// Results are assembled in [`DecisionId`] order, so every thread
    /// count produces identical output (see `tests/analysis_determinism`).
    pub threads: usize,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            rec_depth_m: 1,
            max_k: None,
            max_dfa_states: 4096,
            minimize: true,
            threads: 0,
        }
    }
}

impl AnalysisOptions {
    /// Options derived from a grammar's `options { … }` section.
    pub fn from_grammar(grammar: &Grammar) -> Self {
        AnalysisOptions {
            rec_depth_m: grammar.options.rec_depth_m.max(1),
            max_k: grammar.options.max_k,
            ..Default::default()
        }
    }

    /// Whether analyses run under `self` and `other` produce identical
    /// results. Every limit that shapes the DFAs participates; `threads`
    /// does not (parallel and sequential runs are byte-identical, see
    /// `tests/analysis_determinism`).
    pub fn same_results(&self, other: &AnalysisOptions) -> bool {
        self.rec_depth_m.max(1) == other.rec_depth_m.max(1)
            && self.max_k == other.max_k
            && self.max_dfa_states == other.max_dfa_states
            && self.minimize == other.minimize
    }
}

/// Analyzes every decision of `grammar`, producing lookahead DFAs.
pub fn analyze(grammar: &Grammar) -> GrammarAnalysis {
    analyze_with(grammar, &AnalysisOptions::from_grammar(grammar))
}

/// [`analyze`] with explicit limits.
pub fn analyze_with(grammar: &Grammar, options: &AnalysisOptions) -> GrammarAnalysis {
    let start = Instant::now();
    let atn = Atn::from_grammar(grammar);
    let threads = effective_threads(options.threads, atn.decisions.len());
    let decisions: Vec<DecisionAnalysis> = if threads <= 1 {
        atn.decisions.iter().map(|d| analyze_decision(grammar, &atn, d, options)).collect()
    } else {
        analyze_decisions_parallel(grammar, &atn, options, threads)
    };
    let recovery = RecoverySets::compute(grammar, &atn);
    let tables = CompiledTables::lower(grammar.vocab.len(), decisions.iter().map(|d| &d.dfa));
    GrammarAnalysis {
        atn,
        decisions,
        recovery,
        tables,
        elapsed: start.elapsed(),
        from_cache: false,
        options: options.clone(),
        fingerprint: crate::grammar_fingerprint(grammar),
    }
}

/// Resolves the `threads` knob: `0` = available parallelism, and never
/// more workers than decisions.
fn effective_threads(requested: usize, decisions: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    requested.min(decisions.max(1))
}

/// Fans the per-decision subset constructions out over `threads` scoped
/// workers. Decisions are claimed from a shared atomic cursor over a
/// **largest-first** schedule (see [`estimate_decision_work`]): handing
/// the most expensive decisions out first keeps a skewed grammar's one
/// giant decision from landing last and serializing the tail of the run.
/// Every result is written back into its [`DecisionId`] slot, so the
/// assembled vector — and therefore `serialize_analysis` output and
/// warning order — is byte-identical to the sequential path regardless
/// of claim order.
fn analyze_decisions_parallel(
    grammar: &Grammar,
    atn: &Atn,
    options: &AnalysisOptions,
    threads: usize,
) -> Vec<DecisionAnalysis> {
    let n = atn.decisions.len();
    // Largest estimated work first; ties broken by DecisionId so the
    // schedule itself is deterministic.
    let mut order: Vec<usize> = (0..n).collect();
    let work: Vec<usize> = (0..n).map(|i| estimate_decision_work(atn, &atn.decisions[i])).collect();
    order.sort_by(|&a, &b| work[b].cmp(&work[a]).then(a.cmp(&b)));
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, DecisionAnalysis)> = Vec::new();
                    loop {
                        let slot = cursor.fetch_add(1, Ordering::Relaxed);
                        if slot >= n {
                            break;
                        }
                        let i = order[slot];
                        let d = &atn.decisions[i];
                        local.push((i, analyze_decision(grammar, atn, d, options)));
                    }
                    local
                })
            })
            .collect();
        let mut slots: Vec<Option<DecisionAnalysis>> = (0..n).map(|_| None).collect();
        for worker in workers {
            for (i, analysis) in worker.join().expect("analysis worker panicked") {
                slots[i] = Some(analysis);
            }
        }
        slots.into_iter().map(|s| s.expect("every decision is claimed exactly once")).collect()
    })
}

/// Cheap proxy for a decision's subset-construction cost: the number of
/// ATN states reachable from the decision state, following `Rule` edges
/// into both the callee's submachine and the local follow state (the two
/// places closure goes). A BFS over the ATN is a few microseconds even
/// for large grammars — negligible next to the constructions it orders.
fn estimate_decision_work(atn: &Atn, decision: &Decision) -> usize {
    let mut seen = vec![false; atn.states.len()];
    let mut queue = vec![decision.state];
    seen[decision.state] = true;
    let mut count = 0usize;
    while let Some(s) = queue.pop() {
        count += 1;
        for (edge, target) in &atn.states[s].edges {
            let mut visit = |t: crate::atn::AtnStateId| {
                if !seen[t] {
                    seen[t] = true;
                    queue.push(t);
                }
            };
            if let AtnEdge::Rule { rule, follow } = edge {
                visit(atn.rule_entry[rule.index()]);
                visit(*follow);
            } else {
                visit(*target);
            }
        }
    }
    count
}

/// Analyzes a single decision, falling back to LL(1) on a
/// likely-non-LL-regular abort or state-budget exhaustion (Section 5.4).
pub fn analyze_decision(
    grammar: &Grammar,
    atn: &Atn,
    decision: &Decision,
    options: &AnalysisOptions,
) -> DecisionAnalysis {
    let start = Instant::now();
    let mut builder = DfaBuilder::new(grammar, atn, decision, options, true);
    match builder.build() {
        Ok(dfa) => {
            let dfa = if options.minimize { dfa.minimized() } else { dfa };
            let mut warnings = builder.warnings;
            note_dead_alternatives(atn, decision, &dfa, &mut warnings);
            DecisionAnalysis {
                decision: decision.id,
                dfa,
                warnings,
                metrics: builder.metrics,
                elapsed: start.elapsed(),
            }
        }
        Err(abort) => {
            // Fall back: LL(1) DFA with overflow-style resolution instead
            // of aborting.
            let ll1_options = AnalysisOptions { max_k: Some(1), ..options.clone() };
            let mut fb = DfaBuilder::new(grammar, atn, decision, &ll1_options, false);
            let dfa = fb.build().expect("LL(1) fallback cannot abort: aborts are disabled");
            let dfa = if options.minimize { dfa.minimized() } else { dfa };
            let mut warnings = vec![match abort {
                Abort::NonLlRegular => AnalysisWarning::NonLlRegularFallback,
                Abort::StateLimit => AnalysisWarning::StateLimit,
            }];
            warnings.extend(fb.warnings);
            note_dead_alternatives(atn, decision, &dfa, &mut warnings);
            // Total cost = aborted LL(*) attempt + fallback build.
            let mut metrics = builder.metrics;
            metrics.absorb(&fb.metrics);
            metrics.fallback = Some(match abort {
                Abort::NonLlRegular => FallbackReason::NonLlRegular,
                Abort::StateLimit => FallbackReason::StateLimit,
            });
            DecisionAnalysis {
                decision: decision.id,
                dfa,
                warnings,
                metrics,
                elapsed: start.elapsed(),
            }
        }
    }
}

fn note_dead_alternatives(
    atn: &Atn,
    decision: &Decision,
    dfa: &LookaheadDfa,
    warnings: &mut Vec<AnalysisWarning>,
) {
    let predictable = dfa.predictable_alts();
    let n = atn.alt_count(decision.id) as u16;
    for alt in 1..=n {
        if !predictable.contains(&alt) {
            warnings.push(AnalysisWarning::DeadAlternative { alt });
        }
    }
}

/// Reasons the full LL(*) construction gives up (Section 5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abort {
    NonLlRegular,
    StateLimit,
}

/// The closure working set for one DFA state under construction.
///
/// `busy` is the closure's visited set; `configs` lists the same
/// configurations in first-visit order and is sorted before `resolve`
/// reads it. Closure never visits a
/// configuration twice, so the sorted vector holds exactly what a
/// `BTreeSet<Config>` would, in its iteration order: intern keys, state
/// numbering and warning order do not depend on the representation.
#[derive(Debug, Default)]
struct StateCtx {
    configs: Vec<Config>,
    busy: FxHashSet<Config>,
    recursive_alts: BTreeSet<u16>,
    overflowed: bool,
    /// Whether predicates encountered during this closure are hoisted
    /// into configurations. Only the start-state closure captures
    /// predicates: those are the ones *visible* at the decision point
    /// (evaluable before any lookahead is consumed, Section 5.5). In
    /// deeper states, configurations keep the predicates they inherited
    /// from D0 through move().
    capture_preds: bool,
}

impl StateCtx {
    /// Empties the set for the next `move` target, keeping `busy`'s
    /// allocation.
    fn reset(&mut self) {
        self.configs = Vec::new();
        self.busy.clear();
        self.recursive_alts.clear();
        self.overflowed = false;
    }
}

/// How `resolve` disposed of a state.
enum Resolution {
    /// Keep expanding the state with more lookahead.
    Continue,
    /// The state becomes an unconditional accept for one alternative.
    Accept(u16),
    /// The state becomes terminal with predicate transitions (and an
    /// optional default alternative).
    Predicated { preds: Vec<(PredSource, u16)>, default_alt: Option<u16> },
}

struct DfaBuilder<'a> {
    atn: &'a Atn,
    decision: &'a Decision,
    m: u32,
    max_k: Option<u32>,
    max_states: usize,
    /// Abort on recursion in >1 alternative (disabled in fallback mode).
    abort_on_multi_recursion: bool,
    stacks: StackArena,
    dfa: LookaheadDfa,
    /// Canonical config set (post-resolution) → DFA state. In fixed-k
    /// mode the lookahead depth joins the key: merging states across
    /// depths would close cycles and silently reintroduce unbounded
    /// lookahead.
    interned: FxHashMap<(Vec<Config>, u32), DfaStateId>,
    /// One shared accept state per alternative (the paper's `f_i`).
    accept_states: FxHashMap<u16, DfaStateId>,
    /// Lookahead depth per DFA state (`u32::MAX` for accept states).
    state_depth: Vec<u32>,
    warnings: Vec<AnalysisWarning>,
    metrics: DecisionMetrics,
}

impl<'a> DfaBuilder<'a> {
    fn new(
        grammar: &'a Grammar,
        atn: &'a Atn,
        decision: &'a Decision,
        options: &AnalysisOptions,
        abort_on_multi_recursion: bool,
    ) -> Self {
        let _ = grammar;
        DfaBuilder {
            atn,
            decision,
            m: options.rec_depth_m.max(1),
            max_k: options.max_k,
            max_states: options.max_dfa_states,
            abort_on_multi_recursion,
            stacks: StackArena::new(),
            dfa: LookaheadDfa::new(decision.id),
            interned: FxHashMap::default(),
            accept_states: FxHashMap::default(),
            state_depth: vec![0],
            warnings: Vec::new(),
            metrics: DecisionMetrics::default(),
        }
    }

    /// Algorithm 8, `createDFA`.
    fn build(&mut self) -> Result<LookaheadDfa, Abort> {
        self.metrics.dfa_builds += 1;
        self.metrics.dfa_states += 1; // D0, created in `new`.

        // D0: closure over one configuration per alternative, seeded from
        // the decision state's ordered ε edges. The paper's createDFA only
        // resolves states reached by move(): D0 is expanded unconditionally
        // (conflicts materialize, and are pruned, in its successors).
        let mut ctx = StateCtx { capture_preds: true, ..Default::default() };
        let atn = self.atn;
        for (i, (_, target)) in atn.states[self.decision.state].edges.iter().enumerate() {
            self.closure(&mut ctx, Config::initial(*target, i as u16 + 1))?;
        }
        ctx.configs.sort_unstable();
        // Live (expandable) states with their configurations; the intern
        // map holds the only other copy.
        let mut work: Vec<(DfaStateId, Vec<Config>)> = Vec::new();
        self.interned.insert((ctx.configs.clone(), self.intern_depth(0)), 0);
        if let Some(alt) = single_alt(&ctx.configs) {
            // Degenerate: everything predicts one alternative.
            self.dfa.states[0].accept = Some(alt);
        } else {
            work.push((0, ctx.configs));
        }

        let mut ctx = StateCtx::default();
        let mut moves: Vec<(TokenType, Config)> = Vec::new();
        while let Some((d, configs)) = work.pop() {
            // move(D, a) for every token a at once: each configuration's
            // token edges, in configuration then edge order, grouped by
            // token with that order kept (the sort is stable). Each
            // token's closure starts from its move targets in that order,
            // which fixes its DFS order and where an abort stops it.
            moves.clear();
            for c in &configs {
                for (edge, target) in &atn.states[c.state].edges {
                    if let AtnEdge::Token(t) = edge {
                        moves.push((*t, Config { state: *target, ..*c }));
                    }
                }
            }
            moves.sort_by_key(|&(t, _)| t);
            let depth = self.state_depth[d] + 1;
            for group in moves.chunk_by(|a, b| a.0 == b.0) {
                let token = group[0].0;
                ctx.reset();
                for &(_, c) in group {
                    self.closure(&mut ctx, c)?;
                }
                ctx.configs.sort_unstable();
                let target = match self.resolve(&mut ctx, depth) {
                    Resolution::Accept(alt) => self.accept_state(alt),
                    Resolution::Predicated { preds, default_alt } => {
                        let key = (std::mem::take(&mut ctx.configs), self.intern_depth(depth));
                        if let Some(&existing) = self.interned.get(&key) {
                            existing
                        } else {
                            let id = self.push_state(key, depth)?;
                            self.dfa.states[id].preds = preds;
                            self.dfa.states[id].default_alt = default_alt;
                            id
                        }
                    }
                    Resolution::Continue => {
                        if let Some(alt) = single_alt(&ctx.configs) {
                            self.accept_state(alt)
                        } else {
                            let key = (std::mem::take(&mut ctx.configs), self.intern_depth(depth));
                            if let Some(&existing) = self.interned.get(&key) {
                                existing
                            } else {
                                let configs = key.0.clone();
                                let id = self.push_state(key, depth)?;
                                work.push((id, configs));
                                id
                            }
                        }
                    }
                };
                self.metrics.dfa_edges += 1;
                self.dfa.states[d].edges.push((token, target));
            }
        }
        Ok(std::mem::replace(&mut self.dfa, LookaheadDfa::new(self.decision.id)))
    }

    /// The depth component of the intern key: real depth in fixed-k
    /// mode, 0 (merge freely) in unbounded LL(*) mode.
    fn intern_depth(&self, depth: u32) -> u32 {
        if self.max_k.is_some() {
            depth
        } else {
            0
        }
    }

    fn push_state(&mut self, key: (Vec<Config>, u32), depth: u32) -> Result<DfaStateId, Abort> {
        if self.dfa.states.len() >= self.max_states {
            return Err(Abort::StateLimit);
        }
        let id = self.dfa.states.len();
        self.metrics.dfa_states += 1;
        self.dfa.states.push(DfaState::default());
        self.interned.insert(key, id);
        self.state_depth.push(depth);
        Ok(id)
    }

    /// The shared accept state `f_alt`.
    fn accept_state(&mut self, alt: u16) -> DfaStateId {
        if let Some(&id) = self.accept_states.get(&alt) {
            return id;
        }
        let id = self.dfa.states.len();
        self.metrics.dfa_states += 1;
        self.dfa.states.push(DfaState { accept: Some(alt), ..Default::default() });
        self.state_depth.push(u32::MAX);
        self.accept_states.insert(alt, id);
        id
    }

    /// Algorithm 9, `closure`.
    fn closure(&mut self, ctx: &mut StateCtx, c: Config) -> Result<(), Abort> {
        self.metrics.closure_calls += 1;
        if !ctx.busy.insert(c) {
            return Ok(());
        }
        ctx.configs.push(c);
        self.metrics.configs_created += 1;
        // The ATN outlives `self`'s borrow: edge lists are walked in
        // place while the recursion mutates the builder.
        let atn = self.atn;
        let state = &atn.states[c.state];

        if atn.is_stop_state(c.state) {
            if let Some((ret, rest)) = self.stacks.pop(c.stack) {
                self.closure(ctx, Config { state: ret, stack: rest, ..c })?;
            } else if atn.is_fragment_stop(c.state) {
                // End of a syntactic-predicate fragment: anything may
                // follow a successful speculative match.
                self.closure(
                    ctx,
                    Config { state: atn.any_follow, stack: StackId::EMPTY, followed: true, ..c },
                )?;
            } else {
                // Empty stack: any caller could have invoked this rule;
                // chase every follow state (ε wildcard, Definition 6).
                for &follow in &atn.rule_followers[state.rule.index()] {
                    self.closure(
                        ctx,
                        Config { state: follow, stack: StackId::EMPTY, followed: true, ..c },
                    )?;
                }
            }
            return Ok(());
        }

        for (edge, target) in &state.edges {
            let target = *target;
            match *edge {
                AtnEdge::Token(_) => {}
                AtnEdge::Epsilon => {
                    self.closure(ctx, Config { state: target, ..c })?;
                }
                AtnEdge::Rule { follow, .. } => {
                    let depth = self.stacks.occurrences(c.stack, follow);
                    if depth == 1 {
                        ctx.recursive_alts.insert(c.alt);
                        if self.abort_on_multi_recursion && ctx.recursive_alts.len() > 1 {
                            return Err(Abort::NonLlRegular);
                        }
                    }
                    if depth >= self.m {
                        // Recursion overflow: stop pursuing this path.
                        self.metrics.recursion_overflows += 1;
                        ctx.overflowed = true;
                        continue;
                    }
                    let stack = self.stacks.push(c.stack, follow);
                    self.closure(ctx, Config { state: target, stack, ..c })?;
                }
                AtnEdge::Pred(p) => {
                    // Hoist the predicate only while still inside the
                    // decision's own derivation (Section 5.5); predicates
                    // reached through the FOLLOW wildcard gate other
                    // decisions.
                    let pred = if ctx.capture_preds && !c.followed {
                        c.pred.or(Some(PredSource::Sem(p)))
                    } else {
                        c.pred
                    };
                    self.closure(ctx, Config { state: target, pred, ..c })?;
                }
                AtnEdge::SynPred(sp) => {
                    let pred = if ctx.capture_preds && !c.followed {
                        c.pred.or(Some(PredSource::Syn(sp)))
                    } else {
                        c.pred
                    };
                    self.closure(ctx, Config { state: target, pred, ..c })?;
                }
                AtnEdge::NotSynPred(sp) => {
                    let pred = if ctx.capture_preds && !c.followed {
                        c.pred.or(Some(PredSource::NotSyn(sp)))
                    } else {
                        c.pred
                    };
                    self.closure(ctx, Config { state: target, pred, ..c })?;
                }
                AtnEdge::Action(..) => {
                    self.closure(ctx, Config { state: target, ..c })?;
                }
            }
        }
        Ok(())
    }

    /// Algorithms 10–11, `resolve` and `resolveWithPreds`, extended with
    /// the forced-termination cases (recursion overflow and the fixed-k
    /// depth limit).
    fn resolve(&mut self, ctx: &mut StateCtx, depth: u32) -> Resolution {
        self.metrics.resolve_calls += 1;
        let conflicts = self.conflict_alts(ctx);
        let depth_limited = self.max_k.is_some_and(|k| depth >= k);
        let force = ctx.overflowed || depth_limited;

        if conflicts.is_empty() && !force {
            return Resolution::Continue;
        }

        let all_alts: BTreeSet<u16> = ctx.configs.iter().map(|c| c.alt).collect();
        if force && all_alts.len() == 1 {
            return Resolution::Accept(*all_alts.iter().next().expect("non-empty"));
        }

        // resolveWithPreds over every alternative still viable in the
        // state (the terminal state must dispose of all of them). One
        // predicate-free alternative may serve as the default branch.
        // Each alternative may contribute several predicates (ORed at
        // runtime: the first one that passes selects the alternative).
        // An alternative counts as predicated only if *every* one of its
        // configurations carries a predicate — an unpredicated
        // configuration means the alternative has a gate-free derivation
        // and must not be blocked behind predicates.
        let mut pred_for: BTreeMap<u16, BTreeSet<PredSource>> = BTreeMap::new();
        let mut gate_free: BTreeSet<u16> = BTreeSet::new();
        for c in &ctx.configs {
            match c.pred {
                Some(p) => {
                    pred_for.entry(c.alt).or_default().insert(p);
                }
                None => {
                    gate_free.insert(c.alt);
                }
            }
        }
        for alt in &gate_free {
            pred_for.remove(alt);
        }
        let unpredicated: Vec<u16> =
            all_alts.iter().copied().filter(|a| !pred_for.contains_key(a)).collect();
        if unpredicated.len() <= 1 && !pred_for.is_empty() {
            if ctx.overflowed {
                self.warnings.push(AnalysisWarning::RecursionOverflow { alts: to_vec(&all_alts) });
            }
            let preds: Vec<(PredSource, u16)> = all_alts
                .iter()
                .flat_map(|a| {
                    pred_for.get(a).into_iter().flat_map(|set| set.iter().map(|p| (*p, *a)))
                })
                .collect();
            self.metrics.pred_resolutions += 1;
            return Resolution::Predicated { preds, default_alt: unpredicated.first().copied() };
        }

        if force {
            // No predicates to arbitrate: resolve wholesale in favour of
            // the lowest-numbered alternative.
            let min = *all_alts.iter().next().expect("non-empty");
            if ctx.overflowed {
                self.warnings.push(AnalysisWarning::RecursionOverflow { alts: to_vec(&all_alts) });
            } else {
                self.warnings
                    .push(AnalysisWarning::Ambiguity { alts: to_vec(&all_alts), resolved_to: min });
            }
            return Resolution::Accept(min);
        }

        // Static ambiguity resolution: drop configurations belonging to
        // the higher-numbered conflicting alternatives and continue.
        let min = conflicts[0];
        self.warnings
            .push(AnalysisWarning::Ambiguity { alts: conflicts.clone(), resolved_to: min });
        let losers: BTreeSet<u16> = conflicts.iter().copied().filter(|&a| a != min).collect();
        ctx.configs.retain(|c| !losers.contains(&c.alt));
        Resolution::Continue
    }

    /// Definition 7: alternatives appearing in conflicting configurations
    /// (same ATN state, equivalent stacks, different alternatives).
    /// `ctx.configs` is sorted and `Config` orders by state first, so each
    /// ATN state's configurations form one contiguous run.
    fn conflict_alts(&self, ctx: &StateCtx) -> Vec<u16> {
        let mut conflict: BTreeSet<u16> = BTreeSet::new();
        for group in ctx.configs.chunk_by(|a, b| a.state == b.state) {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    if a.alt != b.alt && self.stacks.equivalent(a.stack, b.stack) {
                        conflict.insert(a.alt);
                        conflict.insert(b.alt);
                    }
                }
            }
        }
        conflict.into_iter().collect()
    }
}

fn single_alt(configs: &[Config]) -> Option<u16> {
    let mut alts = configs.iter().map(|c| c.alt);
    let first = alts.next()?;
    alts.all(|a| a == first).then_some(first)
}

fn to_vec(set: &BTreeSet<u16>) -> Vec<u16> {
    set.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::DecisionClass;
    use llstar_grammar::{apply_peg_mode, parse_grammar};

    fn analyze_src(src: &str) -> (Grammar, GrammarAnalysis) {
        let g = apply_peg_mode(parse_grammar(src).unwrap());
        let a = analyze(&g);
        (g, a)
    }

    fn rule_decision<'a>(g: &Grammar, a: &'a GrammarAnalysis, rule: &str) -> &'a DecisionAnalysis {
        let rid = g.rule_id(rule).unwrap();
        let d = a
            .atn
            .decisions
            .iter()
            .find(|d| d.rule == rid && d.kind == crate::atn::DecisionKind::RuleAlts)
            .unwrap();
        a.decision(d.id)
    }

    /// Figure 1: the LL(*) lookahead DFA for rule `s`.
    #[test]
    fn figure1_rule_s() {
        let (g, a) = analyze_src(
            r#"
            grammar F1;
            s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
            expr : INT ;
            ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
            INT : [0-9]+ ;
            WS : [ \t\r\n]+ -> skip ;
            "#,
        );
        let d = rule_decision(&g, &a, "s");
        assert!(d.warnings.is_empty(), "{:?}", d.warnings);
        let dfa = &d.dfa;
        assert!(dfa.is_cyclic(), "unsigned* loop makes the DFA cyclic:\n{}", dfa.to_pretty(&g));
        assert_eq!(dfa.classify(), DecisionClass::Cyclic);

        let int_t = g.vocab.by_literal("int").unwrap();
        let uns_t = g.vocab.by_literal("unsigned").unwrap();
        let id_t = g.vocab.by_name("ID").unwrap();
        let eq_t = g.vocab.by_literal("=").unwrap();

        // k=1: 'int' immediately predicts alternative 3.
        let s0 = &dfa.states[0];
        let f3 = s0.target(int_t).unwrap();
        assert_eq!(dfa.states[f3].accept, Some(3));

        // k=2 after ID: '=' → alt 2, ID → alt 4, EOF → alt 1.
        let s_id = s0.target(id_t).unwrap();
        let after = &dfa.states[s_id];
        assert_eq!(dfa.states[after.target(eq_t).unwrap()].accept, Some(2));
        assert_eq!(dfa.states[after.target(id_t).unwrap()].accept, Some(4));
        assert_eq!(dfa.states[after.target(TokenType::EOF).unwrap()].accept, Some(1));

        // 'unsigned' loops: the unsigned-successor state loops on itself.
        let s_uns = s0.target(uns_t).unwrap();
        assert_eq!(
            dfa.states[s_uns].target(uns_t),
            Some(s_uns),
            "arbitrary lookahead over 'unsigned'*:\n{}",
            dfa.to_pretty(&g)
        );
        assert_eq!(dfa.states[dfa.states[s_uns].target(int_t).unwrap()].accept, Some(3));
        assert_eq!(dfa.states[dfa.states[s_uns].target(id_t).unwrap()].accept, Some(4));
    }

    /// Figure 2: PEG mode, recursion in one alternative, m = 1: match one
    /// '-', then fail over to backtracking.
    #[test]
    fn figure2_rule_t() {
        let (g, a) = analyze_src(
            r#"
            grammar F2;
            options { backtrack = true; m = 1; }
            t : '-'* ID | expr ;
            expr : INT | '-' expr ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
            "#,
        );
        let d = rule_decision(&g, &a, "t");
        let dfa = &d.dfa;
        assert_eq!(dfa.classify(), DecisionClass::Backtrack, "\n{}", dfa.to_pretty(&g));

        let id_t = g.vocab.by_name("ID").unwrap();
        let int_t = g.vocab.by_name("INT").unwrap();
        let minus = g.vocab.by_literal("-").unwrap();

        // Immediate k=1 answers.
        let s0 = &dfa.states[0];
        assert_eq!(dfa.states[s0.target(id_t).unwrap()].accept, Some(1));
        assert_eq!(dfa.states[s0.target(int_t).unwrap()].accept, Some(2));

        // One '-': still deterministic lookahead.
        let s1 = s0.target(minus).unwrap();
        let s1st = &dfa.states[s1];
        assert_eq!(dfa.states[s1st.target(id_t).unwrap()].accept, Some(1));
        assert_eq!(dfa.states[s1st.target(int_t).unwrap()].accept, Some(2));

        // Two '-': recursion overflow (m = 1) → predicate transitions.
        let s2 = s1st.target(minus).unwrap();
        let s2st = &dfa.states[s2];
        assert!(
            !s2st.preds.is_empty(),
            "after '--' the DFA must fail over to backtracking:\n{}",
            dfa.to_pretty(&g)
        );
        assert!(matches!(s2st.preds[0].0, PredSource::Syn(_)));
        assert_eq!(s2st.preds[0].1, 1);
        assert_eq!(s2st.default_alt, Some(2));
        assert!(d.warnings.iter().any(|w| matches!(w, AnalysisWarning::RecursionOverflow { .. })));
    }

    /// Section 2's `a : b A+ X | c A+ Y` example: LL(*) but not LR(k);
    /// ANTLR builds a cyclic DFA quickly.
    #[test]
    fn cyclic_dfa_for_a_plus() {
        let (g, a) =
            analyze_src("grammar C; a : b A+ X | c A+ Y ; b : ; c : ; A:'a'; X:'x'; Y:'y';");
        let d = rule_decision(&g, &a, "a");
        let dfa = &d.dfa;
        assert!(d.warnings.is_empty(), "{:?}", d.warnings);
        assert_eq!(dfa.classify(), DecisionClass::Cyclic, "\n{}", dfa.to_pretty(&g));
        // Simulate: a^n x predicts 1, a^n y predicts 2, for growing n.
        let a_t = g.vocab.by_name("A").unwrap();
        let x_t = g.vocab.by_name("X").unwrap();
        let y_t = g.vocab.by_name("Y").unwrap();
        for n in 1..6 {
            let mut s = 0;
            for _ in 0..n {
                s = dfa.states[s].target(a_t).unwrap();
            }
            let fx = dfa.states[s].target(x_t).unwrap();
            assert_eq!(dfa.states[fx].accept, Some(1), "a^{n} x");
            let fy = dfa.states[s].target(y_t).unwrap();
            assert_eq!(dfa.states[fy].accept, Some(2), "a^{n} y");
        }
    }

    /// Section 5.2's ambiguity example: `A → (a|a) b` is ambiguous and
    /// resolves to alternative 1.
    #[test]
    fn ambiguous_subrule_resolves_to_lowest() {
        let g = parse_grammar("grammar Amb; s : (A | A) B ; A:'a'; B:'b';").unwrap();
        let a = analyze(&g);
        let d = &a.decisions[0];
        assert!(
            d.warnings.iter().any(|w| matches!(
                w,
                AnalysisWarning::Ambiguity { alts, resolved_to: 1 } if alts == &vec![1, 2]
            )),
            "{:?}",
            d.warnings
        );
        assert!(
            d.warnings.iter().any(|w| matches!(w, AnalysisWarning::DeadAlternative { alt: 2 })),
            "{:?}",
            d.warnings
        );
        // DFA: a → f1.
        let a_t = g.vocab.by_name("A").unwrap();
        let f = d.dfa.states[0].target(a_t).unwrap();
        assert_eq!(d.dfa.states[f].accept, Some(1));
    }

    /// Section 5.2's predicated variant: `A → ({p1}? a | {p2}? a) b`
    /// resolves at runtime with predicate transitions.
    #[test]
    fn predicates_resolve_ambiguity() {
        let g = parse_grammar("grammar P; s : ({p1}? A | {p2}? A) B ; A:'a'; B:'b';").unwrap();
        let a = analyze(&g);
        let d = &a.decisions[0];
        assert!(d.warnings.is_empty(), "{:?}", d.warnings);
        let a_t = g.vocab.by_name("A").unwrap();
        let s1 = d.dfa.states[0].target(a_t).unwrap();
        let st = &d.dfa.states[s1];
        assert_eq!(st.preds.len(), 2);
        assert!(matches!(st.preds[0], (PredSource::Sem(_), 1)));
        assert!(matches!(st.preds[1], (PredSource::Sem(_), 2)));
    }

    /// Figure 6 grammar `S → Ac|Ad, A → aA|b`: recursion in both
    /// alternatives aborts the full construction and falls back to LL(1).
    #[test]
    fn non_ll_regular_falls_back_to_ll1() {
        let g =
            parse_grammar("grammar N; s : a C | a D ; a : A a | B ; A:'a'; B:'b'; C:'c'; D:'d';")
                .unwrap();
        let a = analyze(&g);
        let d = rule_decision(&g, &a, "s");
        assert!(d.warnings.contains(&AnalysisWarning::NonLlRegularFallback), "{:?}", d.warnings);
        // The LL(1) fallback without predicates resolves to alt 1.
        assert_eq!(d.dfa.max_lookahead(), Some(1));
    }

    /// An LL(1) decision stays LL(1).
    #[test]
    fn ll1_decision() {
        let (g, a) = analyze_src("grammar L; s : A X | B Y ; A:'a'; B:'b'; X:'x'; Y:'y';");
        let d = rule_decision(&g, &a, "s");
        assert_eq!(d.dfa.classify(), DecisionClass::Fixed { k: 1 });
        assert!(d.warnings.is_empty());
    }

    /// LL(2) via common prefix.
    #[test]
    fn ll2_decision() {
        let (g, a) = analyze_src("grammar L2; s : A X | A Y ; A:'a'; X:'x'; Y:'y';");
        let d = rule_decision(&g, &a, "s");
        assert_eq!(d.dfa.classify(), DecisionClass::Fixed { k: 2 });
    }

    /// The bracket-matching approximation from Section 5: `A → '[' A ']'
    /// | id` is LL(1) even though the continuation language is
    /// context-free.
    #[test]
    fn regular_approximation_of_recursive_rule() {
        let (g, a) = analyze_src("grammar R; a : '[' a ']' | ID ; ID : [a-z]+ ;");
        let d = rule_decision(&g, &a, "a");
        assert_eq!(d.dfa.classify(), DecisionClass::Fixed { k: 1 }, "\n{}", d.dfa.to_pretty(&g));
        assert!(d.warnings.is_empty(), "{:?}", d.warnings);
    }

    /// Fixed-k mode (`options { k = 1; }`) forces depth-1 resolution.
    #[test]
    fn fixed_k_caps_lookahead() {
        let g = parse_grammar("grammar K; options { k = 1; } s : A X | A Y ; A:'a'; X:'x'; Y:'y';")
            .unwrap();
        let a = analyze(&g);
        let d = rule_decision(&g, &a, "s");
        assert_eq!(d.dfa.max_lookahead(), Some(1));
        // Forced resolution produces an ambiguity warning and a dead alt.
        assert!(
            d.warnings.iter().any(|w| matches!(w, AnalysisWarning::Ambiguity { .. })),
            "{:?}",
            d.warnings
        );
    }

    /// EOF distinguishes "end of rule" from more input.
    #[test]
    fn eof_lookahead_for_start_rule() {
        let (g, a) = analyze_src("grammar E; s : A | A A ; A:'a';");
        let d = rule_decision(&g, &a, "s");
        let a_t = g.vocab.by_name("A").unwrap();
        let s1 = d.dfa.states[0].target(a_t).unwrap();
        let f1 = d.dfa.states[s1].target(TokenType::EOF).unwrap();
        assert_eq!(d.dfa.states[f1].accept, Some(1));
        let f2 = d.dfa.states[s1].target(a_t).unwrap();
        assert_eq!(d.dfa.states[f2].accept, Some(2));
    }

    /// Optional/star/plus subrule decisions analyze too.
    #[test]
    fn ebnf_decisions_are_analyzed() {
        let (_, a) = analyze_src("grammar B; s : A? B* C+ D ; A:'a'; B:'b'; C:'c'; D:'d';");
        assert_eq!(a.decisions.len(), 3);
        for d in &a.decisions {
            assert!(d.warnings.is_empty(), "{:?}", d.warnings);
            assert_eq!(d.dfa.classify(), DecisionClass::Fixed { k: 1 });
        }
    }

    /// The `m` constant controls how far the DFA unwinds recursion
    /// before failing over to backtracking (Section 5.3): with m = 2 the
    /// Figure 2 DFA matches one more '-' deterministically than m = 1.
    #[test]
    fn m_parameter_extends_deterministic_prefix() {
        let depth_to_preds = |m: u32| -> usize {
            let src = format!(
                "grammar F; options {{ backtrack = true; m = {m}; }} \
                 t : '-'* ID | expr ; expr : INT | '-' expr ; \
                 ID : [a-z]+ ; INT : [0-9]+ ; WS : [ ]+ -> skip ;"
            );
            let g = apply_peg_mode(parse_grammar(&src).unwrap());
            let a = analyze(&g);
            let d = {
                let rid = g.rule_id("t").unwrap();
                let d = a
                    .atn
                    .decisions
                    .iter()
                    .find(|d| d.rule == rid && d.kind == crate::atn::DecisionKind::RuleAlts)
                    .unwrap();
                a.decision(d.id)
            };
            // Walk '-' edges from the start until a predicate state.
            let minus = g.vocab.by_literal("-").unwrap();
            let mut s = 0usize;
            let mut depth = 0usize;
            loop {
                let st = &d.dfa.states[s];
                if !st.preds.is_empty() {
                    return depth;
                }
                match st.target(minus) {
                    Some(t) => {
                        s = t;
                        depth += 1;
                    }
                    None => panic!("expected '-' edge or predicates at depth {depth}"),
                }
            }
        };
        let d1 = depth_to_preds(1);
        let d2 = depth_to_preds(2);
        let d3 = depth_to_preds(3);
        assert!(d2 > d1, "m=2 unwinds deeper than m=1: {d1} vs {d2}");
        assert!(d3 > d2, "m=3 deeper still: {d2} vs {d3}");
    }

    /// Section 5.5: predicates on the left edge of a *sub-rule* are
    /// hoisted into the outer decision (limited predicate discovery).
    #[test]
    fn predicates_hoist_through_rule_references() {
        let g =
            parse_grammar("grammar H; s : a | b ; a : {isA}? ID ; b : {isB}? ID ; ID : [a-z]+ ;")
                .unwrap();
        let a = analyze(&g);
        let d = rule_decision(&g, &a, "s");
        assert!(d.warnings.is_empty(), "{:?}", d.warnings);
        // Both alternatives reach the same ID with equivalent stacks —
        // only the hoisted predicates can resolve the conflict.
        let id_t = g.vocab.by_name("ID").unwrap();
        let s1 = d.dfa.states[0].target(id_t).unwrap();
        let st = &d.dfa.states[s1];
        assert_eq!(st.preds.len(), 2, "{}", d.dfa.to_pretty(&g));
        assert!(matches!(st.preds[0], (PredSource::Sem(_), 1)));
        assert!(matches!(st.preds[1], (PredSource::Sem(_), 2)));
    }

    /// No fixed k resolves `a : b A+ X | c A+ Y`, but cyclic LL(*) does —
    /// the Section 2 LPG anecdote as a unit test.
    #[test]
    fn no_fixed_k_resolves_the_cyclic_decision() {
        let src = "grammar C; a : b A+ X | c A+ Y ; b : ; c : ; A:'a'; X:'x'; Y:'y';";
        let g = parse_grammar(src).unwrap();
        for k in [1, 2, 4, 8] {
            let opts = AnalysisOptions { max_k: Some(k), ..Default::default() };
            let a = analyze_with(&g, &opts);
            let d = rule_decision(&g, &a, "a");
            assert!(
                d.warnings.iter().any(|w| matches!(w, AnalysisWarning::Ambiguity { .. })
                    || matches!(w, AnalysisWarning::DeadAlternative { .. })),
                "k={k}: fixed lookahead must fail to resolve: {:?}",
                d.warnings
            );
        }
        let a = analyze(&g);
        let d = rule_decision(&g, &a, "a");
        assert!(d.warnings.is_empty(), "cyclic LL(*) resolves cleanly: {:?}", d.warnings);
    }

    /// An alternative with several ε-reachable predicates gets OR
    /// semantics: any passing predicate selects it.
    #[test]
    fn multiple_predicates_per_alternative_are_ored() {
        let g = parse_grammar("grammar O; s : ({p1}? ID | {p2}? ID) | {p3}? ID ; ID : [a-z]+ ;")
            .unwrap();
        let a = analyze(&g);
        let d = rule_decision(&g, &a, "s");
        let id_t = g.vocab.by_name("ID").unwrap();
        let s1 = d.dfa.states[0].target(id_t).unwrap();
        let st = &d.dfa.states[s1];
        // Alternative 1 carries p1 and p2; alternative 2 carries p3.
        let alt1_preds = st.preds.iter().filter(|&&(_, a)| a == 1).count();
        let alt2_preds = st.preds.iter().filter(|&&(_, a)| a == 2).count();
        assert_eq!(alt1_preds, 2, "{}", d.dfa.to_pretty(&g));
        assert_eq!(alt2_preds, 1, "{}", d.dfa.to_pretty(&g));
    }

    /// Explicit EOF elements participate like any terminal.
    #[test]
    fn explicit_eof_element() {
        let (g, a) = analyze_src("grammar X; s : A EOF | A A EOF ; A:'a';");
        let d = rule_decision(&g, &a, "s");
        assert_eq!(d.dfa.classify(), DecisionClass::Fixed { k: 2 });
        let a_t = g.vocab.by_name("A").unwrap();
        let s1 = d.dfa.states[0].target(a_t).unwrap();
        assert!(d.dfa.states[s1].target(TokenType::EOF).is_some());
    }

    /// Analysis is fast enough to report timing.
    #[test]
    fn elapsed_is_recorded() {
        let (_, a) = analyze_src("grammar T; s : A | B ; A:'a'; B:'b';");
        assert!(a.elapsed.as_nanos() > 0);
    }

    /// Per-decision metrics count the construction work actually done.
    #[test]
    fn metrics_count_construction_work() {
        let (g, a) = analyze_src("grammar M; s : A X | A Y ; A:'a'; X:'x'; Y:'y';");
        let d = rule_decision(&g, &a, "s");
        let m = &d.metrics;
        assert_eq!(m.dfa_builds, 1);
        assert!(m.closure_calls > 0, "{m:?}");
        assert!(m.configs_created > 0, "{m:?}");
        // Construction-time states can exceed the minimized DFA, never
        // fall short of it.
        assert!(m.dfa_states as usize >= d.dfa.states.len(), "{m:?}");
        assert!(m.dfa_edges > 0, "{m:?}");
        assert!(m.resolve_calls > 0, "{m:?}");
        assert_eq!(m.fallback, None);
        assert_eq!(m.recursion_overflows, 0);

        let total = a.total_metrics();
        assert_eq!(total.dfa_builds, a.decisions.len() as u64);
        assert!(total.closure_calls >= m.closure_calls);
    }

    /// An LL(1) fallback is visible in the metrics: two builds, a reason.
    #[test]
    fn metrics_record_fallback_reason() {
        let g =
            parse_grammar("grammar N; s : a C | a D ; a : A a | B ; A:'a'; B:'b'; C:'c'; D:'d';")
                .unwrap();
        let a = analyze(&g);
        let d = rule_decision(&g, &a, "s");
        assert_eq!(d.metrics.fallback, Some(FallbackReason::NonLlRegular));
        assert_eq!(d.metrics.dfa_builds, 2, "aborted attempt + fallback build");
    }

    /// Metrics are deterministic: two identical runs agree exactly.
    #[test]
    fn metrics_are_deterministic() {
        let src = "grammar D2; options { backtrack = true; m = 1; } \
                   t : '-'* ID | expr ; expr : INT | '-' expr ; \
                   ID : [a-z]+ ; INT : [0-9]+ ; WS : [ ]+ -> skip ;";
        let (_, a1) = analyze_src(src);
        let (_, a2) = analyze_src(src);
        for (d1, d2) in a1.decisions.iter().zip(&a2.decisions) {
            assert_eq!(d1.metrics, d2.metrics, "decision {:?}", d1.decision);
        }
    }
}
