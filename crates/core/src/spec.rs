//! The specializing compiler — the program transformer that the
//! specializer projections produce from the two-level interpreter of
//! Fig. 7.
//!
//! A *specialization state* is ⟨E, ρ, σ, τ⟩: a serious expression of the
//! desugared subject program, an environment binding variables to value
//! descriptions, a binding of configuration variables to residual
//! expressions, and a stack of pending evaluation contexts.  The engine
//! evaluates statically whatever the descriptions decide and emits
//! residual S₀ code for the rest:
//!
//! * **memoization** — procedure calls, dynamic-conditional branches and
//!   The-Trick dispatch arms are *specialization points*: states equal up
//!   to renaming of configuration variables share one residual procedure
//!   `sl-eval-$n(cv-vals-$1 …)`;
//! * **The Trick** (§4.2) — applying an unknown closure dispatches over
//!   the flow analysis' candidate lambdas, comparing `closure-label`s
//!   sequentially, so the interpreted expression becomes static again in
//!   every arm;
//! * **generalization** (§4.5) — self-embedding descriptions are lifted
//!   to configuration variables either at dynamic conditionals (online)
//!   or at creation (offline, driven by [`GenAnalysis`]); a critical
//!   context stack is split into a static prefix and a dynamic rest, the
//!   latter an ordinary runtime list of closures.

use crate::desc::{CvId, DescShape, MissingCv, ValDesc};
use crate::{CompileAudit, Compiled};
use pe_flow::s0::{S0Proc, S0Program, S0Simple, S0Tail};
use pe_governor::Limits;
use pe_frontend::ast::{Constant, Prim};
use pe_frontend::dast::{DLabel, DProgram, LamId, SimpleExpr, TailExpr, VarId};
use pe_frontend::flow::{FlowAnalysis, LamSet};
use pe_frontend::gen_analysis::GenAnalysis;
use pe_intern::{FxHashMap, FxHashSet};
use pe_interp::Datum;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// When to generalize self-embedding data (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenStrategy {
    /// Delay until a dynamic conditional, then scan ρ and τ (less
    /// conservative; residual code unrolls loops at least once).
    Online,
    /// Generalize critical lambdas/cons sites at creation, guided by the
    /// offline [`GenAnalysis`].
    Offline,
}

/// Descriptions larger than this are generalized (safety valve, far
/// beyond anything the benchmark suite produces).
const MAX_DESC_SIZE: usize = 512;

/// Bounded-static-variation widening: when one variable slot of one
/// specialization point has been seen with more than this many distinct
/// fully static values, the slot is generalized from then on.  Catches
/// static data that *grows* under dynamic control (e.g. a counter
/// incremented around a dynamic loop), which the §4.5 self-embedding
/// test cannot see because base values have no creation sites.  Static
/// unfolding below the threshold (the specializer projections' use
/// case) is unaffected.
const WIDEN_THRESHOLD: usize = 40;

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Generalization strategy.
    pub strategy: GenStrategy,
    /// Run the residual post-processor (transition and return
    /// compression, inline-once, dead parameter elimination).
    pub postprocess: bool,
    /// Run the flow optimizer (copy/constant propagation, dead-binding
    /// elimination, dispatch-arm folding) over the residual program.
    pub flow: bool,
    /// Restrict The Trick's dispatch candidates with the flow analysis;
    /// `false` dispatches over every context lambda (the ablation).
    pub trick_flow: bool,
    /// Shared resource limits: `max_residual` bounds the residual
    /// procedure count and `max_unfold_depth` the static unfolding depth
    /// within one residual body.
    pub limits: Limits,
    /// Run the size-change termination analysis (`pe-sct`) before
    /// specializing: provably-divergent programs are refused with
    /// [`SpecError::SctDiverges`] before any fuel is spent, slots with
    /// provable structural descent skip variety tracking, and slots
    /// with provable in-situ growth are generalized eagerly instead of
    /// discovered at the widening cap.
    pub sct: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            strategy: GenStrategy::Offline,
            postprocess: true,
            flow: true,
            trick_flow: true,
            limits: Limits::default(),
            sct: true,
        }
    }
}

/// An error produced during specialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The entry procedure does not exist.
    NoSuchProc(String),
    /// Wrong number of static/dynamic argument slots for the entry.
    EntryArity { name: String, expected: usize, got: usize },
    /// The residual program exceeded `limits.max_residual`
    /// (specialization of a program that diverges on its static data).
    Budget { procs: usize },
    /// Static unfolding exceeded `limits.max_unfold_depth` (e.g. the Ω
    /// combinator, which also loops the paper's interpreter).
    DepthExceeded,
    /// Internal: a variable had no description (unreachable from the
    /// public API).
    UnboundVar(String),
    /// Internal: a specializer invariant failed — reported instead of
    /// panicking so embedders never lose their thread.
    Internal(String),
    /// The size-change termination analysis proved the program diverges
    /// on every input ([`CompileOptions::sct`]); specialization was
    /// refused before burning any fuel.  The trap is always
    /// [`pe_governor::Trap::StaticDivergence`].
    SctDiverges(pe_governor::Trap),
}

impl SpecError {
    /// True when specialization was stopped by a resource budget rather
    /// than a genuine error in the subject program.  Callers can fall
    /// back to interpreted execution in this case (the subject program
    /// may still terminate at run time even though specializing it does
    /// not).
    #[must_use]
    pub fn is_budget_exhaustion(&self) -> bool {
        matches!(self, SpecError::Budget { .. } | SpecError::DepthExceeded)
    }

    /// True when a caller with a runtime fallback should still try
    /// executing the subject program directly: budget exhaustion (the
    /// program may terminate at run time even though specializing it
    /// does not), and static-divergence rejects (the interpreter's own
    /// fuel then bounds the doomed run).
    #[must_use]
    pub fn is_degradable(&self) -> bool {
        self.is_budget_exhaustion() || matches!(self, SpecError::SctDiverges(_))
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoSuchProc(n) => write!(f, "no such procedure: {n}"),
            SpecError::EntryArity { name, expected, got } => {
                write!(f, "entry {name} expects {expected} argument slot(s), got {got}")
            }
            SpecError::Budget { procs } => {
                write!(f, "specialization exceeded the budget of {procs} residual procedures")
            }
            SpecError::DepthExceeded => write!(f, "static unfolding depth exceeded"),
            SpecError::UnboundVar(v) => write!(f, "internal: unbound {v}"),
            SpecError::Internal(m) => write!(f, "internal: {m}"),
            SpecError::SctDiverges(t) => {
                write!(f, "rejected by termination analysis: {t}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<MissingCv> for SpecError {
    fn from(e: MissingCv) -> Self {
        SpecError::Internal(e.to_string())
    }
}

/// The environment ρ: variables → value descriptions.
type Env = BTreeMap<VarId, ValDesc>;

/// σ: configuration variables → residual expressions.  Looked up on
/// every residualization, so the DoS-resistant default hasher is traded
/// for the Fx hash ([`pe_intern`] module docs explain why that is safe).
type Sigma = FxHashMap<CvId, S0Simple>;

/// The context stack τ, split into a static prefix (top at the end) and
/// an optional dynamic rest — a runtime list of closures, car = top.
#[derive(Debug, Clone, Default)]
struct CtxStack {
    prefix: Vec<ValDesc>,
    /// Always a `ValDesc::Cv` when present.
    dyn_rest: Option<ValDesc>,
}

/// Memoization key: a specialization state up to renaming of
/// configuration variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    label: DLabel,
    env: Vec<(VarId, DescShape)>,
    prefix: Vec<DescShape>,
    dyn_rest: Option<DescShape>,
}

struct PendingProc<'p> {
    name: String,
    params: Vec<String>,
    te: &'p TailExpr,
    env: Env,
    tau: CtxStack,
    sigma: Sigma,
}

/// A restorable image of the specializer's memo state, captured after a
/// successful [`Spec::run`] that asked for one and restored
/// into a fresh engine with [`Spec::with_snapshot`].
///
/// The snapshot turns the memo table from a per-compile scratchpad into
/// reusable service state: recompiling the **same entry** over the same
/// program replays entirely from the table (one memo hit, zero pending
/// work, byte-identical raw residual), and compiling a **different
/// entry** of the same program starts from every specialization point
/// the earlier run already produced, re-emitting its procedures instead
/// of re-specializing them.
///
/// Soundness rests on the memo keys: they name `DLabel`s and `VarId`s
/// of one desugared program, so a snapshot may only ever be restored
/// into a [`Spec`] over a [`DProgram`] desugared from *identical*
/// source with compatible options.  Callers (the pe-serve warm-start
/// index) enforce that with a content fingerprint; restoring a
/// snapshot across different programs is a logic error that this type
/// cannot detect.
#[derive(Debug, Clone, Default)]
pub struct MemoSnapshot {
    /// Each memoized point's residual procedure, by position.
    memo: FxHashMap<Key, usize>,
    /// Residual procedures emitted for the memoized points (everything
    /// except the entry wrapper), in emission order.
    procs: Vec<S0Proc>,
    next_cv: CvId,
    next_proc: u32,
    static_variety: FxHashMap<(DLabel, VarId), FxHashSet<Constant>>,
    widened: FxHashSet<(DLabel, VarId)>,
    prefix_variety: FxHashMap<DLabel, FxHashSet<Vec<DescShape>>>,
    widened_prefix: FxHashSet<DLabel>,
}

impl MemoSnapshot {
    /// Memoized specialization points in the snapshot.
    #[must_use]
    pub fn points(&self) -> usize {
        self.memo.len()
    }

    /// Residual procedures carried by the snapshot.
    #[must_use]
    pub fn procs(&self) -> usize {
        self.procs.len()
    }

    /// True when the snapshot carries no reusable state.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty() && self.procs.is_empty()
    }
}

/// Event totals from one specialization run.
///
/// The specializer bumps plain integers on its hot paths and flushes
/// them to a [`pe_trace::Sink`] once at the end of the run, so tracing
/// costs nothing per event — and the totals survive budget errors,
/// which is exactly when they are most interesting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpecCounters {
    /// Specialization-point memo lookups.
    pub memo_lookups: u64,
    /// Lookups answered from the memo table.
    pub memo_hits: u64,
    /// Lookups that created a new residual procedure.
    pub memo_misses: u64,
    /// `spec_tail` unfolding steps.
    pub unfold_steps: u64,
    /// Generalization firings (§4.5).
    pub generalizations: u64,
    /// Widening firings *discovered dynamically*: bounded-static-
    /// variation caps, prefix caps, and context-stack flushes at points
    /// the termination analysis did not flag.
    pub widenings: u64,
    /// Generalizations performed because the termination analysis
    /// pre-annotated the point: unbounded slots generalized on sight
    /// and stack flushes at statically anticipated labels.  With
    /// [`CompileOptions::sct`] off this is always zero — the same
    /// events then surface as `widenings`.
    pub eager_generalizations: u64,
    /// The-Trick dispatch expansions.
    pub trick_dispatches: u64,
    /// Total arms across all Trick dispatches.
    pub trick_arms: u64,
}

impl SpecCounters {
    /// Emits every non-zero total to `sink`.
    pub fn flush(&self, sink: &mut dyn pe_trace::Sink) {
        if !sink.enabled() {
            return;
        }
        use pe_trace::Counter;
        sink.counter(Counter::MemoLookups, self.memo_lookups);
        sink.counter(Counter::MemoHits, self.memo_hits);
        sink.counter(Counter::MemoMisses, self.memo_misses);
        sink.counter(Counter::UnfoldSteps, self.unfold_steps);
        sink.counter(Counter::Generalizations, self.generalizations);
        sink.counter(Counter::Widenings, self.widenings);
        sink.counter(Counter::EagerGeneralizations, self.eager_generalizations);
        sink.counter(Counter::TrickDispatches, self.trick_dispatches);
        sink.counter(Counter::TrickArms, self.trick_arms);
    }
}

/// What the dynamic control machinery did at one specialization point.
/// The ordered log of these is the audit trail that pass 7 of
/// `pe-verify` checks against the SCT verdict tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlKind {
    /// A bounded-static-variation slot cap fired — a dynamic discovery.
    SlotWiden,
    /// The context-prefix shape cap fired — a dynamic discovery.
    PrefixWiden,
    /// The context stack was flushed to its dynamic representation at a
    /// point the termination analysis had not flagged.
    StackFlush,
    /// A slot the termination analysis flagged unbounded was
    /// generalized on sight instead of tracked to the cap.
    SlotEager,
    /// A stack flush at a label the analysis marked as stack-growing:
    /// statically anticipated, not discovered.
    StackEager,
}

/// One entry of the specialization control log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlEvent {
    /// The `DLabel` of the subject-program point.
    pub label: u32,
    /// What happened there.
    pub kind: ControlKind,
    /// Source name of the variable, for slot events.
    pub var: Option<String>,
}

/// The specializer engine.
pub struct Spec<'p> {
    dp: &'p DProgram,
    flow: &'p FlowAnalysis,
    gen: &'p GenAnalysis,
    opts: CompileOptions,
    /// Each memoized point's residual procedure, by position: the
    /// `n`-th point specialized is `sl-eval-$n`, at position `n`, after
    /// the entry at 0.
    memo: FxHashMap<Key, usize>,
    pending: VecDeque<PendingProc<'p>>,
    done: Vec<S0Proc>,
    next_cv: CvId,
    next_proc: u32,
    /// Bounded-static-variation tracking: distinct fully static values
    /// seen per (point, variable), and slots already widened.
    static_variety: FxHashMap<(DLabel, VarId), FxHashSet<Constant>>,
    widened: FxHashSet<(DLabel, VarId)>,
    /// The same widening for the static context-stack prefix: distinct
    /// prefix shapes seen per point; a point that shows too many flushes
    /// its stack to the dynamic representation from then on.  Keyed by
    /// the structural shape vector itself — the previous implementation
    /// rendered a `format!("{:?}")` string per visit, allocating and
    /// hashing a long string at every specialization point.
    prefix_variety: FxHashMap<DLabel, FxHashSet<Vec<DescShape>>>,
    widened_prefix: FxHashSet<DLabel>,
    counters: SpecCounters,
    /// SCT verdict tables ([`Spec::with_sct`]): exempt slots skip
    /// variety tracking, unbounded slots generalize on sight, and stack
    /// flushes at annotated labels count as anticipated rather than
    /// discovered.
    sct: Option<pe_sct::Verdicts>,
    /// The control log — what widened or generalized, where.
    events: Vec<ControlEvent>,
    /// Per-residual-procedure cost rows `(name, ns, nodes)`, recorded
    /// as each procedure's body is produced when the run's sink is
    /// enabled, and flushed as `Event::Attr` rows by [`Spec::run`].
    /// Two clock reads per residual procedure — noise next to
    /// specializing one.
    attrs: Vec<(String, u64, u64)>,
}

impl<'p> Spec<'p> {
    /// Creates an engine over an analyzed program.
    pub fn new(
        dp: &'p DProgram,
        flow: &'p FlowAnalysis,
        gen: &'p GenAnalysis,
        opts: CompileOptions,
    ) -> Spec<'p> {
        Spec {
            dp,
            flow,
            gen,
            opts,
            memo: FxHashMap::default(),
            pending: VecDeque::new(),
            done: Vec::new(),
            next_cv: 0,
            next_proc: 0,
            static_variety: FxHashMap::default(),
            widened: FxHashSet::default(),
            prefix_variety: FxHashMap::default(),
            widened_prefix: FxHashSet::default(),
            counters: SpecCounters::default(),
            sct: None,
            events: Vec::new(),
            attrs: Vec::new(),
        }
    }

    /// Installs the size-change termination verdict tables (produced by
    /// `pe_sct::analyze` over the same program).  Without this the
    /// engine runs on purely dynamic control, as before the analysis
    /// existed.
    #[must_use]
    pub fn with_sct(mut self, verdicts: pe_sct::Verdicts) -> Spec<'p> {
        self.sct = Some(verdicts);
        self
    }

    /// Restores a [`MemoSnapshot`] captured from an earlier run over the
    /// *same* desugared program with the same options: the memo table,
    /// its residual procedures, the id counters, and the widening state
    /// all resume where that run left them.  A warm run that revisits a
    /// memoized point emits a call to the already-specialized procedure
    /// instead of specializing again.
    #[must_use]
    pub fn with_snapshot(mut self, snap: &MemoSnapshot) -> Spec<'p> {
        self.memo = snap.memo.clone();
        self.done = snap.procs.clone();
        self.next_cv = snap.next_cv;
        self.next_proc = snap.next_proc;
        self.static_variety = snap.static_variety.clone();
        self.widened = snap.widened.clone();
        self.prefix_variety = snap.prefix_variety.clone();
        self.widened_prefix = snap.widened_prefix.clone();
        self
    }

    fn fresh_cv(&mut self) -> CvId {
        let id = self.next_cv;
        self.next_cv += 1;
        id
    }

    /// Runs the engine on `entry`: with `slots = None` every parameter
    /// is dynamic (the paper's main mode: closure conversion + tail
    /// conversion + constant folding, residual entry named `entry`);
    /// with `Some(slots)` it specializes to the static slots — the
    /// first specializer projection, where `slots[i] = Some(v)` makes
    /// the i-th parameter static with value `v` and `None` keeps it a
    /// parameter of the residual entry `entry-$1`.
    ///
    /// The run's [`SpecCounters`] and per-residual-procedure cost rows
    /// flush to `sink` on success *and* on budget errors, where the
    /// totals explain what blew up.  The result carries the control log
    /// (the per-point record of widenings and eager generalizations
    /// that pass 7 of `pe-verify` audits) and the installed SCT
    /// verdicts in [`Compiled::audit`] — its `stats` are left for the
    /// caller that ran the analysis — and, when `snapshot` is set, a
    /// [`MemoSnapshot`] of the finished memo table.  The snapshot holds
    /// the *raw* residual procedures (pre-postprocess), because the
    /// memo names refer to them.
    ///
    /// # Errors
    ///
    /// See [`SpecError`].
    pub fn run(
        self,
        entry: &str,
        slots: Option<&[Option<Datum>]>,
        snapshot: bool,
        sink: &mut dyn pe_trace::Sink,
    ) -> Result<Compiled, SpecError> {
        self.run_attributed(entry, slots, snapshot, sink).0
    }

    /// [`Spec::run`], also returning the nanoseconds its per-procedure
    /// cost rows attribute (0 when `sink` is disabled).
    pub(crate) fn run_attributed(
        mut self,
        entry: &str,
        slots: Option<&[Option<Datum>]>,
        snapshot: bool,
        sink: &mut dyn pe_trace::Sink,
    ) -> (Result<Compiled, SpecError>, u64) {
        let r = self.run_entry(entry, slots, sink.enabled());
        self.counters.flush(sink);
        let mut attributed = 0u64;
        for (name, ns, nodes) in &self.attrs {
            sink.attr(pe_trace::Phase::Specialize, name, *ns, *nodes);
            attributed = attributed.saturating_add(*ns);
        }
        let program = match r {
            Ok(program) => program,
            Err(e) => return (Err(e), attributed),
        };
        let snapshot = snapshot.then(|| MemoSnapshot {
            memo: std::mem::take(&mut self.memo),
            // Everything but the entry wrapper: those are the procedures
            // the memo table's values name.
            procs: program.procs[1..].to_vec(),
            next_cv: self.next_cv,
            next_proc: self.next_proc,
            static_variety: std::mem::take(&mut self.static_variety),
            widened: std::mem::take(&mut self.widened),
            prefix_variety: std::mem::take(&mut self.prefix_variety),
            widened_prefix: std::mem::take(&mut self.widened_prefix),
        });
        let audit = CompileAudit {
            enabled: self.sct.is_some(),
            verdicts: self.sct.unwrap_or_default(),
            stats: pe_sct::SctStats::default(),
            events: self.events,
        };
        (Ok(Compiled { program, audit, snapshot, labels: None }), attributed)
    }

    /// [`Spec::run`] with every parameter dynamic, returning the program
    /// and the control log.
    ///
    /// # Errors
    ///
    /// See [`SpecError`].
    pub fn compile_audited_with(
        self,
        entry: &str,
        sink: &mut dyn pe_trace::Sink,
    ) -> Result<(S0Program, Vec<ControlEvent>), SpecError> {
        self.run(entry, None, false, sink).map(|c| (c.program, c.audit.events))
    }

    /// Specializes `entry` (see [`Spec::run`]), recording a cost row per
    /// residual procedure when `timed`.
    fn run_entry(
        &mut self,
        entry: &str,
        slots: Option<&[Option<Datum>]>,
        timed: bool,
    ) -> Result<S0Program, SpecError> {
        let pid = self
            .dp
            .proc_id(entry)
            .ok_or_else(|| SpecError::NoSuchProc(entry.to_string()))?;
        let def = self.dp.proc(pid);
        let all_dynamic;
        let (slots, residual_name) = match slots {
            Some(slots) => (slots, format!("{entry}-$1")),
            None => {
                all_dynamic = vec![None; def.params.len()];
                (all_dynamic.as_slice(), entry.to_string())
            }
        };
        if def.params.len() != slots.len() {
            return Err(SpecError::EntryArity {
                name: entry.to_string(),
                expected: def.params.len(),
                got: slots.len(),
            });
        }
        let mut env = Env::new();
        let mut sigma = Sigma::default();
        let mut params = Vec::new();
        for (&param, slot) in def.params.iter().zip(slots) {
            match slot {
                Some(v) => {
                    env.insert(param, ValDesc::Quote(datum_to_constant(v)));
                }
                None => {
                    let cv = self.fresh_cv();
                    let name = unique_param_name(&self.dp.var_names[param.0 as usize], &params);
                    sigma.insert(cv, S0Simple::Var(params.len()));
                    params.push(name);
                    env.insert(
                        param,
                        ValDesc::Cv { id: cv, cands: self.flow.var_lambdas(param) },
                    );
                }
            }
        }
        // Going through spec_point registers the entry state in the memo
        // table, so a self-recursive entry reuses one residual procedure
        // (post-processing then merges the trampoline away).
        let t0 = timed.then(std::time::Instant::now);
        let body =
            self.spec_point(&def.body, &env, &CtxStack::default(), &mut sigma)?;
        let entry_proc = S0Proc { name: residual_name, params, body };
        self.record_attr(t0, &entry_proc);
        let mut procs = vec![entry_proc];
        while let Some(p) = self.pending.pop_front() {
            if procs.len() + self.done.len() >= self.opts.limits.max_residual {
                return Err(SpecError::Budget { procs: self.opts.limits.max_residual });
            }
            let t0 = timed.then(std::time::Instant::now);
            let mut sigma = p.sigma;
            let body = self.spec_tail(p.te, p.env, p.tau, &mut sigma, 0)?;
            let proc = S0Proc { name: p.name, params: p.params, body };
            self.record_attr(t0, &proc);
            self.done.push(proc);
        }
        procs.append(&mut self.done);
        Ok(S0Program { procs, entry: 0 })
    }

    /// Records `proc`'s cost row when its specialization was timed.
    fn record_attr(&mut self, t0: Option<std::time::Instant>, proc: &S0Proc) {
        if let Some(t0) = t0 {
            self.attrs.push((proc.name.clone(), elapsed_ns(t0), proc.size() as u64));
        }
    }

    // ------------------------------------------------------------------
    // E⋆ — serious expressions
    // ------------------------------------------------------------------

    fn spec_tail(
        &mut self,
        te: &'p TailExpr,
        mut env: Env,
        mut tau: CtxStack,
        sigma: &mut Sigma,
        depth: usize,
    ) -> Result<S0Tail, SpecError> {
        if depth > self.opts.limits.max_unfold_depth {
            return Err(SpecError::DepthExceeded);
        }
        self.counters.unfold_steps += 1;
        match te {
            TailExpr::Simple(se) => {
                let d = self.spec_simple(se, &env, sigma)?;
                self.apply_ctx(d, tau, sigma, depth)
            }
            TailExpr::If(l, c, t, e) => {
                let d = self.spec_simple(c, &env, sigma)?;
                match d.truthiness() {
                    Some(true) => self.spec_tail(t, env, tau, sigma, depth + 1),
                    Some(false) => self.spec_tail(e, env, tau, sigma, depth + 1),
                    None => {
                        // The online strategy's moment: scan ρ and τ for
                        // critical data before residualizing the
                        // conditional.  (Run in both modes; offline has
                        // already generalized at creation, so this is a
                        // cheap no-op backstop there.)
                        self.generalize_state(&mut env, &mut tau, sigma, l.0)?;
                        let cond = d.residualize(sigma)?;
                        let tcall = self.spec_point(t, &env, &tau, sigma)?;
                        let ecall = self.spec_point(e, &env, &tau, sigma)?;
                        Ok(S0Tail::If(cond, Box::new(tcall), Box::new(ecall)))
                    }
                }
            }
            TailExpr::CallProc(_, pid, args) => {
                let def = self.dp.proc(*pid);
                let mut callee = Env::new();
                for (&param, arg) in def.params.iter().zip(args) {
                    let d = self.spec_simple(arg, &env, sigma)?;
                    callee.insert(param, d);
                }
                Ok(self.spec_point(&def.body, &callee, &tau, sigma)?)
            }
            TailExpr::PushApp(l, ctx, body) => {
                let d = self.spec_simple(ctx, &env, sigma)?;
                // Offline stack rule: pushing a context that may be a
                // stack-critical lambda flushes τ to a dynamic list.
                let critical = self.opts.strategy == GenStrategy::Offline
                    && !d.is_fully_static()
                    && d.closure_candidates()
                        .iter()
                        .any(|l| self.gen.lam_is_critical(l));
                tau.prefix.push(d);
                if critical {
                    self.flush_stack(&mut tau, sigma, l.0)?;
                }
                self.spec_tail(body, env, tau, sigma, depth + 1)
            }
        }
    }

    // ------------------------------------------------------------------
    // C — context application
    // ------------------------------------------------------------------

    fn apply_ctx(
        &mut self,
        value: ValDesc,
        mut tau: CtxStack,
        sigma: &mut Sigma,
        depth: usize,
    ) -> Result<S0Tail, SpecError> {
        if depth > self.opts.limits.max_unfold_depth {
            return Err(SpecError::DepthExceeded);
        }
        if let Some(ctx) = tau.prefix.pop() {
            return match ctx {
                ValDesc::Clos { lam, freevals } => {
                    let def = self.dp.lambda(lam);
                    let mut env = Env::new();
                    env.insert(def.param, value);
                    for (&fv, d) in def.freevars.iter().zip(freevals) {
                        env.insert(fv, d);
                    }
                    self.spec_tail(&def.body, env, tau, sigma, depth + 1)
                }
                ValDesc::Cv { id, cands } => {
                    let ctx_expr = sigma.get(&id).cloned().ok_or(MissingCv(id))?;
                    self.trick_dispatch(ctx_expr, &cands, value, tau, sigma)
                }
                ValDesc::Quote(_) | ValDesc::Cons { .. } => {
                    Ok(S0Tail::Fail("application of a non-procedure".to_string()))
                }
            };
        }
        if let Some(ValDesc::Cv { id, cands }) = tau.dyn_rest.clone() {
            // Pop from the dynamic context stack: an ordinary list.
            let stack_expr = sigma.get(&id).cloned().ok_or(MissingCv(id))?;
            let ctx_cv = self.fresh_cv();
            sigma.insert(ctx_cv, S0Simple::Prim(Prim::Car, vec![stack_expr.clone()]));
            let rest_cv = self.fresh_cv();
            sigma.insert(rest_cv, S0Simple::Prim(Prim::Cdr, vec![stack_expr.clone()]));
            let tau2 = CtxStack {
                prefix: Vec::new(),
                dyn_rest: Some(ValDesc::Cv { id: rest_cv, cands: cands.clone() }),
            };
            let ctx_expr = sigma[&ctx_cv].clone();
            let dispatch = self.trick_dispatch(ctx_expr, &cands, value.clone(), tau2, sigma)?;
            return Ok(S0Tail::If(
                S0Simple::Prim(Prim::NullP, vec![stack_expr]),
                Box::new(S0Tail::Return(value.residualize(sigma)?)),
                Box::new(dispatch),
            ));
        }
        Ok(S0Tail::Return(value.residualize(sigma)?))
    }

    /// The Trick: a sequential dispatch over candidate lambdas,
    /// comparing `closure-label`s, each arm continuing with the now
    /// static lambda body (a memoized specialization point).
    fn trick_dispatch(
        &mut self,
        ctx_expr: S0Simple,
        cands: &LamSet,
        value: ValDesc,
        tau: CtxStack,
        sigma: &mut Sigma,
    ) -> Result<S0Tail, SpecError> {
        let list: Vec<LamId> = cands.iter().collect();
        if list.is_empty() {
            return Ok(S0Tail::Fail("application of a non-procedure".to_string()));
        }
        self.counters.trick_dispatches += 1;
        self.counters.trick_arms += list.len() as u64;
        let mut out: Option<S0Tail> = None;
        // Build from the last candidate backwards; the final candidate
        // needs no test (sequential dispatch, as in the paper's output).
        for (i, &lam) in list.iter().enumerate().rev() {
            let arm = self.trick_arm(lam, &ctx_expr, value.clone(), tau.clone(), sigma)?;
            out = Some(match out {
                None => arm,
                Some(rest) => S0Tail::If(
                    S0Simple::Prim(
                        Prim::EqualP,
                        vec![
                            S0Simple::Const(Constant::Int(i64::from(lam.0))),
                            S0Simple::ClosureLabel(Box::new(ctx_expr.clone())),
                        ],
                    ),
                    Box::new(arm),
                    Box::new(rest),
                ),
            });
            let _ = i;
        }
        // `list` is non-empty (checked above), so the fold produced an arm.
        out.ok_or_else(|| SpecError::Internal("empty dispatch chain".to_string()))
    }

    fn trick_arm(
        &mut self,
        lam: LamId,
        ctx_expr: &S0Simple,
        value: ValDesc,
        tau: CtxStack,
        sigma: &mut Sigma,
    ) -> Result<S0Tail, SpecError> {
        // A dynamic dispatch is dynamic control: a value flowing through
        // it could enumerate every value the program can compute (list
        // shapes via cons, counters via folded arithmetic), so it is
        // generalized here — the arm's memo key must stay finite.  A
        // constant still appears literally in the residual call's
        // argument, so no code quality is lost; static data keeps
        // propagating through procedure calls and *static* context
        // applications, which is where the specializer projections act.
        let value = match &value {
            ValDesc::Cv { .. } => value,
            _ => self.generalize(value, sigma)?,
        };
        let def = self.dp.lambda(lam);
        let mut env = Env::new();
        env.insert(def.param, value);
        for (i, &fv) in def.freevars.iter().enumerate() {
            let cv = self.fresh_cv();
            sigma.insert(
                cv,
                S0Simple::ClosureFreeval(Box::new(ctx_expr.clone()), i),
            );
            env.insert(fv, ValDesc::Cv { id: cv, cands: self.fv_cands(fv) });
        }
        self.spec_point(&def.body, &env, &tau, sigma)
    }

    fn fv_cands(&self, v: VarId) -> LamSet {
        if self.opts.trick_flow {
            self.flow.var_lambdas(v)
        } else {
            self.all_lams()
        }
    }

    fn all_lams(&self) -> LamSet {
        (0..self.dp.lambdas.len() as u32).map(LamId).collect()
    }

    // ------------------------------------------------------------------
    // Specialization points (memoization)
    // ------------------------------------------------------------------

    fn spec_point(
        &mut self,
        te: &'p TailExpr,
        env: &Env,
        tau: &CtxStack,
        sigma: &mut Sigma,
    ) -> Result<S0Tail, SpecError> {
        // Bounded-static-variation widening for the context stack: a
        // specialization point whose static prefix keeps changing shape
        // (distinct context combinations under dynamic control) switches
        // to the dynamic stack representation — the prefix contents
        // still appear, as residual make-closure/cons code.
        let mut tau = tau.clone();
        {
            let label = te.label();
            if self.widened_prefix.contains(&label) {
                self.flush_stack(&mut tau, sigma, label.0)?;
            } else if !tau.prefix.is_empty() {
                let mut idx: FxHashMap<CvId, u32> = FxHashMap::default();
                let mut next = 0u32;
                let mut cvs = Vec::new();
                for d in &tau.prefix {
                    d.collect_cvs(&mut cvs);
                }
                for cv in cvs {
                    idx.entry(cv).or_insert_with(|| {
                        next += 1;
                        next - 1
                    });
                }
                let shape: Vec<DescShape> = tau.prefix.iter().map(|d| d.shape(&idx)).collect();
                let seen = self.prefix_variety.entry(label).or_default();
                seen.insert(shape);
                if seen.len() > WIDEN_THRESHOLD {
                    self.widened_prefix.insert(label);
                    self.counters.widenings += 1;
                    self.events.push(ControlEvent {
                        label: label.0,
                        kind: ControlKind::PrefixWiden,
                        var: None,
                    });
                    self.flush_stack(&mut tau, sigma, label.0)?;
                }
            }
        }
        let tau = &tau;
        // Restrict ρ to the free variables of the target expression.
        let mut live = BTreeSet::new();
        pe_frontend::dast::free_tail(self.dp, te, &mut live);
        let mut env_live: Vec<(VarId, ValDesc)> = env
            .iter()
            .filter(|(v, _)| live.contains(v))
            .map(|(v, d)| (*v, d.clone()))
            .collect();
        // Bounded-static-variation widening (see CompileOptions),
        // short-circuited in both directions by the SCT verdict tables:
        // slots with provable structural descent need no variety
        // tracking at all, and slots with provable in-situ growth are
        // generalized on first sight instead of at the cap.
        let label = te.label();
        for (v, d) in &mut env_live {
            let slot = (label, *v);
            if self.widened.contains(&slot) {
                if !matches!(d, ValDesc::Cv { .. }) {
                    *d = self.generalize(d.clone(), sigma)?;
                }
                continue;
            }
            if self.sct.as_ref().is_some_and(|s| s.exempt_vars.contains(v)) {
                continue;
            }
            if self.sct.as_ref().is_some_and(|s| s.eager_vars.contains(v)) {
                if d.as_constant().is_some() {
                    self.widened.insert(slot);
                    self.counters.eager_generalizations += 1;
                    self.events.push(ControlEvent {
                        label: label.0,
                        kind: ControlKind::SlotEager,
                        var: Some(self.dp.var_name(*v)),
                    });
                    *d = self.generalize(d.clone(), sigma)?;
                }
                continue;
            }
            if let Some(k) = d.as_constant() {
                let seen = self.static_variety.entry(slot).or_default();
                seen.insert(k);
                if seen.len() > WIDEN_THRESHOLD {
                    self.widened.insert(slot);
                    self.counters.widenings += 1;
                    self.events.push(ControlEvent {
                        label: label.0,
                        kind: ControlKind::SlotWiden,
                        var: Some(self.dp.var_name(*v)),
                    });
                    *d = self.generalize(d.clone(), sigma)?;
                }
            }
        }

        // Canonical numbering of configuration variables by first
        // occurrence across ρ (in VarId order), then τ.
        let mut order: Vec<CvId> = Vec::new();
        for (_, d) in &env_live {
            d.collect_cvs(&mut order);
        }
        for d in &tau.prefix {
            d.collect_cvs(&mut order);
        }
        if let Some(d) = &tau.dyn_rest {
            d.collect_cvs(&mut order);
        }
        let index: FxHashMap<CvId, u32> =
            order.iter().enumerate().map(|(i, &cv)| (cv, i as u32)).collect();
        let key = Key {
            label,
            env: env_live.iter().map(|(v, d)| (*v, d.shape(&index))).collect(),
            prefix: tau.prefix.iter().map(|d| d.shape(&index)).collect(),
            dyn_rest: tau.dyn_rest.as_ref().map(|d| d.shape(&index)),
        };
        let args: Vec<S0Simple> = order
            .iter()
            .map(|cv| sigma.get(cv).cloned().ok_or(MissingCv(*cv)))
            .collect::<Result<_, _>>()?;
        self.counters.memo_lookups += 1;
        if let Some(&at) = self.memo.get(&key) {
            self.counters.memo_hits += 1;
            return Ok(S0Tail::TailCall(at, args));
        }
        self.counters.memo_misses += 1;
        self.next_proc += 1;
        let at = self.next_proc as usize;
        let name = format!("sl-eval-${at}");
        if std::env::var("PE_SPEC_DEBUG").is_ok() {
            eprintln!("[spec] {name} label={:?} params={} key={:?}", key.label, order.len(), key);
        }
        self.memo.insert(key, at);
        if self.memo.len() > self.opts.limits.max_residual {
            return Err(SpecError::Budget { procs: self.opts.limits.max_residual });
        }

        // Rename the state's cvs to fresh ones bound to the residual
        // procedure's parameters.
        let mut rename: FxHashMap<CvId, CvId> = FxHashMap::default();
        let mut new_sigma = Sigma::default();
        let mut params = Vec::new();
        for (i, &old) in order.iter().enumerate() {
            let fresh = self.fresh_cv();
            rename.insert(old, fresh);
            new_sigma.insert(fresh, S0Simple::Var(i));
            params.push(format!("cv-vals-${}", i + 1));
        }
        let new_env: Env = env_live
            .iter()
            .map(|(v, d)| Ok((*v, d.rename_cvs(&rename)?)))
            .collect::<Result<_, MissingCv>>()?;
        let new_tau = CtxStack {
            prefix: tau
                .prefix
                .iter()
                .map(|d| d.rename_cvs(&rename))
                .collect::<Result<_, _>>()?,
            dyn_rest: tau.dyn_rest.as_ref().map(|d| d.rename_cvs(&rename)).transpose()?,
        };
        self.pending.push_back(PendingProc {
            name,
            params,
            te,
            env: new_env,
            tau: new_tau,
            sigma: new_sigma,
        });
        Ok(S0Tail::TailCall(at, args))
    }

    // ------------------------------------------------------------------
    // S⋆ — simple expressions over descriptions
    // ------------------------------------------------------------------

    fn spec_simple(
        &mut self,
        se: &SimpleExpr,
        env: &Env,
        sigma: &mut Sigma,
    ) -> Result<ValDesc, SpecError> {
        match se {
            SimpleExpr::Var(_, v) => env
                .get(v)
                .cloned()
                .ok_or_else(|| SpecError::UnboundVar(self.dp.var_name(*v))),
            SimpleExpr::Const(_, k) => Ok(ValDesc::Quote(k.clone())),
            SimpleExpr::Lambda(_, id) => {
                let def = self.dp.lambda(*id);
                let freevals = def
                    .freevars
                    .iter()
                    .map(|fv| {
                        env.get(fv)
                            .cloned()
                            .ok_or_else(|| SpecError::UnboundVar(self.dp.var_name(*fv)))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let d = ValDesc::Clos { lam: *id, freevals };
                // Fully static closures cannot grow under dynamic
                // control; keeping them static preserves the specializer
                // projections' power on static inputs.
                let must_gen = (self.opts.strategy == GenStrategy::Offline
                    && self.gen.lam_is_critical(*id)
                    && !d.is_fully_static())
                    || d.size() > MAX_DESC_SIZE;
                if must_gen { self.generalize(d, sigma) } else { Ok(d) }
            }
            SimpleExpr::Prim(l, op, args) => {
                let descs = args
                    .iter()
                    .map(|a| self.spec_simple(a, env, sigma))
                    .collect::<Result<Vec<_>, _>>()?;
                self.prim_on_descs(l.0, *op, descs, se, sigma)
            }
        }
    }

    /// `S⋆` on primitives: reduce statically when the descriptions allow
    /// it (including the paper's "null? on cons descriptions with dynamic
    /// components" case), otherwise bind a fresh configuration variable
    /// to the rebuilt expression.
    fn prim_on_descs(
        &mut self,
        site: u32,
        op: Prim,
        descs: Vec<ValDesc>,
        se: &SimpleExpr,
        sigma: &mut Sigma,
    ) -> Result<ValDesc, SpecError> {
        use Prim::*;
        let quote_bool = |b: bool| Ok(ValDesc::Quote(Constant::Bool(b)));
        match op {
            Cons => {
                let d = ValDesc::Cons {
                    site,
                    car: Arc::new(descs[0].clone()),
                    cdr: Arc::new(descs[1].clone()),
                };
                // Keep the creation site even for fully static pairs: the
                // §4.5 self-embedding test needs it to spot values that
                // grow across dynamic dispatch (quote-collapsing here
                // makes specialization of e.g. deriv diverge).
                let must_gen = (self.opts.strategy == GenStrategy::Offline
                    && self.gen.cons_is_critical(site))
                    || d.size() > MAX_DESC_SIZE;
                if must_gen {
                    self.generalize(d, sigma)
                } else {
                    Ok(d)
                }
            }
            Car => match &descs[0] {
                ValDesc::Cons { car, .. } => Ok((**car).clone()),
                ValDesc::Quote(Constant::Pair(a, _)) => Ok(ValDesc::Quote((**a).clone())),
                _ => self.dynamic_prim(op, descs, se, sigma),
            },
            Cdr => match &descs[0] {
                ValDesc::Cons { cdr, .. } => Ok((**cdr).clone()),
                ValDesc::Quote(Constant::Pair(_, d)) => Ok(ValDesc::Quote((**d).clone())),
                _ => self.dynamic_prim(op, descs, se, sigma),
            },
            NullP => match &descs[0] {
                ValDesc::Quote(Constant::Nil) => quote_bool(true),
                ValDesc::Quote(_) | ValDesc::Cons { .. } | ValDesc::Clos { .. } => {
                    quote_bool(false)
                }
                ValDesc::Cv { .. } => self.dynamic_prim(op, descs, se, sigma),
            },
            PairP => match &descs[0] {
                ValDesc::Cons { .. } | ValDesc::Quote(Constant::Pair(_, _)) => quote_bool(true),
                ValDesc::Quote(_) | ValDesc::Clos { .. } => quote_bool(false),
                ValDesc::Cv { .. } => self.dynamic_prim(op, descs, se, sigma),
            },
            Not => match descs[0].truthiness() {
                Some(b) => quote_bool(!b),
                None => self.dynamic_prim(op, descs, se, sigma),
            },
            SymbolP | NumberP | BooleanP => match &descs[0] {
                ValDesc::Quote(k) => quote_bool(match op {
                    SymbolP => matches!(k, Constant::Sym(_)),
                    NumberP => matches!(k, Constant::Int(_)),
                    _ => matches!(k, Constant::Bool(_)),
                }),
                ValDesc::Cons { .. } | ValDesc::Clos { .. } => quote_bool(false),
                ValDesc::Cv { .. } => self.dynamic_prim(op, descs, se, sigma),
            },
            EqualP => match (descs[0].as_constant(), descs[1].as_constant()) {
                (Some(a), Some(b)) => quote_bool(a == b),
                _ => self.dynamic_prim(op, descs, se, sigma),
            },
            EqP | EqvP => match (&descs[0], &descs[1]) {
                // Only atoms fold: runtime eq? on pairs is identity, which
                // compile time must not guess.
                (ValDesc::Quote(a), ValDesc::Quote(b))
                    if !matches!(a, Constant::Pair(_, _))
                        && !matches!(b, Constant::Pair(_, _)) =>
                {
                    quote_bool(a == b)
                }
                _ => self.dynamic_prim(op, descs, se, sigma),
            },
            Add | Sub | Mul | Quotient | Remainder | NumEq | Lt | Gt | Le | Ge => {
                match (&descs[0], &descs[1]) {
                    (ValDesc::Quote(Constant::Int(a)), ValDesc::Quote(Constant::Int(b))) => {
                        match fold_arith(op, *a, *b) {
                            Some(k) => Ok(ValDesc::Quote(k)),
                            // Overflow / division by zero: leave it to the
                            // runtime, faithfully.
                            None => self.dynamic_prim(op, descs, se, sigma),
                        }
                    }
                    _ => self.dynamic_prim(op, descs, se, sigma),
                }
            }
            ZeroP | Add1 | Sub1 => match &descs[0] {
                ValDesc::Quote(Constant::Int(n)) => match op {
                    ZeroP => quote_bool(*n == 0),
                    Add1 => match n.checked_add(1) {
                        Some(m) => Ok(ValDesc::Quote(Constant::Int(m))),
                        None => self.dynamic_prim(op, descs, se, sigma),
                    },
                    _ => match n.checked_sub(1) {
                        Some(m) => Ok(ValDesc::Quote(Constant::Int(m))),
                        None => self.dynamic_prim(op, descs, se, sigma),
                    },
                },
                _ => self.dynamic_prim(op, descs, se, sigma),
            },
        }
    }

    fn dynamic_prim(
        &mut self,
        op: Prim,
        descs: Vec<ValDesc>,
        se: &SimpleExpr,
        sigma: &mut Sigma,
    ) -> Result<ValDesc, SpecError> {
        let expr = S0Simple::Prim(
            op,
            descs
                .iter()
                .map(|d| d.residualize(sigma))
                .collect::<Result<_, _>>()?,
        );
        let cv = self.fresh_cv();
        sigma.insert(cv, expr);
        let cands = if self.opts.trick_flow { self.flow.lambdas_of(se) } else { self.all_lams() };
        Ok(ValDesc::Cv { id: cv, cands })
    }

    // ------------------------------------------------------------------
    // Generalization (§4.5)
    // ------------------------------------------------------------------

    /// Lifts a description to a fresh configuration variable whose
    /// runtime value is the `D[·]`-lifted residual expression.
    fn generalize(&mut self, d: ValDesc, sigma: &mut Sigma) -> Result<ValDesc, SpecError> {
        self.counters.generalizations += 1;
        let expr = d.residualize(sigma)?;
        let cv = self.fresh_cv();
        sigma.insert(cv, expr);
        Ok(ValDesc::Cv { id: cv, cands: d.closure_candidates() })
    }

    /// The online scan at a dynamic conditional: generalize
    /// self-embedding descriptions in ρ and τ, and split the stack when
    /// its static spine shows repetition.
    fn generalize_state(
        &mut self,
        env: &mut Env,
        tau: &mut CtxStack,
        sigma: &mut Sigma,
        label: u32,
    ) -> Result<(), SpecError> {
        let vars: Vec<VarId> = env.keys().copied().collect();
        for v in vars {
            let d = env[&v].clone();
            if d.is_self_embedding() || d.size() > MAX_DESC_SIZE {
                let g = self.generalize(d, sigma)?;
                env.insert(v, g);
            }
        }
        for i in 0..tau.prefix.len() {
            let d = tau.prefix[i].clone();
            if d.is_self_embedding() || d.size() > MAX_DESC_SIZE {
                tau.prefix[i] = self.generalize(d, sigma)?;
            }
        }
        // Spine repetition: the same lambda pushed twice, or unknown
        // contexts piling on a stack that already has a dynamic rest.
        let mut seen: BTreeSet<LamId> = BTreeSet::new();
        let mut cv_count = 0usize;
        let mut repeat = false;
        for d in &tau.prefix {
            match d {
                ValDesc::Clos { lam, .. } if !seen.insert(*lam) => repeat = true,
                ValDesc::Clos { .. } => {}
                ValDesc::Cv { .. } => {
                    cv_count += 1;
                    if cv_count > 1 || tau.dyn_rest.is_some() {
                        repeat = true;
                    }
                }
                _ => {}
            }
        }
        if repeat {
            self.flush_stack(tau, sigma, label)?;
        }
        Ok(())
    }

    /// Moves the whole static prefix onto the dynamic context stack — an
    /// ordinary runtime list of closures, top at the car, terminated by
    /// the previous dynamic rest or `'()` (the halt context).
    fn flush_stack(
        &mut self,
        tau: &mut CtxStack,
        sigma: &mut Sigma,
        label: u32,
    ) -> Result<(), SpecError> {
        if tau.prefix.is_empty() && tau.dyn_rest.is_some() {
            return Ok(());
        }
        // A flush changes the stack representation from fully static to
        // the dynamic runtime list for good.  When the termination
        // analysis marked this label as stack-growing the flush was
        // statically anticipated — an eager generalization; otherwise
        // the dynamic machinery discovered it — a widening.
        if self.sct.as_ref().is_some_and(|s| s.on_stack(label)) {
            self.counters.eager_generalizations += 1;
            self.events.push(ControlEvent {
                label,
                kind: ControlKind::StackEager,
                var: None,
            });
        } else {
            self.counters.widenings += 1;
            self.events.push(ControlEvent {
                label,
                kind: ControlKind::StackFlush,
                var: None,
            });
        }
        let mut expr = match &tau.dyn_rest {
            Some(d) => d.residualize(sigma)?,
            None => S0Simple::Const(Constant::Nil),
        };
        let mut cands = match &tau.dyn_rest {
            Some(ValDesc::Cv { cands, .. }) => cands.clone(),
            _ => LamSet::new(),
        };
        for d in tau.prefix.drain(..) {
            cands = cands.union(&d.closure_candidates());
            expr = S0Simple::Prim(Prim::Cons, vec![d.residualize(sigma)?, expr]);
        }
        // Every lambda that may ever be pushed can be on the stack once
        // it is dynamic (pops lose the per-element provenance).
        cands = cands.union(&self.gen.stack_candidates);
        let cv = self.fresh_cv();
        sigma.insert(cv, expr);
        tau.dyn_rest = Some(ValDesc::Cv { id: cv, cands });
        Ok(())
    }
}

fn elapsed_ns(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn fold_arith(op: Prim, a: i64, b: i64) -> Option<Constant> {
    use Prim::*;
    Some(match op {
        Add => Constant::Int(a.checked_add(b)?),
        Sub => Constant::Int(a.checked_sub(b)?),
        Mul => Constant::Int(a.checked_mul(b)?),
        Quotient => {
            if b == 0 {
                return None;
            }
            Constant::Int(a.checked_div(b)?)
        }
        Remainder => {
            if b == 0 {
                return None;
            }
            Constant::Int(a.checked_rem(b)?)
        }
        NumEq => Constant::Bool(a == b),
        Lt => Constant::Bool(a < b),
        Gt => Constant::Bool(a > b),
        Le => Constant::Bool(a <= b),
        Ge => Constant::Bool(a >= b),
        _ => return None,
    })
}

fn datum_to_constant(d: &Datum) -> Constant {
    match d {
        Datum::Int(n) => Constant::Int(*n),
        Datum::Bool(b) => Constant::Bool(*b),
        Datum::Char(c) => Constant::Char(*c),
        Datum::Str(s) => Constant::Str(s.clone()),
        Datum::Sym(s) => Constant::Sym(s.clone()),
        Datum::Nil => Constant::Nil,
        Datum::Pair(p) => Constant::Pair(
            Arc::new(datum_to_constant(&p.0)),
            Arc::new(datum_to_constant(&p.1)),
        ),
        Datum::Closure(c) => match *c {},
    }
}

/// Makes an entry parameter name unique among already chosen ones,
/// stripping the `%` of generated temporaries.
fn unique_param_name(base: &str, taken: &[String]) -> String {
    let base = base.replace('%', "t");
    if !taken.contains(&base) {
        return base;
    }
    let mut i = 2;
    loop {
        let cand = format!("{base}{i}");
        if !taken.contains(&cand) {
            return cand;
        }
        i += 1;
    }
}
