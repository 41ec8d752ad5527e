//! Residual-program optimization: syntactic post-processing plus the
//! flow-based passes.
//!
//! Unmix's post-processor performs post-unfolding and arity raising; the
//! equivalents on S₀ are:
//!
//! * **reachability** — drop procedures never called from the entry;
//! * **transition and return compression** — a procedure whose body is
//!   a single tail call or a single return is inlined everywhere, one
//!   rewrite chasing trampoline chains into a returner (classic Mix);
//! * **inline-once** — a non-recursive procedure with exactly one call
//!   site is inlined there (post-unfolding);
//! * **dead-parameter elimination** — now driven by the interprocedural
//!   liveness fixpoint in [`crate::liveness`], which also kills
//!   parameters that merely circulate through recursive calls.
//!
//! On top of the syntactic fixpoint, [`optimize`] runs the
//! dataflow passes — copy/constant propagation ([`crate::constprop`]),
//! dispatch-arm folding ([`crate::slots`], one label analysis per
//! round), dead-binding elimination — interleaved with clean-up rounds
//! until nothing changes, reporting a [`FlowStats`] for the trace
//! counters.
//!
//! All passes iterate to a fixpoint.  Inlining in S₀ is sound by
//! construction: bodies only reference their own parameters, and calls
//! are always in tail position, so substitution never captures and never
//! changes evaluation order.

use crate::s0::{S0Proc, S0Program, S0Simple, S0Tail};
use crate::slots::SlotAnalysis;
use pe_governor::{Fuel, Limits, Trap};
use std::collections::{BTreeSet, HashMap};
use std::slice;

/// Runs all syntactic post passes to a fixpoint.
pub fn postprocess(mut p: S0Program) -> S0Program {
    loop {
        let before = fingerprint(&p);
        p = simplify(p);
        p = drop_unreachable(p);
        p = compress(p);
        p = inline_once(p);
        p = drop_dead_params(p);
        p = merge_entry(p);
        if fingerprint(&p) == before {
            return p;
        }
    }
}

/// Upper bound on optimize rounds (each round runs every flow pass
/// once); the fixpoint normally lands far below it.
pub const MAX_ROUNDS: usize = 32;

/// The flow optimizer's configuration.  It has no knobs: every pass
/// always runs.  It remains so that [`optimize_with`] keeps its
/// signature.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowOptions;

/// What the flow optimizer did — the source of the `flow` trace
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Variable occurrences replaced by known constants.
    pub copies_propagated: usize,
    /// Parameter bindings eliminated.
    pub dead_bindings: usize,
    /// Dispatch arms folded away.
    pub arms_folded: usize,
    /// Always 0: no pass prunes closure slots any more (The Trick's
    /// dispatch arms read every slot of an applied closure).  Kept
    /// because the repository benchmark reports it as
    /// `flow.slots_pruned`.
    pub slots_pruned: usize,
    /// Optimize rounds executed.
    pub rounds: usize,
    /// Control-flow-graph nodes of the final program, counted from the
    /// body trees: one entry node per procedure plus one node per tail
    /// expression.
    pub cfg_nodes: usize,
    /// Control-flow-graph edges of the final program: one fewer than
    /// the nodes of each procedure, whose graph is a tree.
    pub cfg_edges: usize,
}

impl FlowStats {
    /// Total rewrites across all passes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.copies_propagated + self.dead_bindings + self.arms_folded
    }
}

/// Runs the flow passes to a fixpoint (or [`MAX_ROUNDS`]).
///
/// Pass order within a round: propagation first (it seeds constants),
/// then arm folding (shape-based), then dead-binding elimination (it
/// collects the parameters propagation just made dead), then a
/// syntactic clean-up when anything changed.
///
/// Besides the program and its [`FlowStats`], returns the closure-label
/// analysis of the returned program when the last round changed
/// nothing — its arm folding then analyzed exactly that program — and
/// `None` when the rounds ran out first.  pe-verify's passes 2 and 6
/// read the same analysis.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted; the
/// input program is consumed, so callers wanting graceful degradation
/// should keep a clone (as pe-core's compile does).
pub fn optimize(
    mut p: S0Program,
    fuel: &mut Fuel,
) -> Result<(S0Program, FlowStats, Option<SlotAnalysis>), Trap> {
    let mut stats = FlowStats::default();
    let mut labels = None;
    for _ in 0..MAX_ROUNDS {
        fuel.step()?;
        let (q, copies) = crate::constprop::propagate(p, fuel)?;
        let (q, arms, sa) = crate::slots::fold_arms(q, fuel)?;
        let (q, dead) = crate::liveness::prune_dead_params(q, fuel)?;
        p = q;
        stats.copies_propagated += copies;
        stats.arms_folded += arms;
        stats.dead_bindings += dead;
        stats.rounds += 1;
        if copies + arms + dead == 0 {
            labels = Some(sa);
            break;
        }
        // Clean up what the rewrites exposed: substituted constants
        // feeding conditionals, dispatch targets now unreachable.
        p = simplify(p);
        p = drop_unreachable(p);
    }
    (stats.cfg_nodes, stats.cfg_edges) = crate::cfg::counts(&p);
    Ok((p, stats, labels))
}

/// [`optimize`] without the label analysis; `FlowOptions` has nothing
/// left to choose.
///
/// # Errors
///
/// As [`optimize`].
pub fn optimize_with(
    p: S0Program,
    _opts: &FlowOptions,
    fuel: &mut Fuel,
) -> Result<(S0Program, FlowStats), Trap> {
    optimize(p, fuel).map(|(p, stats, _)| (p, stats))
}

/// When the entry is a pure trampoline — its body forwards its own
/// parameters, in order, to one other procedure — delete the wrapper and
/// give the target the entry's public name.
pub fn merge_entry(mut p: S0Program) -> S0Program {
    let Some(entry) = p.proc(&p.entry) else { return p };
    let S0Tail::TailCall(target, args) = &entry.body else {
        return p;
    };
    let target = target.clone();
    if target == p.entry {
        return p;
    }
    let forwards_params = args.len() == entry.params.len()
        && entry
            .params
            .iter()
            .zip(args)
            .all(|(pm, a)| matches!(a, S0Simple::Var(v) if v == pm));
    if !forwards_params {
        return p;
    }
    // The target must have the same arity (it does: the call above).
    let entry_name = p.entry.clone();
    p.procs.retain(|q| q.name != entry_name);
    for q in &mut p.procs {
        if q.name == target {
            q.name = entry_name.clone();
        }
        q.body = rewrite_calls(&q.body, &mut |callee, args| {
            let callee =
                if callee == target { entry_name.clone() } else { callee.to_string() };
            S0Tail::TailCall(callee, args.to_vec())
        });
    }
    p
}

/// Peephole simplification on simple expressions:
/// `(car (cons a d)) → a`, `(cdr (cons a d)) → d`,
/// `(closure-label (make-closure ℓ …)) → ℓ`,
/// `(closure-freeval (make-closure ℓ v₀…) i) → vᵢ`,
/// `(equal? k₁ k₂) → #t/#f` on atom constants, and constant-condition
/// folding on `if` — all only when the discarded part cannot fault.
/// Each body is rewritten in place, and only where a rule fires.
pub fn simplify(mut p: S0Program) -> S0Program {
    for q in &mut p.procs {
        simplify_tail(&mut q.body);
    }
    p
}

fn simplify_tail(t: &mut S0Tail) {
    match t {
        S0Tail::Return(s) => simplify_simple(s),
        S0Tail::If(c, a, b) => {
            simplify_simple(c);
            simplify_tail(a);
            simplify_tail(b);
            if let S0Simple::Const(k) = c {
                let kept = if k.is_truthy() { a } else { b };
                *t = std::mem::replace(&mut **kept, S0Tail::Fail(String::new()));
            }
        }
        S0Tail::TailCall(_, args) => args.iter_mut().for_each(simplify_simple),
        S0Tail::Fail(_) => {}
    }
}

/// Simplifies `s`'s operands, then `s` itself.
fn simplify_simple(s: &mut S0Simple) {
    use pe_frontend::Constant::{Bool, Int};
    use pe_frontend::Prim::*;
    fn effect_free_all(args: &[S0Simple]) -> bool {
        args.iter().all(is_effect_free)
    }
    /// Moves `s` out, leaving a constant behind.
    fn take(s: &mut S0Simple) -> S0Simple {
        std::mem::replace(s, S0Simple::Const(pe_frontend::Constant::Nil))
    }
    match s {
        S0Simple::Var(_) | S0Simple::Const(_) => return,
        S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
            args.iter_mut().for_each(simplify_simple);
        }
        S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => simplify_simple(a),
    }
    let folded = match s {
        S0Simple::Prim(op @ (Car | Cdr), args) => match args.as_mut_slice() {
            [S0Simple::Prim(Cons, parts)] => {
                let (keep, drop) = if *op == Car { (0, 1) } else { (1, 0) };
                is_effect_free(&parts[drop]).then(|| take(&mut parts[keep]))
            }
            _ => None,
        },
        S0Simple::Prim(NullP, args) => match args.as_slice() {
            [S0Simple::Prim(Cons, parts)] if effect_free_all(parts) => {
                Some(S0Simple::Const(Bool(false)))
            }
            _ => None,
        },
        S0Simple::Prim(EqualP, args) => match args.as_slice() {
            [S0Simple::Const(a), S0Simple::Const(b)] => Some(S0Simple::Const(Bool(a == b))),
            _ => None,
        },
        S0Simple::ClosureLabel(a) => match &**a {
            S0Simple::MakeClosure(l, args) if effect_free_all(args) => {
                Some(S0Simple::Const(Int(i64::from(*l))))
            }
            _ => None,
        },
        S0Simple::ClosureFreeval(a, i) => match &mut **a {
            S0Simple::MakeClosure(_, args)
                if *i < args.len()
                    && args.iter().enumerate().all(|(j, x)| j == *i || is_effect_free(x)) =>
            {
                Some(take(&mut args[*i]))
            }
            _ => None,
        },
        _ => None,
    };
    if let Some(folded) = folded {
        *s = folded;
    }
}

fn fingerprint(p: &S0Program) -> (usize, usize) {
    (p.procs.len(), p.size())
}

/// Drops procedures unreachable from the entry.
pub fn drop_unreachable(mut p: S0Program) -> S0Program {
    let mut reached = p.reachable().into_iter();
    p.procs.retain(|_| reached.next().unwrap_or(false));
    p
}

/// Transition and return compression in one rewrite of the reachable
/// bodies (classic Mix): a call chases its chain of trampolines —
/// procedures whose whole body is one tail call to another — and, when
/// the chain ends at a returner — a procedure whose whole body returns
/// a simple expression — inlines that return.  No step substitutes a
/// non-trivial argument for a parameter the callee's one node uses
/// twice.  An entry that is itself a trampoline stays: it is the public
/// name.
///
/// The procedures kept are those reachable from the entry in the
/// rewritten program (a later procedure sharing a reached name is kept,
/// as by name).  Bodies are rewritten in place, and only at the calls
/// that change.
fn compress(mut p: S0Program) -> S0Program {
    // name → (params, target call) of each trampoline, skipping
    // self-loops, and name → (params, value) of each returner, as the
    // input defines them: owned, so bodies can change under the chase.
    type Trampoline = (Vec<String>, String, Vec<S0Simple>);
    let mut trampolines: HashMap<&str, Trampoline> = HashMap::new();
    let mut returners: HashMap<&str, (Vec<String>, S0Simple)> = HashMap::new();
    // Each name's first definition, and each procedure's.
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut first = Vec::with_capacity(p.procs.len());
    let mut bodies: Vec<&mut S0Tail> = Vec::with_capacity(p.procs.len());
    for (i, q) in p.procs.iter_mut().enumerate() {
        let name = q.name.as_str();
        match &q.body {
            S0Tail::TailCall(t, args) if t != name => {
                trampolines
                    .entry(name)
                    .or_insert_with(|| (q.params.clone(), t.clone(), args.clone()));
            }
            S0Tail::Return(s) => {
                returners.entry(name).or_insert_with(|| (q.params.clone(), s.clone()));
            }
            _ => {}
        }
        first.push(*index.entry(name).or_insert(i));
        bodies.push(&mut q.body);
    }
    if trampolines.is_empty() && returners.is_empty() {
        return p;
    }
    // The rewritten call, or `None` when it stays as it is.
    let mut chase = |callee: &str, args: &[S0Simple]| {
        let mut callee = callee;
        let mut moved: Option<Vec<S0Simple>> = None;
        // A mutual trampoline cycle would chase forever: stop after one
        // step more than there are trampolines.
        let mut steps = 0;
        while let Some((params, target, targs)) = trampolines.get(callee) {
            let args = moved.as_deref().unwrap_or(args);
            if steps > trampolines.len() || duplicates(params, args, targs) {
                break;
            }
            let map = bind(params, args);
            moved = Some(targs.iter().map(|a| a.subst(&map)).collect());
            callee = target;
            steps += 1;
        }
        let args = moved.as_deref().unwrap_or(args);
        match returners.get(callee) {
            Some((params, value)) if !duplicates(params, args, slice::from_ref(value)) => {
                Some(S0Tail::Return(value.subst(&bind(params, args))))
            }
            _ => moved.map(|args| S0Tail::TailCall(callee.to_string(), args)),
        }
    };
    let mut reached = vec![false; bodies.len()];
    let mut work: Vec<usize> = index.get(p.entry.as_str()).copied().into_iter().collect();
    while let Some(i) = work.pop() {
        if std::mem::replace(&mut reached[i], true) {
            continue;
        }
        replace_calls(bodies[i], &mut chase);
        bodies[i].calls(&mut |callee| work.extend(index.get(callee).copied()));
    }
    let keep: Vec<bool> = first.iter().map(|&f| reached[f]).collect();
    for (i, body) in bodies.into_iter().enumerate() {
        if keep[i] && !reached[i] {
            replace_calls(body, &mut chase);
        }
    }
    let mut keep = keep.into_iter();
    p.procs.retain(|_| keep.next().unwrap_or(false));
    p
}

/// Would binding `params` to `args` copy a non-trivial argument into
/// more than one place of `exprs`?
fn duplicates(params: &[String], args: &[S0Simple], exprs: &[S0Simple]) -> bool {
    params.iter().zip(args).any(|(pm, a)| {
        !matches!(a, S0Simple::Var(_) | S0Simple::Const(_))
            && exprs.iter().map(|e| occurrences(e, pm)).sum::<usize>() > 1
    })
}

/// The substitution binding each parameter to its argument.
fn bind(params: &[String], args: &[S0Simple]) -> HashMap<String, S0Simple> {
    params.iter().cloned().zip(args.iter().cloned()).collect()
}

/// Inlines non-recursive procedures called from exactly one site.
///
/// A worklist over procedure positions.  Inlining `v` into its caller
/// `c` moves `v`'s call sites into `c`, so no call count changes; only
/// `c` (its body, hence its self-recursion and parameter uses) and `v`'s
/// callees (their one call site now lies in `c`, with substituted
/// arguments) are re-checked, and only `c`'s body is rewritten.  The
/// first eligible procedure in program order goes first, as a rescan of
/// the whole program would pick it.
pub fn inline_once(mut p: S0Program) -> S0Program {
    let n = p.procs.len();
    let index: HashMap<String, usize> =
        p.first_definitions().into_iter().map(|(name, i)| (name.to_string(), i)).collect();
    let mut st = Inliner {
        counts: vec![0; n],
        caller: vec![0; n],
        self_rec: vec![false; n],
        alive: vec![true; n],
    };
    for (i, q) in p.procs.iter().enumerate() {
        q.body.calls(&mut |c| {
            if let Some(&j) = index.get(c) {
                if st.counts[j] == 0 {
                    st.caller[j] = i;
                }
                st.counts[j] += 1;
            }
        });
        st.self_rec[i] = calls_self(q);
    }
    let mut eligible: BTreeSet<usize> = (0..n).filter(|&v| st.eligible(&p, v)).collect();
    while let Some(v) = eligible.pop_first() {
        let c = st.caller[v];
        st.alive[v] = false;
        let vparams = std::mem::take(&mut p.procs[v].params);
        let vbody = std::mem::replace(&mut p.procs[v].body, S0Tail::Fail(String::new()));
        let vname = std::mem::take(&mut p.procs[v].name);
        replace_calls(&mut p.procs[c].body, &mut |callee, args| {
            (callee == vname).then(|| vbody.subst(&bind(&vparams, args)))
        });
        st.self_rec[c] = calls_self(&p.procs[c]);
        let mut touched = vec![c];
        vbody.calls(&mut |x| touched.extend(index.get(x).copied()));
        for &x in &touched[1..] {
            st.caller[x] = c;
        }
        for x in touched {
            if st.eligible(&p, x) {
                eligible.insert(x);
            } else {
                eligible.remove(&x);
            }
        }
    }
    let mut alive = st.alive.into_iter();
    p.procs.retain(|_| alive.next().unwrap_or(false));
    p
}

/// [`inline_once`]'s per-procedure facts, by position.
struct Inliner {
    /// Call sites naming each procedure.
    counts: Vec<usize>,
    /// The procedure holding each procedure's first call site.
    caller: Vec<usize>,
    /// Does the procedure call itself?
    self_rec: Vec<bool>,
    /// Not yet inlined away.
    alive: Vec<bool>,
}

impl Inliner {
    /// `v` is inlinable when it is called from exactly one site, is not
    /// the entry, does not call itself, and substitution cannot
    /// duplicate a non-trivial argument: each parameter is used at most
    /// once, or the call site passes only variables/constants there.
    fn eligible(&self, p: &S0Program, v: usize) -> bool {
        let q = &p.procs[v];
        self.alive[v]
            && self.counts[v] == 1
            && q.name != p.entry
            && !self.self_rec[v]
            && call_args(&p.procs[self.caller[v]].body, &q.name).is_some_and(|args| {
                q.params.iter().zip(args).all(|(pm, a)| {
                    matches!(a, S0Simple::Var(_) | S0Simple::Const(_))
                        || occurrences_tail(&q.body, pm) <= 1
                })
            })
    }
}

fn calls_self(q: &S0Proc) -> bool {
    let mut rec = false;
    q.body.calls(&mut |c| rec |= c == q.name);
    rec
}

/// The arguments of the first call to `callee` in `t`.
fn call_args<'t>(t: &'t S0Tail, callee: &str) -> Option<&'t [S0Simple]> {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => None,
        S0Tail::If(_, a, b) => call_args(a, callee).or_else(|| call_args(b, callee)),
        S0Tail::TailCall(c, args) => (c == callee).then_some(args.as_slice()),
    }
}

/// Removes parameters that cannot affect execution, when every call
/// site's corresponding argument is effect-free (cannot fault at
/// runtime).  Driven by the interprocedural liveness fixpoint — a
/// parameter that only circulates through recursive calls is dead here
/// even though a syntactic scan sees a "use".  Infallible: on a fuel
/// trap the input program is returned unchanged.
pub fn drop_dead_params(p: S0Program) -> S0Program {
    let mut fuel = Fuel::new(&Limits::default());
    match crate::liveness::dead_params(&p, &mut fuel) {
        Ok(dead) => crate::liveness::drop_params(p, &dead),
        Err(_) => p,
    }
}

/// A simple expression that can never fault at runtime.
#[must_use]
pub fn is_effect_free(s: &S0Simple) -> bool {
    use pe_frontend::Prim::*;
    match s {
        S0Simple::Var(_) | S0Simple::Const(_) => true,
        S0Simple::MakeClosure(_, args) => args.iter().all(is_effect_free),
        S0Simple::Prim(op, args) => {
            matches!(
                op,
                Cons | NullP | PairP | Not | EqP | EqvP | EqualP | SymbolP | NumberP | BooleanP
            ) && args.iter().all(is_effect_free)
        }
        // closure-label / closure-freeval fault on non-closures.
        S0Simple::ClosureLabel(_) | S0Simple::ClosureFreeval(_, _) => false,
    }
}

fn occurrences(s: &S0Simple, v: &str) -> usize {
    match s {
        S0Simple::Var(x) => usize::from(x == v),
        S0Simple::Const(_) => 0,
        S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
            args.iter().map(|a| occurrences(a, v)).sum()
        }
        S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => occurrences(a, v),
    }
}

fn occurrences_tail(t: &S0Tail, v: &str) -> usize {
    match t {
        S0Tail::Return(s) => occurrences(s, v),
        S0Tail::If(c, a, b) => {
            occurrences(c, v) + occurrences_tail(a, v).max(occurrences_tail(b, v))
        }
        S0Tail::TailCall(_, args) => args.iter().map(|a| occurrences(a, v)).sum(),
        S0Tail::Fail(_) => 0,
    }
}

/// Replaces, in place, every tail call for which `f` returns a body.
fn replace_calls(t: &mut S0Tail, f: &mut impl FnMut(&str, &[S0Simple]) -> Option<S0Tail>) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            replace_calls(a, f);
            replace_calls(b, f);
        }
        S0Tail::TailCall(callee, args) => {
            if let Some(body) = f(callee, args) {
                *t = body;
            }
        }
    }
}

fn rewrite_calls(t: &S0Tail, f: &mut impl FnMut(&str, &[S0Simple]) -> S0Tail) -> S0Tail {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => t.clone(),
        S0Tail::If(c, a, b) => S0Tail::If(
            c.clone(),
            Box::new(rewrite_calls(a, f)),
            Box::new(rewrite_calls(b, f)),
        ),
        S0Tail::TailCall(p, args) => f(p, args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_frontend::ast::Constant;
    use pe_frontend::Prim;

    fn var(v: &str) -> S0Simple {
        S0Simple::Var(v.into())
    }

    fn kint(n: i64) -> S0Simple {
        S0Simple::Const(Constant::Int(n))
    }

    fn fuel() -> Fuel {
        Fuel::new(&Limits::default())
    }

    /// The well-formedness check must find nothing in the program.
    fn assert_wellformed(q: &S0Program) {
        let errs = crate::check(q);
        assert!(errs.is_empty(), "{errs:?}\n{q}");
    }

    #[test]
    fn unreachable_procs_are_dropped() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc { name: "main".into(), params: vec![], body: S0Tail::Return(kint(1)) },
                S0Proc { name: "junk".into(), params: vec![], body: S0Tail::Return(kint(2)) },
            ],
        };
        let p = drop_unreachable(p);
        assert_eq!(p.procs.len(), 1);
        assert_eq!(p.procs[0].name, "main");
    }

    #[test]
    fn transition_chains_are_compressed() {
        // main → a → b, both trampolines; main should call c directly.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall("a".into(), vec![var("x")]),
                },
                S0Proc {
                    name: "a".into(),
                    params: vec!["y".into()],
                    body: S0Tail::TailCall(
                        "b".into(),
                        vec![S0Simple::Prim(Prim::Cons, vec![var("y"), kint(1)])],
                    ),
                },
                S0Proc {
                    name: "b".into(),
                    params: vec!["z".into()],
                    body: S0Tail::TailCall("c".into(), vec![var("z"), var("z")]),
                },
                S0Proc {
                    name: "c".into(),
                    params: vec!["u".into(), "v".into()],
                    body: S0Tail::Return(var("u")),
                },
            ],
        };
        let p = compress(p);
        let main = p.proc("main").unwrap();
        // The chase inlines a (and substitutes its cons into b's arg),
        // then stops: b would duplicate the non-trivial cons argument
        // into c's two argument slots.
        match &main.body {
            S0Tail::TailCall(t, args) => {
                assert_eq!(t, "b");
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected direct call to b, got {other:?}"),
        }
        assert!(p.proc("a").is_none(), "trampoline a removed");
        assert!(p.proc("b").is_some(), "duplicating trampoline b kept");
    }

    #[test]
    fn transition_compression_never_duplicates_work() {
        // x → dup with a computed argument used twice: must not chase.
        let p = S0Program {
            entry: "x".into(),
            procs: vec![
                S0Proc {
                    name: "x".into(),
                    params: vec!["v".into()],
                    body: S0Tail::TailCall(
                        "dup".into(),
                        vec![S0Simple::Prim(Prim::Cons, vec![var("v"), kint(1)])],
                    ),
                },
                S0Proc {
                    name: "dup".into(),
                    params: vec!["w".into()],
                    body: S0Tail::TailCall("use2".into(), vec![var("w"), var("w")]),
                },
                S0Proc {
                    name: "use2".into(),
                    params: vec!["a".into(), "b".into()],
                    body: S0Tail::Return(S0Simple::Prim(Prim::Cons, vec![var("a"), var("b")])),
                },
            ],
        };
        let before = p.size();
        let q = postprocess(p);
        assert_wellformed(&q);
        // The cons argument appears once in the output program.
        assert!(q.size() <= before + 2, "no blowup: {} -> {}", before, q.size());
    }

    #[test]
    fn inline_once_merges_chains() {
        // The paper's append-$1 scenario: a chain of once-called procs
        // collapses into the entry.
        let p = S0Program {
            entry: "append-$1".into(),
            procs: vec![
                S0Proc {
                    name: "append-$1".into(),
                    params: vec!["y".into()],
                    body: S0Tail::TailCall("sl-eval-$1".into(), vec![var("y")]),
                },
                S0Proc {
                    name: "sl-eval-$1".into(),
                    params: vec!["cv-vals-$1".into()],
                    body: S0Tail::Return(S0Simple::Prim(
                        Prim::Cons,
                        vec![S0Simple::Const(Constant::Sym("foo".into())), var("cv-vals-$1")],
                    )),
                },
            ],
        };
        let p = postprocess(p);
        assert_eq!(p.procs.len(), 1);
        match &p.procs[0].body {
            S0Tail::Return(S0Simple::Prim(Prim::Cons, args)) => {
                assert_eq!(args[1], var("y"));
            }
            other => panic!("expected inlined cons, got {other:?}"),
        }
    }

    fn proc_(name: &str, params: &[&str], body: S0Tail) -> S0Proc {
        S0Proc { name: name.into(), params: params.iter().map(|&p| p.into()).collect(), body }
    }

    fn call(callee: &str, args: Vec<S0Simple>) -> S0Tail {
        S0Tail::TailCall(callee.into(), args)
    }

    fn names(p: &S0Program) -> Vec<&str> {
        p.procs.iter().map(|q| q.name.as_str()).collect()
    }

    #[test]
    fn inlining_that_makes_the_caller_self_recursive_stops_there() {
        // `c` and `v` call each other once each.  `v` comes first, so it
        // is inlined into `c`, whose body then calls `c`: the caller is
        // now self-recursive and must not be inlined next.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                proc_("main", &["x"], S0Tail::Return(var("x"))),
                proc_("v", &["a"], call("c", vec![var("a")])),
                proc_(
                    "c",
                    &["b"],
                    S0Tail::If(
                        var("b"),
                        Box::new(S0Tail::Return(var("b"))),
                        Box::new(call("v", vec![var("b")])),
                    ),
                ),
            ],
        };
        let q = inline_once(p);
        assert_eq!(names(&q), ["main", "c"], "{q}");
        let c = q.proc("c").unwrap();
        assert_eq!(
            c.body,
            S0Tail::If(
                var("b"),
                Box::new(S0Tail::Return(var("b"))),
                Box::new(call("c", vec![var("b")])),
            )
        );
    }

    #[test]
    fn inlining_rechecks_the_callee_whose_argument_it_substituted() {
        // `w` uses its parameter twice and is called once, from `v`, with
        // the variable `y` — inlinable on its own.  `v` comes first and
        // is inlined into `main`, which substitutes `(car x)` for `y`:
        // inlining `w` now would duplicate the `car`, so `w` must stay.
        let car_x = S0Simple::Prim(Prim::Car, vec![var("x")]);
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                proc_("main", &["x"], call("v", vec![car_x.clone()])),
                proc_("v", &["y"], call("w", vec![var("y")])),
                proc_(
                    "w",
                    &["z"],
                    S0Tail::Return(S0Simple::Prim(Prim::Cons, vec![var("z"), var("z")])),
                ),
            ],
        };
        let q = inline_once(p);
        assert_eq!(names(&q), ["main", "w"], "{q}");
        assert_eq!(q.proc("main").unwrap().body, call("w", vec![car_x]));
    }

    #[test]
    fn long_trampoline_chain_compresses_into_the_entry() {
        // main → l0 → l1 → … → l1999 → end: every link is a trampoline,
        // and the returner at the end is inlined too.
        let n = 2000;
        let mut procs = vec![proc_("main", &["x"], call("l0", vec![var("x")]))];
        for i in 0..n {
            let next = if i + 1 < n { format!("l{}", i + 1) } else { "end".into() };
            procs.push(proc_(&format!("l{i}"), &["y"], call(&next, vec![var("y")])));
        }
        procs.push(proc_("end", &["z"], S0Tail::Return(var("z"))));
        let q = compress(S0Program { entry: "main".into(), procs });
        assert_eq!(names(&q), ["main"]);
        assert_eq!(q.proc("main").unwrap().body, S0Tail::Return(var("x")));
    }

    #[test]
    fn duplication_guard_keeps_a_call_to_a_returner() {
        // `r` uses its parameter twice: inlining it at a call passing
        // `(car x)` would evaluate the `car` twice, a variable is fine.
        let car_x = S0Simple::Prim(Prim::Car, vec![var("x")]);
        let twice = |v: &str| S0Simple::Prim(Prim::Cons, vec![var(v), var(v)]);
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                proc_(
                    "main",
                    &["x"],
                    S0Tail::If(
                        var("x"),
                        Box::new(call("r", vec![car_x.clone()])),
                        Box::new(call("r", vec![var("x")])),
                    ),
                ),
                proc_("r", &["y"], S0Tail::Return(twice("y"))),
            ],
        };
        let q = compress(p);
        assert_eq!(names(&q), ["main", "r"], "{q}");
        assert_eq!(
            q.proc("main").unwrap().body,
            S0Tail::If(
                var("x"),
                Box::new(call("r", vec![car_x])),
                Box::new(S0Tail::Return(twice("x"))),
            )
        );
    }

    #[test]
    fn duplication_guard_stops_a_chain_midway_and_the_rest_still_compresses() {
        // main → a → b → c → end, trampolines up to the returner `end`.
        // `a` hands `b` a cons that `b` would pass twice, so the chase
        // from main stops at `b`; `b` is still reachable and its own call
        // chases through `c` and inlines `end`.
        let cons_y = S0Simple::Prim(Prim::Cons, vec![var("y"), kint(1)]);
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                proc_("main", &["x"], call("a", vec![var("x")])),
                proc_("a", &["y"], call("b", vec![cons_y])),
                proc_("b", &["z"], call("c", vec![var("z"), var("z")])),
                proc_("c", &["u", "w"], call("end", vec![var("w"), var("u")])),
                proc_(
                    "end",
                    &["s", "t"],
                    S0Tail::Return(S0Simple::Prim(Prim::Cons, vec![var("s"), var("t")])),
                ),
            ],
        };
        let q = compress(p);
        assert_eq!(names(&q), ["main", "b"], "{q}");
        assert_eq!(
            q.proc("main").unwrap().body,
            call("b", vec![S0Simple::Prim(Prim::Cons, vec![var("x"), kint(1)])])
        );
        assert_eq!(
            q.proc("b").unwrap().body,
            S0Tail::Return(S0Simple::Prim(Prim::Cons, vec![var("z"), var("z")]))
        );
        assert_wellformed(&q);
    }

    #[test]
    fn recursive_procs_are_not_inlined() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["n".into()],
                    body: S0Tail::TailCall("loop".into(), vec![var("n")]),
                },
                S0Proc {
                    name: "loop".into(),
                    params: vec!["n".into()],
                    body: S0Tail::If(
                        S0Simple::Prim(Prim::ZeroP, vec![var("n")]),
                        Box::new(S0Tail::Return(kint(0))),
                        Box::new(S0Tail::TailCall(
                            "loop".into(),
                            vec![S0Simple::Prim(Prim::Sub, vec![var("n"), kint(1)])],
                        )),
                    ),
                },
            ],
        };
        let q = postprocess(p.clone());
        // merge_entry renames the loop to the public entry name; the
        // self-recursive loop itself must survive under either name.
        let survivor = q.proc("loop").or_else(|| q.proc("main")).expect("loop survives");
        let mut recursive = false;
        survivor.body.calls(&mut |c| recursive |= c == survivor.name);
        assert!(recursive, "{q}");
        assert_wellformed(&q);
    }

    #[test]
    fn dead_params_are_dropped_when_safe() {
        let p2 = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall("f".into(), vec![kint(1), var("x")]),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["dead".into(), "live".into()],
                    body: S0Tail::Return(var("live")),
                },
            ],
        };
        let q = drop_dead_params(p2);
        let f = q.proc("f").unwrap();
        assert_eq!(f.params, vec!["live".to_string()]);
        assert_wellformed(&q);

        // The unsafe case: argument can fault, parameter must stay.
        let p3 = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(
                        "f".into(),
                        vec![S0Simple::Prim(Prim::Car, vec![var("x")]), var("x")],
                    ),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["dead".into(), "live".into()],
                    body: S0Tail::Return(var("live")),
                },
            ],
        };
        let q = drop_dead_params(p3);
        assert_eq!(q.proc("f").unwrap().params.len(), 2, "faulting arg must stay");
    }

    #[test]
    fn postprocess_preserves_wellformedness() {
        let p = S0Program {
            entry: "e".into(),
            procs: vec![
                S0Proc {
                    name: "e".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall("t1".into(), vec![var("a")]),
                },
                S0Proc {
                    name: "t1".into(),
                    params: vec!["b".into()],
                    body: S0Tail::TailCall("t2".into(), vec![var("b"), kint(9)]),
                },
                S0Proc {
                    name: "t2".into(),
                    params: vec!["c".into(), "d".into()],
                    body: S0Tail::Return(S0Simple::Prim(Prim::Cons, vec![var("c"), var("d")])),
                },
            ],
        };
        let q = postprocess(p);
        assert_wellformed(&q);
        assert_eq!(q.procs.len(), 1, "everything inlined into the entry");
    }

    /// A constant circulating through a recursive loop: propagation
    /// substitutes it, liveness then kills the parameter, and the
    /// clean-up pass folds the exposed constants.
    #[test]
    fn optimize_combines_propagation_and_dead_params() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["n".into()],
                    body: S0Tail::TailCall("loop".into(), vec![var("n"), kint(7)]),
                },
                S0Proc {
                    name: "loop".into(),
                    params: vec!["n".into(), "x".into()],
                    body: S0Tail::If(
                        S0Simple::Prim(Prim::ZeroP, vec![var("n")]),
                        Box::new(S0Tail::Return(var("x"))),
                        Box::new(S0Tail::TailCall(
                            "loop".into(),
                            vec![
                                S0Simple::Prim(Prim::Sub, vec![var("n"), kint(1)]),
                                var("x"),
                            ],
                        )),
                    ),
                },
            ],
        };
        let (q, stats, labels) = optimize(p, &mut fuel()).unwrap();
        assert_eq!(stats.copies_propagated, 2, "{stats:?}");
        assert_eq!(stats.dead_bindings, 1, "{stats:?}");
        let lp = q.proc("loop").unwrap();
        assert_eq!(lp.params, vec!["n".to_string()]);
        assert_wellformed(&q);
        assert!(stats.cfg_nodes > 0 && stats.cfg_edges > 0);
        // The first round changed the program; the second, which
        // changed nothing, analyzed exactly the returned one.
        assert_eq!(stats.rounds, 2, "{stats:?}");
        assert_eq!(labels, Some(crate::slots::analyze(&q, &mut fuel()).unwrap()));
    }

    #[test]
    fn optimize_respects_fuel() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec![],
                body: S0Tail::Return(kint(1)),
            }],
        };
        let mut tiny = Fuel::new(&Limits { fuel: 1, ..Limits::default() });
        assert!(matches!(optimize(p, &mut tiny), Err(Trap::OutOfFuel { .. })));
    }
}
