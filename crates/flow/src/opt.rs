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
use std::collections::BTreeSet;
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
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted, together
/// with the program as the last pass that finished left it: every pass
/// analyzes before it rewrites, so a trapped pass has changed nothing,
/// and the program handed back is as correct as the input.
pub fn optimize(
    mut p: S0Program,
    fuel: &mut Fuel,
) -> Result<(S0Program, FlowStats, Option<SlotAnalysis>), (Trap, S0Program)> {
    let mut stats = FlowStats::default();
    let mut labels = None;
    for _ in 0..MAX_ROUNDS {
        let (copies, arms, dead, sa) = match round(&mut p, fuel) {
            Ok(r) => r,
            Err(trap) => return Err((trap, p)),
        };
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

/// One [`optimize`] round's flow passes, in place: the copies
/// propagated, arms folded and bindings dropped, and the label analysis
/// arm folding solved.
fn round(p: &mut S0Program, fuel: &mut Fuel) -> Result<(usize, usize, usize, SlotAnalysis), Trap> {
    fuel.step()?;
    let copies = crate::constprop::propagate(p, fuel)?;
    let (arms, sa) = crate::slots::fold_arms(p, fuel)?;
    let dead = crate::liveness::prune_dead_params(p, fuel)?;
    Ok((copies, arms, dead, sa))
}

/// [`optimize`] without the label analysis; `FlowOptions` has nothing
/// left to choose.
///
/// # Errors
///
/// As [`optimize`], without the program.
pub fn optimize_with(
    p: S0Program,
    _opts: &FlowOptions,
    fuel: &mut Fuel,
) -> Result<(S0Program, FlowStats), Trap> {
    optimize(p, fuel).map(|(p, stats, _)| (p, stats)).map_err(|(trap, _)| trap)
}

/// When the entry is a pure trampoline — its body forwards its own
/// parameters, in order, to one other procedure of that arity — delete
/// the wrapper and give the target the entry's public name.
pub fn merge_entry(mut p: S0Program) -> S0Program {
    let e = p.entry;
    let Some(entry) = p.procs.get(e) else { return p };
    let S0Tail::TailCall(target, args) = &entry.body else {
        return p;
    };
    let target = *target;
    let forwards_params = args.len() == entry.params.len()
        && args.iter().enumerate().all(|(k, a)| *a == S0Simple::Var(k));
    let arity = p.procs.get(target).map(|q| q.params.len());
    if target == e || !forwards_params || arity != Some(args.len()) {
        return p;
    }
    p.procs[target].name = std::mem::take(&mut p.procs[e].name);
    // Calls to the wrapper go to the target, which it forwarded to.
    for q in &mut p.procs {
        renumber(&mut q.body, &mut |c| if c == e { target } else { c });
    }
    p.entry = target;
    let keep: Vec<bool> = (0..p.procs.len()).map(|i| i != e).collect();
    retain_procs(&mut p, &keep);
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
    let reached = p.reachable();
    retain_procs(&mut p, &reached);
    p
}

/// Keeps the procedures `keep` marks, in order, and renumbers every
/// call and the entry to the positions that remain: the one helper of
/// every pass that deletes procedures.  A call to a dropped procedure,
/// or past the end, becomes a call past the new end.  `keep` holds one
/// flag per procedure.
fn retain_procs(p: &mut S0Program, keep: &[bool]) {
    if keep.iter().all(|&k| k) {
        return;
    }
    let mut to = Vec::with_capacity(keep.len());
    let mut kept = 0;
    for &k in keep {
        to.push(k.then_some(kept));
        kept += usize::from(k);
    }
    let at = |i: usize| to.get(i).copied().flatten().unwrap_or(kept);
    let mut keep = keep.iter();
    p.procs.retain(|_| keep.next().copied().unwrap_or(false));
    for q in &mut p.procs {
        renumber(&mut q.body, &mut |c| at(c));
    }
    p.entry = at(p.entry);
}

/// Replaces, in place, every call's callee `c` by `f(c)`.
fn renumber(t: &mut S0Tail, f: &mut impl FnMut(usize) -> usize) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            renumber(a, f);
            renumber(b, f);
        }
        S0Tail::TailCall(callee, _) => *callee = f(*callee),
    }
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
/// rewritten program.  Bodies are rewritten in place, and only at the
/// calls that change.
fn compress(mut p: S0Program) -> S0Program {
    // The target call of each trampoline, skipping self-loops, and the
    // value of each returner, by position, as the input defines them:
    // owned, so bodies can change under the chase.
    let mut trampolines: Vec<Option<(usize, Vec<S0Simple>)>> = Vec::with_capacity(p.procs.len());
    let mut returners: Vec<Option<S0Simple>> = Vec::with_capacity(p.procs.len());
    for (i, q) in p.procs.iter().enumerate() {
        let (t, r) = match &q.body {
            S0Tail::TailCall(t, args) if *t != i => (Some((*t, args.clone())), None),
            S0Tail::Return(s) => (None, Some(s.clone())),
            _ => (None, None),
        };
        trampolines.push(t);
        returners.push(r);
    }
    let chains = trampolines.iter().flatten().count();
    if chains == 0 && returners.iter().all(Option::is_none) {
        return p;
    }
    // The rewritten call, or `None` when it stays as it is.
    let mut chase = |callee: usize, args: &[S0Simple]| {
        let mut callee = callee;
        let mut moved: Option<Vec<S0Simple>> = None;
        // A mutual trampoline cycle would chase forever: stop after one
        // step more than there are trampolines.
        let mut steps = 0;
        while let Some(Some((target, targs))) = trampolines.get(callee) {
            let args = moved.as_deref().unwrap_or(args);
            if steps > chains || duplicates(args, targs) {
                break;
            }
            moved = Some(targs.iter().map(|a| a.subst(&bind(args))).collect());
            callee = *target;
            steps += 1;
        }
        let args = moved.as_deref().unwrap_or(args);
        match returners.get(callee) {
            Some(Some(value)) if !duplicates(args, slice::from_ref(value)) => {
                Some(S0Tail::Return(value.subst(&bind(args))))
            }
            _ => moved.map(|args| S0Tail::TailCall(callee, args)),
        }
    };
    let mut reached = vec![false; p.procs.len()];
    let mut work = vec![p.entry];
    while let Some(i) = work.pop() {
        if reached.get(i).is_none_or(|&r| r) {
            continue;
        }
        reached[i] = true;
        let body = &mut p.procs[i].body;
        replace_calls(body, &mut chase);
        body.calls(&mut |callee| work.push(callee));
    }
    retain_procs(&mut p, &reached);
    p
}

/// Would binding the parameters to `args` copy a non-trivial argument
/// into more than one place of `exprs`?
fn duplicates(args: &[S0Simple], exprs: &[S0Simple]) -> bool {
    args.iter().enumerate().any(|(k, a)| {
        !matches!(a, S0Simple::Var(_) | S0Simple::Const(_))
            && exprs.iter().map(|e| occurrences(e, k)).sum::<usize>() > 1
    })
}

/// The substitution binding each parameter position to its argument;
/// a position without one reads past every procedure's parameters
/// wherever the expression lands.
fn bind(args: &[S0Simple]) -> impl Fn(usize) -> S0Simple + '_ {
    |k| args.get(k).cloned().unwrap_or(S0Simple::Var(usize::MAX))
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
    let mut st = Inliner {
        counts: vec![0; n],
        caller: vec![0; n],
        self_rec: vec![false; n],
        alive: vec![true; n],
    };
    for (i, q) in p.procs.iter().enumerate() {
        q.body.calls(&mut |j| {
            if j < n {
                if st.counts[j] == 0 {
                    st.caller[j] = i;
                }
                st.counts[j] += 1;
            }
        });
        st.self_rec[i] = calls_self(q, i);
    }
    let mut eligible: BTreeSet<usize> = (0..n).filter(|&v| st.eligible(&p, v)).collect();
    while let Some(v) = eligible.pop_first() {
        let c = st.caller[v];
        st.alive[v] = false;
        let vbody = std::mem::replace(&mut p.procs[v].body, S0Tail::Fail(String::new()));
        replace_calls(&mut p.procs[c].body, &mut |callee, args| {
            (callee == v).then(|| vbody.subst(&bind(args)))
        });
        st.self_rec[c] = calls_self(&p.procs[c], c);
        let mut touched = vec![c];
        vbody.calls(&mut |x| touched.extend((x < n).then_some(x)));
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
    retain_procs(&mut p, &st.alive);
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
            && v != p.entry
            && !self.self_rec[v]
            && call_args(&p.procs[self.caller[v]].body, v).is_some_and(|args| {
                args.iter().enumerate().all(|(k, a)| {
                    matches!(a, S0Simple::Var(_) | S0Simple::Const(_))
                        || occurrences_tail(&q.body, k) <= 1
                })
            })
    }
}

/// Does the procedure at position `i` call itself?
fn calls_self(q: &S0Proc, i: usize) -> bool {
    let mut rec = false;
    q.body.calls(&mut |c| rec |= c == i);
    rec
}

/// The arguments of the first call to `callee` in `t`.
fn call_args(t: &S0Tail, callee: usize) -> Option<&[S0Simple]> {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => None,
        S0Tail::If(_, a, b) => call_args(a, callee).or_else(|| call_args(b, callee)),
        S0Tail::TailCall(c, args) => (*c == callee).then_some(args.as_slice()),
    }
}

/// Removes parameters that cannot affect execution, when every call
/// site's corresponding argument is effect-free (cannot fault at
/// runtime).  Driven by the interprocedural liveness fixpoint — a
/// parameter that only circulates through recursive calls is dead here
/// even though a syntactic scan sees a "use".  Infallible: on a fuel
/// trap the input program is returned unchanged.
pub fn drop_dead_params(mut p: S0Program) -> S0Program {
    let mut fuel = Fuel::new(&Limits::default());
    if let Ok(dead) = crate::liveness::dead_params(&p, &mut fuel) {
        crate::liveness::drop_params(&mut p, &dead);
    }
    p
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

/// How many times `s` reads parameter position `k`.
fn occurrences(s: &S0Simple, k: usize) -> usize {
    let mut n = 0;
    s.vars(&mut |j| n += usize::from(j == k));
    n
}

/// How many times a path through `t` reads parameter position `k`, at
/// most.
fn occurrences_tail(t: &S0Tail, k: usize) -> usize {
    match t {
        S0Tail::Return(s) => occurrences(s, k),
        S0Tail::If(c, a, b) => {
            occurrences(c, k) + occurrences_tail(a, k).max(occurrences_tail(b, k))
        }
        S0Tail::TailCall(_, args) => args.iter().map(|a| occurrences(a, k)).sum(),
        S0Tail::Fail(_) => 0,
    }
}

/// Replaces, in place, every tail call for which `f` returns a body.
fn replace_calls(t: &mut S0Tail, f: &mut impl FnMut(usize, &[S0Simple]) -> Option<S0Tail>) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            replace_calls(a, f);
            replace_calls(b, f);
        }
        S0Tail::TailCall(callee, args) => {
            if let Some(body) = f(*callee, args) {
                *t = body;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_frontend::ast::Constant;
    use pe_frontend::Prim;

    fn var(k: usize) -> S0Simple {
        S0Simple::Var(k)
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

    fn proc_(name: &str, params: &[&str], body: S0Tail) -> S0Proc {
        S0Proc { name: name.into(), params: params.iter().map(|&p| p.into()).collect(), body }
    }

    fn call(callee: usize, args: Vec<S0Simple>) -> S0Tail {
        S0Tail::TailCall(callee, args)
    }

    fn cons(a: S0Simple, d: S0Simple) -> S0Simple {
        S0Simple::Prim(Prim::Cons, vec![a, d])
    }

    /// A program whose entry is its first procedure.
    fn program(procs: Vec<S0Proc>) -> S0Program {
        S0Program { entry: 0, procs }
    }

    fn names(p: &S0Program) -> Vec<&str> {
        p.procs.iter().map(|q| q.name.as_str()).collect()
    }

    #[test]
    fn unreachable_procs_are_dropped() {
        let p = program(vec![
            proc_("main", &[], S0Tail::Return(kint(1))),
            proc_("junk", &[], S0Tail::Return(kint(2))),
        ]);
        let p = drop_unreachable(p);
        assert_eq!(names(&p), ["main"]);
        // Dropping a procedure before kept ones moves the calls and the
        // entry down with them.
        let p = S0Program {
            entry: 1,
            procs: vec![
                proc_("junk", &[], S0Tail::Return(kint(2))),
                proc_("main", &["x"], call(2, vec![var(0)])),
                proc_("helper", &["y"], S0Tail::Return(var(0))),
            ],
        };
        let q = drop_unreachable(p);
        assert_eq!(names(&q), ["main", "helper"]);
        assert_eq!(q.entry, 0);
        assert_eq!(q.procs[0].body, call(1, vec![var(0)]));
        assert_wellformed(&q);
    }

    #[test]
    fn transition_chains_are_compressed() {
        // main → a → b, both trampolines; main should call c directly.
        let p = program(vec![
            proc_("main", &["x"], call(1, vec![var(0)])),
            proc_("a", &["y"], call(2, vec![cons(var(0), kint(1))])),
            proc_("b", &["z"], call(3, vec![var(0), var(0)])),
            proc_("c", &["u", "v"], S0Tail::Return(var(0))),
        ]);
        let p = compress(p);
        // The chase inlines a (and substitutes its cons into b's arg),
        // then stops: b would duplicate the non-trivial cons argument
        // into c's two argument slots.  b's own call inlines c.
        assert_eq!(names(&p), ["main", "b"], "trampoline a removed, b kept");
        assert_eq!(p.procs[0].body, call(1, vec![cons(var(0), kint(1))]));
        assert_eq!(p.procs[1].body, S0Tail::Return(var(0)));
    }

    #[test]
    fn transition_compression_never_duplicates_work() {
        // x → dup with a computed argument used twice: must not chase.
        let p = program(vec![
            proc_("x", &["v"], call(1, vec![cons(var(0), kint(1))])),
            proc_("dup", &["w"], call(2, vec![var(0), var(0)])),
            proc_("use2", &["a", "b"], S0Tail::Return(cons(var(0), var(1)))),
        ]);
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
        let foo = S0Simple::Const(Constant::Sym("foo".into()));
        let p = program(vec![
            proc_("append-$1", &["y"], call(1, vec![var(0)])),
            proc_("sl-eval-$1", &["cv-vals-$1"], S0Tail::Return(cons(foo.clone(), var(0)))),
        ]);
        let p = postprocess(p);
        assert_eq!(names(&p), ["append-$1"]);
        assert_eq!(p.procs[0].body, S0Tail::Return(cons(foo, var(0))));
    }

    #[test]
    fn inlining_that_makes_the_caller_self_recursive_stops_there() {
        // `c` and `v` call each other once each.  `v` comes first, so it
        // is inlined into `c`, whose body then calls `c`: the caller is
        // now self-recursive and must not be inlined next.
        let p = program(vec![
            proc_("main", &["x"], S0Tail::Return(var(0))),
            proc_("v", &["a"], call(2, vec![var(0)])),
            proc_(
                "c",
                &["b"],
                S0Tail::If(
                    var(0),
                    Box::new(S0Tail::Return(var(0))),
                    Box::new(call(1, vec![var(0)])),
                ),
            ),
        ]);
        let q = inline_once(p);
        assert_eq!(names(&q), ["main", "c"], "{q}");
        assert_eq!(
            q.procs[1].body,
            S0Tail::If(
                var(0),
                Box::new(S0Tail::Return(var(0))),
                Box::new(call(1, vec![var(0)])),
            )
        );
    }

    #[test]
    fn inlining_rechecks_the_callee_whose_argument_it_substituted() {
        // `w` uses its parameter twice and is called once, from `v`, with
        // the variable `y` — inlinable on its own.  `v` comes first and
        // is inlined into `main`, which substitutes `(car x)` for `y`:
        // inlining `w` now would duplicate the `car`, so `w` must stay.
        let car_x = S0Simple::Prim(Prim::Car, vec![var(0)]);
        let p = program(vec![
            proc_("main", &["x"], call(1, vec![car_x.clone()])),
            proc_("v", &["y"], call(2, vec![var(0)])),
            proc_("w", &["z"], S0Tail::Return(cons(var(0), var(0)))),
        ]);
        let q = inline_once(p);
        assert_eq!(names(&q), ["main", "w"], "{q}");
        assert_eq!(q.procs[0].body, call(1, vec![car_x]));
    }

    #[test]
    fn inlining_substitutes_the_callees_parameters() {
        // `v` is inlined into `main`, whose parameters come in the other
        // order: `v`'s `b` (its position 1) is `main`'s `x` (position 0).
        let p = program(vec![
            proc_("main", &["x", "y"], call(1, vec![var(1), var(0)])),
            proc_("v", &["a", "b"], S0Tail::Return(cons(var(1), kint(0)))),
        ]);
        let q = inline_once(p);
        assert_eq!(names(&q), ["main"], "{q}");
        assert_eq!(q.procs[0].body, S0Tail::Return(cons(var(0), kint(0))));
    }

    #[test]
    fn long_trampoline_chain_compresses_into_the_entry() {
        // main → l0 → l1 → … → l1999 → end: every link is a trampoline,
        // and the returner at the end is inlined too.
        let n = 2000;
        let mut procs = vec![proc_("main", &["x"], call(1, vec![var(0)]))];
        for i in 0..n {
            procs.push(proc_(&format!("l{i}"), &["y"], call(i + 2, vec![var(0)])));
        }
        procs.push(proc_("end", &["z"], S0Tail::Return(var(0))));
        let q = compress(program(procs));
        assert_eq!(names(&q), ["main"]);
        assert_eq!(q.procs[0].body, S0Tail::Return(var(0)));
    }

    #[test]
    fn duplication_guard_keeps_a_call_to_a_returner() {
        // `r` uses its parameter twice: inlining it at a call passing
        // `(car x)` would evaluate the `car` twice, a variable is fine.
        let car_x = S0Simple::Prim(Prim::Car, vec![var(0)]);
        let p = program(vec![
            proc_(
                "main",
                &["x"],
                S0Tail::If(
                    var(0),
                    Box::new(call(1, vec![car_x.clone()])),
                    Box::new(call(1, vec![var(0)])),
                ),
            ),
            proc_("r", &["y"], S0Tail::Return(cons(var(0), var(0)))),
        ]);
        let q = compress(p);
        assert_eq!(names(&q), ["main", "r"], "{q}");
        assert_eq!(
            q.procs[0].body,
            S0Tail::If(
                var(0),
                Box::new(call(1, vec![car_x])),
                Box::new(S0Tail::Return(cons(var(0), var(0)))),
            )
        );
    }

    #[test]
    fn duplication_guard_stops_a_chain_midway_and_the_rest_still_compresses() {
        // main → a → b → c → end, trampolines up to the returner `end`.
        // `a` hands `b` a cons that `b` would pass twice, so the chase
        // from main stops at `b`; `b` is still reachable and its own call
        // chases through `c` and inlines `end`.
        let p = program(vec![
            proc_("main", &["x"], call(1, vec![var(0)])),
            proc_("a", &["y"], call(2, vec![cons(var(0), kint(1))])),
            proc_("b", &["z"], call(3, vec![var(0), var(0)])),
            proc_("c", &["u", "w"], call(4, vec![var(1), var(0)])),
            proc_("end", &["s", "t"], S0Tail::Return(cons(var(0), var(1)))),
        ]);
        let q = compress(p);
        assert_eq!(names(&q), ["main", "b"], "{q}");
        assert_eq!(q.procs[0].body, call(1, vec![cons(var(0), kint(1))]));
        assert_eq!(q.procs[1].body, S0Tail::Return(cons(var(0), var(0))));
        assert_wellformed(&q);
    }

    #[test]
    fn recursive_procs_are_not_inlined() {
        let p = program(vec![
            proc_("main", &["n"], call(1, vec![var(0)])),
            proc_(
                "loop",
                &["n"],
                S0Tail::If(
                    S0Simple::Prim(Prim::ZeroP, vec![var(0)]),
                    Box::new(S0Tail::Return(kint(0))),
                    Box::new(call(1, vec![S0Simple::Prim(Prim::Sub, vec![var(0), kint(1)])])),
                ),
            ),
        ]);
        let q = postprocess(p);
        // merge_entry gives the loop the public entry name; the
        // self-recursive loop itself must survive as the entry.
        assert_eq!(names(&q), ["main"], "{q}");
        let mut recursive = false;
        q.procs[q.entry].body.calls(&mut |c| recursive |= c == q.entry);
        assert!(recursive, "{q}");
        assert_wellformed(&q);
    }

    #[test]
    fn dead_params_are_dropped_when_safe() {
        let p2 = program(vec![
            proc_("main", &["x"], call(1, vec![kint(1), var(0)])),
            proc_("f", &["dead", "live"], S0Tail::Return(var(1))),
        ]);
        let q = drop_dead_params(p2);
        assert_eq!(q.procs[1].params, vec!["live".to_string()]);
        assert_eq!(q.procs[1].body, S0Tail::Return(var(0)));
        assert_eq!(q.procs[0].body, call(1, vec![var(0)]));
        assert_wellformed(&q);

        // The unsafe case: argument can fault, parameter must stay.
        let p3 = program(vec![
            proc_("main", &["x"], call(1, vec![S0Simple::Prim(Prim::Car, vec![var(0)]), var(0)])),
            proc_("f", &["dead", "live"], S0Tail::Return(var(1))),
        ]);
        let q = drop_dead_params(p3);
        assert_eq!(q.procs[1].params.len(), 2, "faulting arg must stay");
    }

    #[test]
    fn postprocess_preserves_wellformedness() {
        let p = program(vec![
            proc_("e", &["a"], call(1, vec![var(0)])),
            proc_("t1", &["b"], call(2, vec![var(0), kint(9)])),
            proc_("t2", &["c", "d"], S0Tail::Return(cons(var(0), var(1)))),
        ]);
        let q = postprocess(p);
        assert_wellformed(&q);
        assert_eq!(q.procs.len(), 1, "everything inlined into the entry");
    }

    #[test]
    fn merging_the_entry_redirects_calls_to_it() {
        // `main` forwards to `loop`, which calls `main` back: the merged
        // entry is `loop` under the public name, calling itself.
        let p = program(vec![
            proc_("main", &["n"], call(1, vec![var(0)])),
            proc_(
                "loop",
                &["n"],
                S0Tail::If(
                    var(0),
                    Box::new(S0Tail::Return(kint(0))),
                    Box::new(call(0, vec![kint(1)])),
                ),
            ),
        ]);
        let q = merge_entry(p);
        assert_eq!(names(&q), ["main"]);
        assert_eq!(q.entry, 0);
        assert_eq!(
            q.procs[0].body,
            S0Tail::If(var(0), Box::new(S0Tail::Return(kint(0))), Box::new(call(0, vec![kint(1)])))
        );
        assert_wellformed(&q);
    }

    /// A constant circulating through a recursive loop: propagation
    /// substitutes it, liveness then kills the parameter, and the
    /// clean-up pass folds the exposed constants.
    #[test]
    fn optimize_combines_propagation_and_dead_params() {
        let p = program(vec![
            proc_("main", &["n"], call(1, vec![var(0), kint(7)])),
            proc_(
                "loop",
                &["n", "x"],
                S0Tail::If(
                    S0Simple::Prim(Prim::ZeroP, vec![var(0)]),
                    Box::new(S0Tail::Return(var(1))),
                    Box::new(call(
                        1,
                        vec![S0Simple::Prim(Prim::Sub, vec![var(0), kint(1)]), var(1)],
                    )),
                ),
            ),
        ]);
        let (q, stats, labels) = optimize(p, &mut fuel()).unwrap();
        assert_eq!(stats.copies_propagated, 2, "{stats:?}");
        assert_eq!(stats.dead_bindings, 1, "{stats:?}");
        assert_eq!(q.procs[1].params, vec!["n".to_string()]);
        assert_wellformed(&q);
        assert!(stats.cfg_nodes > 0 && stats.cfg_edges > 0);
        // The first round changed the program; the second, which
        // changed nothing, analyzed exactly the returned one.
        assert_eq!(stats.rounds, 2, "{stats:?}");
        assert_eq!(labels, Some(crate::slots::analyze(&q, &mut fuel()).unwrap()));
    }

    #[test]
    fn optimize_respects_fuel() {
        let p = program(vec![proc_("main", &[], S0Tail::Return(kint(1)))]);
        let mut tiny = Fuel::new(&Limits { fuel: 1, ..Limits::default() });
        match optimize(p.clone(), &mut tiny) {
            Err((Trap::OutOfFuel { .. }, q)) => assert_eq!(q, p),
            other => panic!("{other:?}"),
        }
    }
}
