//! Closure-label analysis: which labels reach each parameter, how many
//! values each label captures, which dispatch arms are decidable.
//!
//! Residual S₀ programs represent closures as flat vectors
//! (`make-closure ℓ v₀ … vₙ`) read by constant index
//! (`closure-freeval c i`).  [`analyze`] computes two facts:
//!
//! 1. an interprocedural *label* analysis assigns every parameter an
//!    abstract closure value — a may-set of labels plus an `other` bit
//!    for non-closure (or unknown-provenance) values — refined inside
//!    dispatch arms (`(eq? ℓ (closure-label c))` pins `c` to `{ℓ}` in
//!    the then-branch and removes `ℓ` in the else-branch);
//! 2. per allocated label, the fewest values any of its `make-closure`
//!    sites captures ([`SlotAnalysis::min_captures`]), one plain walk
//!    over the bodies.
//!
//! Three readers use them.  [`fold_arms`] folds a dispatch arm whose
//! test can be decided from the subject's label set alone to the
//! surviving branch (only for variable subjects, whose test cannot
//! fault once the subject is known to be a closure); pe-verify's pass 6
//! reports the arms it would fold ([`arm_findings`]); and pe-verify's
//! pass 2 checks `closure-freeval` indices and dispatch chains against
//! the shapes through [`eval`].

use crate::s0::{S0Program, S0Simple, S0Tail};
use pe_governor::{Fuel, Trap};
use std::collections::{BTreeMap, BTreeSet};

/// An abstract closure value: a may-set of labels plus "anything else".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AbsVal {
    /// Labels of `make-closure` values that may reach here.
    pub labels: BTreeSet<u32>,
    /// May a non-closure (or unknown-provenance) value reach here?
    pub other: bool,
}

impl AbsVal {
    fn bottom() -> AbsVal {
        AbsVal::default()
    }

    fn unknown() -> AbsVal {
        AbsVal { labels: BTreeSet::new(), other: true }
    }

    /// Exactly the closures of label `l`.
    #[must_use]
    pub fn of_label(l: u32) -> AbsVal {
        AbsVal { labels: std::iter::once(l).collect(), other: false }
    }

    fn join_from(&mut self, o: &AbsVal) -> bool {
        let before = (self.labels.len(), self.other);
        self.labels.extend(o.labels.iter().copied());
        self.other |= o.other;
        before != (self.labels.len(), self.other)
    }

    /// This value minus the closures of label `l`.
    #[must_use]
    pub fn without(&self, l: u32) -> AbsVal {
        let mut v = self.clone();
        v.labels.remove(&l);
        v
    }
}

/// What enclosing dispatch tests established about their subjects,
/// innermost last.
pub type Refinements<'a> = Vec<(&'a S0Simple, AbsVal)>;

/// Abstract evaluation of `e`, whose procedure's parameters have the
/// values `params` by position, honouring the refinements of enclosing
/// dispatch tests.  A variable past `params` may be anything.
#[must_use]
pub fn eval(e: &S0Simple, params: &[AbsVal], refines: &[(&S0Simple, AbsVal)]) -> AbsVal {
    if let Some((_, v)) = refines.iter().rev().find(|(s, _)| *s == e) {
        return v.clone();
    }
    match e {
        S0Simple::Var(k) => params.get(*k).cloned().unwrap_or_else(AbsVal::unknown),
        S0Simple::Const(_) | S0Simple::ClosureLabel(_) => AbsVal::bottom(),
        S0Simple::Prim(_, _) | S0Simple::ClosureFreeval(_, _) => AbsVal::unknown(),
        S0Simple::MakeClosure(l, _) => AbsVal::of_label(*l),
    }
}

/// Walks a tail, maintaining dispatch refinements, calling `f` on every
/// node (tails before their children); `params` are the values of the
/// procedure's parameters.
fn walk_refined<'p>(
    t: &'p S0Tail,
    params: &[AbsVal],
    refines: &mut Refinements<'p>,
    f: &mut impl FnMut(&'p S0Tail, &Refinements<'p>),
) {
    f(t, refines);
    if let S0Tail::If(c, a, b) = t {
        if let Some((subj, k)) = c.dispatch_test() {
            let sv = eval(subj, params, refines);
            refines.push((subj, AbsVal::of_label(k)));
            walk_refined(a, params, refines, f);
            refines.pop();
            refines.push((subj, sv.without(k)));
            walk_refined(b, params, refines, f);
            refines.pop();
        } else {
            walk_refined(a, params, refines, f);
            walk_refined(b, params, refines, f);
        }
    }
}

/// Everything arm folding, pass 6's arm lint and verify's closure-shape
/// pass need to know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAnalysis {
    /// `shapes[i][k]` — the abstract value of parameter `k` of the
    /// procedure at position `i`.
    pub shapes: Vec<Vec<AbsVal>>,
    /// Per allocated label, the fewest values any of its allocation
    /// sites captures.
    pub min_captures: BTreeMap<u32, usize>,
}

/// Runs the label fixpoint, then records each label's fewest captures.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the budget is exhausted before convergence.
pub fn analyze(p: &S0Program, fuel: &mut Fuel) -> Result<SlotAnalysis, Trap> {
    let mut shapes: Vec<Vec<AbsVal>> =
        p.procs.iter().map(|q| vec![AbsVal::bottom(); q.params.len()]).collect();
    if let Some(row) = shapes.get_mut(p.entry) {
        row.fill(AbsVal::unknown());
    }
    // Fixpoint on parameter shapes: each procedure's flows are gathered
    // from the rows as they stand, then joined in.
    let mut flows: Vec<(usize, usize, AbsVal)> = Vec::new();
    loop {
        fuel.step()?;
        let mut changed = false;
        for (i, q) in p.procs.iter().enumerate() {
            fuel.step()?;
            let params = &shapes[i];
            walk_refined(&q.body, params, &mut Vec::new(), &mut |t, refines| {
                if let S0Tail::TailCall(callee, args) = t {
                    for (k, a) in args.iter().enumerate() {
                        flows.push((*callee, k, eval(a, params, refines)));
                    }
                }
            });
            for (r, k, v) in flows.drain(..) {
                if let Some(slot) = shapes.get_mut(r).and_then(|row| row.get_mut(k)) {
                    changed |= slot.join_from(&v);
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut min_captures = BTreeMap::new();
    for q in &p.procs {
        fuel.step()?;
        for t in crate::cfg::nodes(&q.body) {
            match t {
                S0Tail::Return(s) | S0Tail::If(s, _, _) => record_sites(s, &mut min_captures),
                S0Tail::TailCall(_, args) => {
                    args.iter().for_each(|a| record_sites(a, &mut min_captures));
                }
                S0Tail::Fail(_) => {}
            }
        }
    }
    Ok(SlotAnalysis { shapes, min_captures })
}

/// Lowers each label's entry in `min` to the captures of every
/// `make-closure` site in `s`.
fn record_sites(s: &S0Simple, min: &mut BTreeMap<u32, usize>) {
    match s {
        S0Simple::Var(_) | S0Simple::Const(_) => {}
        S0Simple::MakeClosure(l, args) => {
            let n = min.entry(*l).or_insert(args.len());
            *n = (*n).min(args.len());
            args.iter().for_each(|a| record_sites(a, min));
        }
        S0Simple::Prim(_, args) => args.iter().for_each(|a| record_sites(a, min)),
        S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => record_sites(a, min),
    }
}

/// One statically decidable dispatch arm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmFinding {
    /// Name of the procedure containing the dispatch.
    pub proc: String,
    /// The label tested against.
    pub label: u32,
    /// True when the test always succeeds (then-branch survives);
    /// false when it can never succeed (else-branch survives).
    pub always: bool,
}

/// Folds statically decidable dispatch arms in place (variable subjects
/// only: folding must not drop a faulting test).  Returns the arms
/// folded and the label analysis of the input program, which is also
/// that of the output when nothing folded; the findings alone are
/// available via [`arm_findings`].  Only procedures with a decided arm
/// are rebuilt, after every procedure has been searched, so a trap
/// leaves `p` as it was.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn fold_arms(p: &mut S0Program, fuel: &mut Fuel) -> Result<(usize, SlotAnalysis), Trap> {
    let sa = analyze(p, fuel)?;
    let mut decided = Vec::with_capacity(p.procs.len());
    for (q, params) in p.procs.iter().zip(&sa.shapes) {
        fuel.step()?;
        let mut findings = Vec::new();
        let (leaf, node) = (&mut |_| (), &mut |_, (), ()| ());
        fold_tail(&q.body, params, &mut Vec::new(), &q.name, &mut findings, leaf, node);
        decided.push(findings.len());
    }
    let mut folded = 0;
    for ((q, params), n) in p.procs.iter_mut().zip(&sa.shapes).zip(decided) {
        if n == 0 {
            continue;
        }
        folded += n;
        q.body = fold_tail(
            &q.body,
            params,
            &mut Vec::new(),
            &q.name,
            &mut Vec::new(),
            &mut |t| t.clone(),
            &mut |c, a, b| S0Tail::If(c.clone(), Box::new(a), Box::new(b)),
        );
    }
    Ok((folded, sa))
}

/// Reports the dispatch arms [`fold_arms`] would fold, in its order,
/// from the label analysis `sa` of `p`, without rewriting.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the budget is exhausted.
pub fn arm_findings(
    p: &S0Program,
    sa: &SlotAnalysis,
    fuel: &mut Fuel,
) -> Result<Vec<ArmFinding>, Trap> {
    let mut findings = Vec::new();
    for (q, params) in p.procs.iter().zip(&sa.shapes) {
        fuel.step()?;
        fold_tail(
            &q.body,
            params,
            &mut Vec::new(),
            &q.name,
            &mut findings,
            &mut |_| (),
            &mut |_, (), ()| (),
        );
    }
    Ok(findings)
}

/// Walks `t` as arm folding does — a decidable dispatch keeps only its
/// surviving branch — recording each decided arm in `findings` and
/// folding the kept tree with `leaf` (tails other than `If`) and `node`
/// (an `If` whose test stays).
fn fold_tail<'t, R>(
    t: &'t S0Tail,
    params: &[AbsVal],
    refines: &mut Refinements<'t>,
    owner: &str,
    findings: &mut Vec<ArmFinding>,
    leaf: &mut impl FnMut(&'t S0Tail) -> R,
    node: &mut impl FnMut(&'t S0Simple, R, R) -> R,
) -> R {
    let S0Tail::If(c, a, b) = t else {
        return leaf(t);
    };
    let Some((subj, k)) = c.dispatch_test() else {
        let a2 = fold_tail(a, params, refines, owner, findings, leaf, node);
        let b2 = fold_tail(b, params, refines, owner, findings, leaf, node);
        return node(c, a2, b2);
    };
    let sv = eval(subj, params, refines);
    let definite = matches!(subj, S0Simple::Var(_)) && !sv.other && !sv.labels.is_empty();
    let decided = if !definite {
        None
    } else if !sv.labels.contains(&k) {
        Some(false)
    } else if sv.labels.len() == 1 {
        Some(true)
    } else {
        None
    };
    if let Some(always) = decided {
        findings.push(ArmFinding { proc: owner.to_string(), label: k, always });
        let (refined, kept) = if always { (AbsVal::of_label(k), a) } else { (sv.without(k), b) };
        refines.push((subj, refined));
        let out = fold_tail(kept, params, refines, owner, findings, leaf, node);
        refines.pop();
        return out;
    }
    refines.push((subj, AbsVal::of_label(k)));
    let a2 = fold_tail(a, params, refines, owner, findings, leaf, node);
    refines.pop();
    refines.push((subj, sv.without(k)));
    let b2 = fold_tail(b, params, refines, owner, findings, leaf, node);
    refines.pop();
    node(c, a2, b2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::S0Proc;
    use pe_frontend::ast::{Constant, Prim};
    use pe_governor::Limits;

    fn var(k: usize) -> S0Simple {
        S0Simple::Var(k)
    }

    fn kint(n: i64) -> S0Simple {
        S0Simple::Const(Constant::Int(n))
    }

    fn fuel() -> Fuel {
        Fuel::new(&Limits::default())
    }

    fn dispatch(subj: usize, k: i64) -> S0Simple {
        S0Simple::Prim(
            Prim::EqualP,
            vec![kint(k), S0Simple::ClosureLabel(Box::new(var(subj)))],
        )
    }

    /// `main a` calls `k` (position 1) with `(make-closure 2 a)`; `k c`
    /// runs `body`.
    fn calls_k(body: S0Tail) -> S0Program {
        S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall(1, vec![S0Simple::MakeClosure(2, vec![var(0)])]),
                },
                S0Proc { name: "k".into(), params: vec!["c".into()], body },
            ],
        }
    }

    #[test]
    fn min_captures_is_the_fewest_of_any_site() {
        // Label 3 is allocated with two captures and, nested in a
        // capture of label 5 under a primitive, with one.
        let p = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into(), "b".into()],
                    body: S0Tail::TailCall(1, vec![S0Simple::MakeClosure(3, vec![var(0), var(1)])]),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::Return(S0Simple::Prim(
                        Prim::Cons,
                        vec![
                            S0Simple::MakeClosure(5, vec![S0Simple::MakeClosure(3, vec![var(0)])]),
                            S0Simple::ClosureFreeval(Box::new(var(0)), 1),
                        ],
                    )),
                },
            ],
        };
        let sa = analyze(&p, &mut fuel()).unwrap();
        assert_eq!(sa.min_captures, BTreeMap::from([(3, 1), (5, 1)]));
        assert_eq!(sa.shapes[1], [AbsVal::of_label(3)]);
    }

    #[test]
    fn impossible_dispatch_arm_folds_to_else() {
        let mut p = calls_k(S0Tail::If(
            dispatch(0, 9),
            Box::new(S0Tail::Fail("unreachable arm".into())),
            Box::new(S0Tail::Return(S0Simple::ClosureFreeval(Box::new(var(0)), 0))),
        ));
        let (n, _) = fold_arms(&mut p, &mut fuel()).unwrap();
        assert_eq!(n, 1);
        let k = &p.procs[1];
        assert!(matches!(&k.body, S0Tail::Return(_)), "arm folded to else: {:?}", k.body);
    }

    #[test]
    fn singleton_dispatch_folds_to_then() {
        let mut p = calls_k(S0Tail::If(
            dispatch(0, 2),
            Box::new(S0Tail::Return(S0Simple::ClosureFreeval(Box::new(var(0)), 0))),
            Box::new(S0Tail::Fail("no such label".into())),
        ));
        let (n, _) = fold_arms(&mut p, &mut fuel()).unwrap();
        assert_eq!(n, 1);
        assert!(matches!(&p.procs[1].body, S0Tail::Return(_)));
    }
}
