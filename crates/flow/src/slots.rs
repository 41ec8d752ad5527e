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
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

/// Abstract values of a procedure's parameters, by name.
pub type Env<'a> = HashMap<&'a str, AbsVal>;
/// What enclosing dispatch tests established about their subjects,
/// innermost last.
pub type Refinements = Vec<(S0Simple, AbsVal)>;

/// Abstract evaluation of `e` under `env`, honouring the refinements of
/// enclosing dispatch tests.
#[must_use]
pub fn eval(e: &S0Simple, env: &Env<'_>, refines: &Refinements) -> AbsVal {
    if let Some((_, v)) = refines.iter().rev().find(|(s, _)| s == e) {
        return v.clone();
    }
    match e {
        S0Simple::Var(v) => env.get(v.as_str()).cloned().unwrap_or_else(AbsVal::unknown),
        S0Simple::Const(_) | S0Simple::ClosureLabel(_) => AbsVal::bottom(),
        S0Simple::Prim(_, _) | S0Simple::ClosureFreeval(_, _) => AbsVal::unknown(),
        S0Simple::MakeClosure(l, _) => AbsVal::of_label(*l),
    }
}

/// Walks a tail, maintaining dispatch refinements, calling `f` on every
/// node (tails before their children).
fn walk_refined<'p>(
    t: &'p S0Tail,
    env: &Env<'_>,
    refines: &mut Refinements,
    f: &mut impl FnMut(&'p S0Tail, &Refinements),
) {
    f(t, refines);
    if let S0Tail::If(c, a, b) = t {
        if let Some((subj, k)) = c.dispatch_test() {
            let sv = eval(subj, env, refines);
            refines.push((subj.clone(), AbsVal::of_label(k)));
            walk_refined(a, env, refines, f);
            refines.pop();
            refines.push((subj.clone(), sv.without(k)));
            walk_refined(b, env, refines, f);
            refines.pop();
        } else {
            walk_refined(a, env, refines, f);
            walk_refined(b, env, refines, f);
        }
    }
}

/// Everything arm folding, pass 6's arm lint and verify's closure-shape
/// pass need to know.
#[derive(Debug, Clone)]
pub struct SlotAnalysis {
    /// Abstract parameter values per procedure name, sized by the
    /// name's first definition.
    pub shapes: HashMap<String, Vec<AbsVal>>,
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
    let mut shapes = p.param_rows(AbsVal::bottom());
    if let Some(e) = shapes.get_mut(&p.entry) {
        e.iter_mut().for_each(|v| *v = AbsVal::unknown());
    }
    // Fixpoint on parameter shapes.
    loop {
        fuel.step()?;
        let mut changed = false;
        for q in &p.procs {
            fuel.step()?;
            let env = param_env(q, &shapes);
            let mut flows: Vec<(String, usize, AbsVal)> = Vec::new();
            walk_refined(&q.body, &env, &mut Vec::new(), &mut |t, refines| {
                if let S0Tail::TailCall(callee, args) = t {
                    for (i, a) in args.iter().enumerate() {
                        flows.push((callee.clone(), i, eval(a, &env, refines)));
                    }
                }
            });
            for (callee, i, v) in flows {
                if let Some(slot) = shapes.get_mut(&callee).and_then(|r| r.get_mut(i)) {
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
    /// Procedure containing the dispatch.
    pub proc: String,
    /// The label tested against.
    pub label: u32,
    /// True when the test always succeeds (then-branch survives);
    /// false when it can never succeed (else-branch survives).
    pub always: bool,
}

/// Folds statically decidable dispatch arms (variable subjects only:
/// folding must not drop a faulting test).  Returns the rewritten
/// program and the arms folded; the findings alone are available via
/// [`arm_findings`].
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn fold_arms(p: S0Program, fuel: &mut Fuel) -> Result<(S0Program, usize), Trap> {
    let sa = analyze(&p, fuel)?;
    let mut findings = Vec::new();
    let mut procs = Vec::with_capacity(p.procs.len());
    for q in &p.procs {
        fuel.step()?;
        let body = fold_tail(
            &q.body,
            &param_env(q, &sa.shapes),
            &mut Vec::new(),
            &q.name,
            &mut findings,
            &mut |t| t.clone(),
            &mut |c, a, b| S0Tail::If(c.clone(), Box::new(a), Box::new(b)),
        );
        procs.push(crate::s0::S0Proc {
            name: q.name.clone(),
            params: q.params.clone(),
            body,
        });
    }
    Ok((S0Program { procs, entry: p.entry }, findings.len()))
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
    for q in &p.procs {
        fuel.step()?;
        fold_tail(
            &q.body,
            &param_env(q, &sa.shapes),
            &mut Vec::new(),
            &q.name,
            &mut findings,
            &mut |_| (),
            &mut |_, (), ()| (),
        );
    }
    Ok(findings)
}

/// The abstract parameter values of `q` as an environment, read from
/// its name's row of `shapes` up to the row's length.
fn param_env<'q>(q: &'q crate::s0::S0Proc, shapes: &HashMap<String, Vec<AbsVal>>) -> Env<'q> {
    q.params.iter().zip(&shapes[&q.name]).map(|(pm, v)| (pm.as_str(), v.clone())).collect()
}

/// Walks `t` as arm folding does — a decidable dispatch keeps only its
/// surviving branch — recording each decided arm in `findings` and
/// folding the kept tree with `leaf` (tails other than `If`) and `node`
/// (an `If` whose test stays).
fn fold_tail<'t, R>(
    t: &'t S0Tail,
    env: &Env<'_>,
    refines: &mut Refinements,
    owner: &str,
    findings: &mut Vec<ArmFinding>,
    leaf: &mut impl FnMut(&'t S0Tail) -> R,
    node: &mut impl FnMut(&'t S0Simple, R, R) -> R,
) -> R {
    let S0Tail::If(c, a, b) = t else {
        return leaf(t);
    };
    let Some((subj, k)) = c.dispatch_test() else {
        let a2 = fold_tail(a, env, refines, owner, findings, leaf, node);
        let b2 = fold_tail(b, env, refines, owner, findings, leaf, node);
        return node(c, a2, b2);
    };
    let sv = eval(subj, env, refines);
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
        refines.push((subj.clone(), refined));
        let out = fold_tail(kept, env, refines, owner, findings, leaf, node);
        refines.pop();
        return out;
    }
    refines.push((subj.clone(), AbsVal::of_label(k)));
    let a2 = fold_tail(a, env, refines, owner, findings, leaf, node);
    refines.pop();
    refines.push((subj.clone(), sv.without(k)));
    let b2 = fold_tail(b, env, refines, owner, findings, leaf, node);
    refines.pop();
    node(c, a2, b2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::S0Proc;
    use pe_frontend::ast::{Constant, Prim};
    use pe_governor::Limits;

    fn var(v: &str) -> S0Simple {
        S0Simple::Var(v.into())
    }

    fn kint(n: i64) -> S0Simple {
        S0Simple::Const(Constant::Int(n))
    }

    fn fuel() -> Fuel {
        Fuel::new(&Limits::default())
    }

    fn dispatch(subj: &str, k: i64) -> S0Simple {
        S0Simple::Prim(
            Prim::EqualP,
            vec![kint(k), S0Simple::ClosureLabel(Box::new(var(subj)))],
        )
    }

    #[test]
    fn min_captures_is_the_fewest_of_any_site() {
        // Label 3 is allocated with two captures and, nested in a
        // capture of label 5 under a primitive, with one.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into(), "b".into()],
                    body: S0Tail::TailCall(
                        "k".into(),
                        vec![S0Simple::MakeClosure(3, vec![var("a"), var("b")])],
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::Return(S0Simple::Prim(
                        Prim::Cons,
                        vec![
                            S0Simple::MakeClosure(
                                5,
                                vec![S0Simple::MakeClosure(3, vec![var("c")])],
                            ),
                            S0Simple::ClosureFreeval(Box::new(var("c")), 1),
                        ],
                    )),
                },
            ],
        };
        let sa = analyze(&p, &mut fuel()).unwrap();
        assert_eq!(sa.min_captures, BTreeMap::from([(3, 1), (5, 1)]));
        assert_eq!(sa.shapes["k"], [AbsVal::of_label(3)]);
    }

    #[test]
    fn impossible_dispatch_arm_folds_to_else() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall(
                        "k".into(),
                        vec![S0Simple::MakeClosure(2, vec![var("a")])],
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::If(
                        dispatch("c", 9),
                        Box::new(S0Tail::Fail("unreachable arm".into())),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(
                            Box::new(var("c")),
                            0,
                        ))),
                    ),
                },
            ],
        };
        let (q, n) = fold_arms(p, &mut fuel()).unwrap();
        assert_eq!(n, 1);
        let k = q.proc("k").unwrap();
        assert!(
            matches!(&k.body, S0Tail::Return(_)),
            "arm folded to else: {:?}",
            k.body
        );
    }

    #[test]
    fn singleton_dispatch_folds_to_then() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall(
                        "k".into(),
                        vec![S0Simple::MakeClosure(2, vec![var("a")])],
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::If(
                        dispatch("c", 2),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(
                            Box::new(var("c")),
                            0,
                        ))),
                        Box::new(S0Tail::Fail("no such label".into())),
                    ),
                },
            ],
        };
        let (q, n) = fold_arms(p, &mut fuel()).unwrap();
        assert_eq!(n, 1);
        assert!(matches!(&q.proc("k").unwrap().body, S0Tail::Return(_)));
    }
}
