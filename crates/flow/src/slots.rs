//! Closure-label analysis: slot usage, escape pinning, dispatch-arm
//! decidability.
//!
//! Residual S₀ programs represent closures as flat vectors
//! (`make-closure ℓ v₀ … vₙ`) read by constant index
//! (`closure-freeval c i`).  [`analyze`] answers "which labels can reach
//! each value, and which slots of each label are ever read?":
//!
//! 1. an interprocedural *label* analysis assigns every parameter an
//!    abstract closure value — a may-set of labels plus an `other` bit
//!    for non-closure (or unknown-provenance) values — refined inside
//!    dispatch arms (`(eq? ℓ (closure-label c))` pins `c` to `{ℓ}` in
//!    the then-branch and removes `ℓ` in the else-branch);
//! 2. a collection pass records, per label: allocation sites, slots
//!    read at *definite* freeval sites, and **pins** — labels whose
//!    closures escape the call graph (into primitive arguments, other
//!    closures' captures, or a `Return`), labels with inconsistent
//!    capture arity, and labels read at indeterminate sites.  A pinned
//!    label has no droppable slot: an escaped closure can come back as
//!    an `other` value and be read at sites the analysis cannot tie to
//!    its label.  Labels co-read at one freeval site form an
//!    equivalence class and share one set of droppable slots;
//! 3. [`SlotAnalysis::prune`] lists, per unpinned class, the unread
//!    capture slots whose every argument is effect-free.  pe-flow's
//!    dead-slot lint reports them; no pass rewrites them, because The
//!    Trick's dispatch arms read every slot of an applied closure, so
//!    pipeline residuals have none to drop.
//!
//! The same label analysis powers [`fold_arms`]: a dispatch arm whose
//! test can be decided from the subject's label set alone is folded to
//! the surviving branch (only for variable subjects, whose test cannot
//! fault once the subject is known to be a closure).  pe-verify's
//! closure-shape and flow passes read it too, through [`analyze`] and
//! [`eval`].

use crate::opt::is_effect_free;
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

/// Everything arm folding, the flow lints and verify's closure-shape
/// pass need to know.
#[derive(Debug, Clone)]
pub struct SlotAnalysis {
    /// Abstract parameter values per procedure name, sized by the
    /// name's first definition.
    pub shapes: HashMap<String, Vec<AbsVal>>,
    /// Per allocated label, the fewest values any of its allocation
    /// sites captures: its capture arity when every site agrees (else
    /// the label is pinned).
    pub min_captures: BTreeMap<u32, usize>,
    /// Slots read (possibly) per label, across all definite sites.
    pub used: BTreeMap<u32, BTreeSet<usize>>,
    /// Labels whose capture slots may not be dropped.
    pub pinned: BTreeSet<u32>,
    /// Slots droppable per label: unread, unpinned class, effect-free
    /// arguments at every allocation site.  Sorted ascending.
    pub prune: BTreeMap<u32, Vec<usize>>,
}

/// Union-find over labels.
struct Classes {
    parent: HashMap<u32, u32>,
}

impl Classes {
    fn new() -> Classes {
        Classes { parent: HashMap::new() }
    }

    fn find(&mut self, l: u32) -> u32 {
        let p = *self.parent.entry(l).or_insert(l);
        if p == l {
            return l;
        }
        let r = self.find(p);
        self.parent.insert(l, r);
        r
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// Runs the label fixpoint plus the usage/escape collection.
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
    // Collection: sites, arities, usage, pins, co-occurrence classes.
    let mut sites: BTreeMap<u32, Vec<Vec<S0Simple>>> = BTreeMap::new();
    let mut min_captures: BTreeMap<u32, usize> = BTreeMap::new();
    let mut used: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
    let mut pinned: BTreeSet<u32> = BTreeSet::new();
    let mut classes = Classes::new();
    for q in &p.procs {
        fuel.step()?;
        let env = param_env(q, &shapes);
        walk_refined(&q.body, &env, &mut Vec::new(), &mut |t, refines| {
            let mut scan = Scan {
                env: &env,
                refines,
                sites: &mut sites,
                used: &mut used,
                pinned: &mut pinned,
                classes: &mut classes,
            };
            match t {
                S0Tail::Return(s) => scan.simple(s, true),
                S0Tail::If(c, _, _) => scan.simple(c, false),
                S0Tail::TailCall(_, args) => {
                    args.iter().for_each(|a| scan.simple(a, false));
                }
                S0Tail::Fail(_) => {}
            }
        });
    }
    for (l, ss) in &sites {
        let n = ss.iter().map(Vec::len).min().unwrap_or(0);
        if ss.iter().any(|s| s.len() != n) {
            pinned.insert(*l);
        }
        min_captures.insert(*l, n);
    }
    // Close pins over classes, then decide droppable slots per class.
    let mut roots: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let all_labels: BTreeSet<u32> = sites
        .keys()
        .copied()
        .chain(pinned.iter().copied())
        .chain(used.keys().copied())
        .collect();
    for l in &all_labels {
        roots.entry(classes.find(*l)).or_default().push(*l);
    }
    let mut prune: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for members in roots.values() {
        if members.iter().any(|l| pinned.contains(l)) {
            pinned.extend(members.iter().copied());
            continue;
        }
        // Every member needs a known, shared arity.
        let Some(&n) = members.first().and_then(|l| min_captures.get(l)) else {
            pinned.extend(members.iter().copied());
            continue;
        };
        if members.iter().any(|l| min_captures.get(l) != Some(&n)) {
            pinned.extend(members.iter().copied());
            continue;
        }
        let mut class_used: BTreeSet<usize> = BTreeSet::new();
        for l in members {
            if let Some(u) = used.get(l) {
                class_used.extend(u.iter().copied());
            }
        }
        let droppable: Vec<usize> = (0..n)
            .filter(|j| {
                !class_used.contains(j)
                    && members.iter().all(|l| {
                        sites.get(l).is_none_or(|ss| {
                            ss.iter().all(|args| is_effect_free(&args[*j]))
                        })
                    })
            })
            .collect();
        if !droppable.is_empty() {
            for l in members {
                prune.insert(*l, droppable.clone());
            }
        }
    }
    Ok(SlotAnalysis { shapes, min_captures, used, pinned, prune })
}

/// The escape/usage scanner for one simple expression.
struct Scan<'a, 'b> {
    env: &'a Env<'b>,
    refines: &'a Refinements,
    sites: &'a mut BTreeMap<u32, Vec<Vec<S0Simple>>>,
    used: &'a mut BTreeMap<u32, BTreeSet<usize>>,
    pinned: &'a mut BTreeSet<u32>,
    classes: &'a mut Classes,
}

impl Scan<'_, '_> {
    fn pin_val(&mut self, v: &AbsVal) {
        self.pinned.extend(v.labels.iter().copied());
    }

    /// `escapes` is true when the expression's *value* leaves the
    /// tracked world (primitive argument, capture, return value).
    fn simple(&mut self, e: &S0Simple, escapes: bool) {
        match e {
            S0Simple::Var(_) => {
                if escapes {
                    let v = eval(e, self.env, self.refines);
                    self.pin_val(&v);
                }
            }
            S0Simple::Const(_) => {}
            S0Simple::Prim(_, args) => {
                args.iter().for_each(|a| self.simple(a, true));
            }
            S0Simple::MakeClosure(l, args) => {
                if escapes {
                    self.pinned.insert(*l);
                }
                self.sites.entry(*l).or_default().push(args.clone());
                args.iter().for_each(|a| self.simple(a, true));
            }
            // Reading the label does not leak the closure itself.
            S0Simple::ClosureLabel(a) => self.simple(a, false),
            S0Simple::ClosureFreeval(a, i) => {
                self.simple(a, false);
                let v = eval(a, self.env, self.refines);
                if v.other {
                    // The subject may be an escaped (hence pinned)
                    // closure; pin the known labels too — this site
                    // cannot be renumbered for them.
                    self.pin_val(&v);
                } else {
                    let mut prev: Option<u32> = None;
                    for l in &v.labels {
                        self.used.entry(*l).or_default().insert(*i);
                        if let Some(q) = prev {
                            self.classes.union(q, *l);
                        }
                        prev = Some(*l);
                    }
                }
            }
        }
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

    /// main allocates (make-closure 3 a b) and hands it to k; k reads
    /// only slot 1, so slot 0 is droppable.
    fn program_with_dead_slot() -> S0Program {
        S0Program {
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
                    body: S0Tail::Return(S0Simple::ClosureFreeval(Box::new(var("c")), 1)),
                },
            ],
        }
    }

    #[test]
    fn dead_slot_is_droppable() {
        let sa = analyze(&program_with_dead_slot(), &mut fuel()).unwrap();
        assert_eq!(sa.used[&3], std::iter::once(1).collect());
        assert_eq!(sa.prune, BTreeMap::from([(3, vec![0])]));
    }

    #[test]
    fn escaping_closures_are_pinned() {
        // The closure is consed into a pair: it escapes, nothing is
        // pruned even though no slot is read.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec!["a".into()],
                body: S0Tail::Return(S0Simple::Prim(
                    Prim::Cons,
                    vec![S0Simple::MakeClosure(7, vec![var("a")]), kint(0)],
                )),
            }],
        };
        let sa = analyze(&p, &mut fuel()).unwrap();
        assert!(sa.pinned.contains(&7));
        assert!(sa.prune.is_empty(), "{:?}", sa.prune);
    }

    #[test]
    fn non_effect_free_captures_stay() {
        // Slot 0 is dead but its argument (car a) can fault.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall(
                        "k".into(),
                        vec![S0Simple::MakeClosure(
                            1,
                            vec![S0Simple::Prim(Prim::Car, vec![var("a")]), var("a")],
                        )],
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::Return(S0Simple::ClosureFreeval(Box::new(var("c")), 1)),
                },
            ],
        };
        let sa = analyze(&p, &mut fuel()).unwrap();
        assert!(sa.used[&1].contains(&1));
        assert!(sa.prune.is_empty(), "{:?}", sa.prune);
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

    #[test]
    fn multi_label_subjects_share_a_prune_class() {
        // Two labels reach the same freeval site with different dead
        // slots; the class intersection leaves nothing to prune unless
        // both agree.  Label 1 uses slot 0, label 2 uses slot 1 — the
        // shared site reads both, so nothing is droppable.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into(), "t".into()],
                    body: S0Tail::If(
                        var("t"),
                        Box::new(S0Tail::TailCall(
                            "k".into(),
                            vec![S0Simple::MakeClosure(1, vec![var("a"), kint(0)])],
                        )),
                        Box::new(S0Tail::TailCall(
                            "k".into(),
                            vec![S0Simple::MakeClosure(2, vec![kint(0), var("a")])],
                        )),
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::If(
                        dispatch("c", 1),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(
                            Box::new(var("c")),
                            0,
                        ))),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(
                            Box::new(var("c")),
                            1,
                        ))),
                    ),
                },
            ],
        };
        let sa = analyze(&p, &mut fuel()).unwrap();
        // Refinement separates the sites: label 1 only reads slot 0,
        // label 2 (the else arm) only reads slot 1.
        assert_eq!(sa.used[&1], std::iter::once(0).collect());
        assert_eq!(sa.used[&2], std::iter::once(1).collect());
        // Each label can therefore drop its own dead slot.
        assert_eq!(sa.prune, BTreeMap::from([(1, vec![1]), (2, vec![0])]));
    }
}
