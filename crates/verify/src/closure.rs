//! Pass 2 — closure-shape checks.
//!
//! The label analysis is pe-flow's ([`pe_flow::slots::analyze`], shared
//! with pass 6 and the optimizer's dispatch-arm folding): each value is
//! approximated by the set of `make-closure` labels that may reach it,
//! plus an `other` bit for values of unknown (non-`make-closure`)
//! origin.  The analysis is interprocedural (a fixpoint over the
//! tail-call graph) and path-sensitive along sequential label dispatch:
//! inside the `then` branch of `(if (equal? ℓ (closure-label c)) … …)`
//! the subject `c` is refined to label `ℓ`, and in the `else` branch
//! `ℓ` is subtracted.
//!
//! The shapes are used for two checks:
//!
//! * every `(closure-freeval c i)` whose subject has a fully known label
//!   set is compared against the **minimum captured-value count** of
//!   those labels — an index at or past the minimum is a guaranteed
//!   out-of-bounds access on some path (error);
//! * every dispatch chain is audited for **dead arms** (a tested label
//!   that cannot reach the subject) and **non-exhaustiveness** (labels
//!   that fall through to a `%fail` arm) — both warnings.

use crate::report::{Diagnostic, Pass};
use pe_core::{S0Program, S0Simple, S0Tail};
use pe_flow::slots::{eval, AbsVal, Env, Refinements, SlotAnalysis};
use pe_governor::Trap;
use std::collections::BTreeSet;

/// Runs the index/dispatch checks over `p`, whose label analysis is
/// `shapes`; a trapped analysis is reported as one truncation warning.
pub fn check(p: &S0Program, shapes: &Result<SlotAnalysis, Trap>) -> Vec<Diagnostic> {
    let shapes = match shapes {
        Ok(sa) => sa,
        Err(trap) => {
            return vec![Diagnostic::warning(
                Pass::ClosureShape,
                None,
                format!("closure-shape analysis truncated: {trap:?}"),
            )]
        }
    };
    let mut out = Vec::new();
    for pr in &p.procs {
        let env: Env<'_> = pr
            .params
            .iter()
            .map(String::as_str)
            .zip(shapes.shapes[&pr.name].iter().cloned())
            .collect();
        check_tail(&pr.body, &env, &mut Vec::new(), shapes, &pr.name, &mut out);
    }
    out
}

fn fmt_labels(labels: &BTreeSet<u32>) -> String {
    labels.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
}

fn check_tail<'t>(
    t: &'t S0Tail,
    env: &Env<'_>,
    refines: &mut Refinements<'t>,
    shapes: &SlotAnalysis,
    owner: &str,
    out: &mut Vec<Diagnostic>,
) {
    match t {
        S0Tail::Return(s) => check_simple(s, env, refines, shapes, owner, out),
        S0Tail::Fail(_) => {}
        S0Tail::TailCall(_, args) => {
            for a in args {
                check_simple(a, env, refines, shapes, owner, out);
            }
        }
        S0Tail::If(c, a, b) => {
            check_simple(c, env, refines, shapes, owner, out);
            if let Some((subj, k)) = c.dispatch_test() {
                let v = eval(subj, env, refines);
                if !shapes.min_captures.contains_key(&k) {
                    out.push(Diagnostic::warning(
                        Pass::ClosureShape,
                        Some(owner),
                        format!("dispatch arm for label {k} is dead: the label is never allocated"),
                    ));
                } else if !v.other && !v.labels.is_empty() && !v.labels.contains(&k) {
                    out.push(Diagnostic::warning(
                        Pass::ClosureShape,
                        Some(owner),
                        format!(
                            "dispatch arm for label {k} is dead: subject may only carry label(s) {}",
                            fmt_labels(&v.labels)
                        ),
                    ));
                }
                refines.push((subj, AbsVal::of_label(k)));
                check_tail(a, env, refines, shapes, owner, out);
                refines.pop();
                let rest = v.without(k);
                if matches!(&**b, S0Tail::Fail(_)) && !rest.other && !rest.labels.is_empty() {
                    out.push(Diagnostic::warning(
                        Pass::ClosureShape,
                        Some(owner),
                        format!(
                            "sequential dispatch is non-exhaustive: label(s) {} fall through to %fail",
                            fmt_labels(&rest.labels)
                        ),
                    ));
                }
                refines.push((subj, rest));
                check_tail(b, env, refines, shapes, owner, out);
                refines.pop();
            } else {
                check_tail(a, env, refines, shapes, owner, out);
                check_tail(b, env, refines, shapes, owner, out);
            }
        }
    }
}

fn check_simple(
    s: &S0Simple,
    env: &Env<'_>,
    refines: &Refinements<'_>,
    shapes: &SlotAnalysis,
    owner: &str,
    out: &mut Vec<Diagnostic>,
) {
    match s {
        S0Simple::Var(_) | S0Simple::Const(_) => {}
        S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
            for a in args {
                check_simple(a, env, refines, shapes, owner, out);
            }
        }
        S0Simple::ClosureLabel(a) => check_simple(a, env, refines, shapes, owner, out),
        S0Simple::ClosureFreeval(a, i) => {
            check_simple(a, env, refines, shapes, owner, out);
            let v = eval(a, env, refines);
            // Labels with no `make-closure` site in the program cannot
            // occur at run time (closures are an abstract type only this
            // program can create) — a dispatch arm refined to such a
            // label is dead code, not an out-of-bounds access.
            let live: BTreeSet<u32> = v
                .labels
                .iter()
                .copied()
                .filter(|l| shapes.min_captures.contains_key(l))
                .collect();
            if !v.other && !live.is_empty() {
                let min = live
                    .iter()
                    .map(|l| shapes.min_captures[l])
                    .min()
                    .expect("non-empty label set");
                if *i >= min {
                    out.push(Diagnostic::error(
                        Pass::ClosureShape,
                        Some(owner),
                        format!(
                            "closure-freeval index {i} exceeds the captured-value count of label(s) {} (minimum {min})",
                            fmt_labels(&live)
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::S0Proc;
    use pe_frontend::ast::{Constant, Prim};

    fn analyze(p: &S0Program) -> Result<SlotAnalysis, Trap> {
        pe_flow::slots::analyze(p, &mut pe_governor::Fuel::new(&pe_governor::Limits::default()))
    }

    fn var(v: &str) -> S0Simple {
        S0Simple::Var(v.into())
    }

    fn int(n: i64) -> S0Simple {
        S0Simple::Const(Constant::Int(n))
    }

    fn dispatch(k: u32, subj: S0Simple) -> S0Simple {
        S0Simple::Prim(
            Prim::EqualP,
            vec![int(i64::from(k)), S0Simple::ClosureLabel(Box::new(subj))],
        )
    }

    /// entry(x): calls k with (make-closure 7 x); k(c) dispatches on c.
    fn two_proc_program(arm: S0Tail, else_: S0Tail, tested: u32) -> S0Program {
        S0Program {
            entry: "entry".into(),
            procs: vec![
                S0Proc {
                    name: "entry".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(
                        "k".into(),
                        vec![S0Simple::MakeClosure(7, vec![var("x")])],
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::If(
                        dispatch(tested, var("c")),
                        Box::new(arm),
                        Box::new(else_),
                    ),
                },
            ],
        }
    }

    #[test]
    fn freeval_in_range_is_clean() {
        let p = two_proc_program(
            S0Tail::Return(S0Simple::ClosureFreeval(Box::new(var("c")), 0)),
            S0Tail::Fail("no arm".into()),
            7,
        );
        let diags = check(&p, &analyze(&p));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn freeval_out_of_range_is_an_error() {
        let p = two_proc_program(
            S0Tail::Return(S0Simple::ClosureFreeval(Box::new(var("c")), 1)),
            S0Tail::Fail("no arm".into()),
            7,
        );
        let diags = check(&p, &analyze(&p));
        let text: Vec<String> = diags.iter().map(ToString::to_string).collect();
        assert!(
            text.iter().any(|m| m.contains(
                "error[closure-shape] k: closure-freeval index 1 exceeds the captured-value count of label(s) 7 (minimum 1)"
            )),
            "{text:?}"
        );
    }

    #[test]
    fn dead_arm_and_nonexhaustive_fail_are_flagged() {
        // Tests label 9, but only label 7 can reach: the arm is dead and
        // label 7 falls through to %fail.
        let p = two_proc_program(
            S0Tail::Return(int(0)),
            S0Tail::Fail("no arm".into()),
            9,
        );
        let text: Vec<String> = check(&p, &analyze(&p)).iter().map(ToString::to_string).collect();
        assert!(
            text.iter().any(|m| m.contains("dispatch arm for label 9 is dead")),
            "{text:?}"
        );
        assert!(
            text.iter()
                .any(|m| m.contains("non-exhaustive: label(s) 7 fall through to %fail")),
            "{text:?}"
        );
    }

    #[test]
    fn refinement_distinguishes_arms() {
        // Two labels with different capture counts; each arm accesses
        // only what its own label captures — clean thanks to refinement.
        let subj = var("c");
        let p = S0Program {
            entry: "entry".into(),
            procs: vec![
                S0Proc {
                    name: "entry".into(),
                    params: vec!["x".into()],
                    body: S0Tail::If(
                        S0Simple::Prim(Prim::NullP, vec![var("x")]),
                        Box::new(S0Tail::TailCall(
                            "k".into(),
                            vec![S0Simple::MakeClosure(1, vec![var("x"), var("x")])],
                        )),
                        Box::new(S0Tail::TailCall(
                            "k".into(),
                            vec![S0Simple::MakeClosure(2, vec![var("x")])],
                        )),
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::If(
                        dispatch(1, subj.clone()),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(
                            Box::new(subj.clone()),
                            1,
                        ))),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(
                            Box::new(subj),
                            0,
                        ))),
                    ),
                },
            ],
        };
        let diags = check(&p, &analyze(&p));
        assert!(diags.is_empty(), "{diags:?}");
    }
}
