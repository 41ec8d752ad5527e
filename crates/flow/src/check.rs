//! Flow-based verification of S₀ programs.
//!
//! Three checks:
//!
//! * **definite binding** (error) — every variable read is bound on
//!   every path reaching the read.  S₀ binds only at procedure entry
//!   and a body is a tree of tail expressions, so that holds exactly
//!   when the variable is a parameter: one pre-order walk per body
//!   checks each tail expression's reads.  Calls to unknown procedures
//!   and arity mismatches are reported in the same walk — binding
//!   obligations cross procedures through calls.
//! * **dispatch-arm reachability** (warning) — a dispatch arm the label
//!   analysis proves always or never taken is residual noise the
//!   optimizer would fold; reported via [`crate::slots::arm_findings`].
//! * **dead closure slots** (warning) — capture slots never read at any
//!   definite freeval site, listed in
//!   [`SlotAnalysis::prune`](crate::slots::SlotAnalysis::prune).
//!
//! A program that went through [`crate::opt::optimize`] has no
//! decidable dispatch arm left: the arm lint walks the optimizer's own
//! folding traversal.  No pass drops dead slots; pipeline residuals have
//! none, because The Trick's dispatch arms read every slot of an
//! applied closure, so the slot lint flags hand-written or mutated
//! residuals.

use crate::s0::{S0Program, S0Simple, S0Tail};
use crate::slots::SlotAnalysis;
use pe_governor::{Fuel, Trap};
use std::collections::{HashMap, HashSet};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowSeverity {
    /// The program is ill-formed; executing it can go wrong.
    Error,
    /// The program is correct but carries residual noise the flow
    /// optimizer would remove.
    Warning,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDiag {
    /// Severity of the finding.
    pub severity: FlowSeverity,
    /// The procedure the finding is anchored at.
    pub proc: String,
    /// Human-readable description.
    pub message: String,
}

/// Runs all flow checks over `p`, reading dispatch arms and capture
/// slots off `sa`, the label analysis ([`crate::slots::analyze`]) of
/// `p`.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn check(p: &S0Program, sa: &SlotAnalysis, fuel: &mut Fuel) -> Result<Vec<FlowDiag>, Trap> {
    let mut diags = Vec::new();
    let mut arities: HashMap<&str, usize> = HashMap::new();
    for q in &p.procs {
        arities.entry(q.name.as_str()).or_insert(q.params.len());
    }
    for q in &p.procs {
        fuel.step()?;
        let params: HashSet<&str> = q.params.iter().map(String::as_str).collect();
        let mut error = |message| {
            diags.push(FlowDiag { severity: FlowSeverity::Error, proc: q.name.clone(), message });
        };
        check_binding(&q.body, &params, &arities, &mut error);
    }
    for f in crate::slots::arm_findings(p, sa, fuel)? {
        let what = if f.always { "always" } else { "never" };
        diags.push(FlowDiag {
            severity: FlowSeverity::Warning,
            proc: f.proc,
            message: format!("dispatch on closure label {} {what} matches", f.label),
        });
    }
    for (l, idxs) in &sa.prune {
        diags.push(FlowDiag {
            severity: FlowSeverity::Warning,
            proc: proc_of_label(p, *l).unwrap_or_else(|| p.entry.clone()),
            message: format!(
                "closure label {l}: capture slot{} {} never read (prunable)",
                if idxs.len() == 1 { "" } else { "s" },
                idxs.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
            ),
        });
    }
    Ok(diags)
}

/// Reports, in pre-order over `t`, each tail expression's reads of
/// non-parameters (sorted) and then its call's target and arity.
fn check_binding(
    t: &S0Tail,
    params: &HashSet<&str>,
    arities: &HashMap<&str, usize>,
    error: &mut impl FnMut(String),
) {
    let mut reads = HashSet::new();
    match t {
        S0Tail::Return(s) | S0Tail::If(s, _, _) => s.vars(&mut reads),
        S0Tail::TailCall(_, args) => args.iter().for_each(|a| a.vars(&mut reads)),
        S0Tail::Fail(_) => {}
    }
    let mut unbound: Vec<String> =
        reads.into_iter().filter(|v| !params.contains(v.as_str())).collect();
    unbound.sort();
    for v in unbound {
        error(format!("variable `{v}` read but not definitely bound"));
    }
    match t {
        S0Tail::TailCall(callee, args) => match arities.get(callee.as_str()) {
            None => error(format!("call to unknown procedure `{callee}`")),
            Some(&n) if n != args.len() => error(format!(
                "call to `{callee}` passes {} arguments, expects {n}",
                args.len()
            )),
            Some(_) => {}
        },
        S0Tail::If(_, a, b) => {
            check_binding(a, params, arities, error);
            check_binding(b, params, arities, error);
        }
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
    }
}

/// Finds the procedure allocating label `l`, for anchoring diagnostics.
fn proc_of_label(p: &S0Program, l: u32) -> Option<String> {
    fn in_simple(s: &S0Simple, l: u32) -> bool {
        match s {
            S0Simple::Var(_) | S0Simple::Const(_) => false,
            S0Simple::MakeClosure(m, args) => {
                *m == l || args.iter().any(|a| in_simple(a, l))
            }
            S0Simple::Prim(_, args) => args.iter().any(|a| in_simple(a, l)),
            S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => in_simple(a, l),
        }
    }
    fn in_tail(t: &S0Tail, l: u32) -> bool {
        match t {
            S0Tail::Return(s) => in_simple(s, l),
            S0Tail::Fail(_) => false,
            S0Tail::If(c, a, b) => in_simple(c, l) || in_tail(a, l) || in_tail(b, l),
            S0Tail::TailCall(_, args) => args.iter().any(|a| in_simple(a, l)),
        }
    }
    p.procs.iter().find(|q| in_tail(&q.body, l)).map(|q| q.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::S0Proc;
    use pe_frontend::ast::Constant;
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

    fn analyze(p: &S0Program) -> SlotAnalysis {
        crate::slots::analyze(p, &mut fuel()).unwrap()
    }

    #[test]
    fn wellformed_program_is_clean() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec!["x".into()],
                body: S0Tail::Return(var("x")),
            }],
        };
        assert!(check(&p, &analyze(&p), &mut fuel()).unwrap().is_empty());
    }

    #[test]
    fn unbound_reads_and_bad_calls_are_errors() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::If(
                        var("x"),
                        Box::new(S0Tail::Return(var("ghost"))),
                        Box::new(S0Tail::TailCall("f".into(), vec![kint(1), kint(2)])),
                    ),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall("nowhere".into(), vec![var("a")]),
                },
            ],
        };
        let diags = check(&p, &analyze(&p), &mut fuel()).unwrap();
        let errors: Vec<&str> = diags
            .iter()
            .filter(|d| d.severity == FlowSeverity::Error)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert!(errors.iter().any(|m| m.contains("`ghost`")));
        assert!(errors.iter().any(|m| m.contains("expects 1")));
        assert!(errors.iter().any(|m| m.contains("unknown procedure `nowhere`")));
    }

    #[test]
    fn dead_slots_are_warnings_until_optimized() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into(), "b".into()],
                    body: S0Tail::TailCall(
                        "k".into(),
                        vec![S0Simple::MakeClosure(4, vec![var("a"), var("b")])],
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::Return(S0Simple::ClosureFreeval(Box::new(var("c")), 0)),
                },
            ],
        };
        let diags = check(&p, &analyze(&p), &mut fuel()).unwrap();
        let warn: Vec<_> =
            diags.iter().filter(|d| d.severity == FlowSeverity::Warning).collect();
        assert_eq!(warn.len(), 1, "{diags:?}");
        assert!(warn[0].message.contains("capture slot 1"), "{}", warn[0].message);
        assert_eq!(warn[0].proc, "main");

        // After the pipeline's optimizer the very same lint comes back
        // empty: post inlines `k` and folds the freeval of the fresh
        // closure, so no closure is left.
        let posted = crate::opt::postprocess(p);
        let (q, stats) = crate::opt::optimize(posted, &mut fuel()).unwrap();
        assert_eq!(stats.slots_pruned, 0, "{stats:?}");
        assert!(check(&q, &analyze(&q), &mut fuel()).unwrap().is_empty(), "{q}");
    }

    #[test]
    fn decidable_dispatch_arms_are_warnings() {
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
                        S0Simple::Prim(
                            pe_frontend::Prim::EqualP,
                            vec![kint(9), S0Simple::ClosureLabel(Box::new(var("c")))],
                        ),
                        Box::new(S0Tail::Fail("unreachable".into())),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(
                            Box::new(var("c")),
                            0,
                        ))),
                    ),
                },
            ],
        };
        let diags = check(&p, &analyze(&p), &mut fuel()).unwrap();
        assert!(
            diags.iter().any(|d| d.severity == FlowSeverity::Warning
                && d.proc == "k"
                && d.message.contains("never matches")),
            "{diags:?}"
        );
    }

    #[test]
    fn unreachable_nodes_carry_no_binding_obligation() {
        // A constant-false branch guards a read of a variable that is
        // bound on that (dead) path only in spirit; definite binding
        // must still flag it because the node IS reachable in the CFG.
        // Conversely a node behind no predecessors at all would carry
        // None facts — the S₀ CFG has no such nodes by construction,
        // so we assert the reachable-read error fires.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec![],
                body: S0Tail::If(
                    S0Simple::Const(Constant::Bool(false)),
                    Box::new(S0Tail::Return(var("phantom"))),
                    Box::new(S0Tail::Return(kint(0))),
                ),
            }],
        };
        let diags = check(&p, &analyze(&p), &mut fuel()).unwrap();
        assert!(diags.iter().any(|d| d.message.contains("`phantom`")), "{diags:?}");
    }
}
