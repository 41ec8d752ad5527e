//! Flow-based verification of S₀ programs.
//!
//! Three checks, all driven by the analyses in this crate rather than
//! syntax walks:
//!
//! * **definite binding** (error) — every variable read at a reachable
//!   program point is definitely bound along *all* paths reaching it,
//!   established by a forward must-analysis on the CFG (the definite
//!   set is intersected over predecessors; unreachable nodes carry no
//!   obligation).  Calls to unknown procedures and arity mismatches
//!   are reported here too — binding obligations cross procedures
//!   through calls.
//! * **dispatch-arm reachability** (warning) — a dispatch arm the label
//!   analysis proves always or never taken is residual noise the
//!   optimizer would fold; reported via [`crate::slots::arm_findings`].
//! * **dead closure slots** (warning) — capture slots never read at any
//!   definite freeval site, prunable by [`crate::slots::prune`].
//!
//! A program that went through [`crate::opt::optimize`] satisfies both
//! warning lints by construction: the lints mirror the optimizer's own
//! analyses, so anything they would flag has already been rewritten.

use crate::cfg::{Cfg, Node};
use crate::s0::{S0Program, S0Simple};
use crate::solver::{solve, Analysis, Direction};
use pe_governor::{Fuel, Trap};
use std::collections::{BTreeSet, HashMap, HashSet};

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

/// Definite binding as a forward must-analysis: the fact is the set of
/// variables definitely bound on *every* path to the point, `None`
/// meaning "unreachable" (the lattice bottom, neutral for the
/// intersection join).
struct DefiniteBinding {
    params: BTreeSet<String>,
}

impl Analysis for DefiniteBinding {
    type Fact = Option<BTreeSet<String>>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> Self::Fact {
        Some(self.params.clone())
    }

    fn bottom(&self) -> Self::Fact {
        None
    }

    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        match (&*into, from) {
            (_, None) => false,
            (None, Some(_)) => {
                *into = from.clone();
                true
            }
            (Some(a), Some(b)) => {
                let meet: BTreeSet<String> = a.intersection(b).cloned().collect();
                let changed = meet.len() != a.len();
                *into = Some(meet);
                changed
            }
        }
    }

    // S₀ binds only at procedure entry: nodes neither add nor kill.
    fn transfer(&self, _node: &Node, fact: &Self::Fact) -> Self::Fact {
        fact.clone()
    }
}

fn node_reads(node: &Node, out: &mut HashSet<String>) {
    match node {
        Node::Entry | Node::Fail(_) => {}
        Node::Branch(c) | Node::Return(c) => c.vars(out),
        Node::Call(_, args) => args.iter().for_each(|a| a.vars(out)),
    }
}

/// Runs all flow checks over `p`.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn check(p: &S0Program, fuel: &mut Fuel) -> Result<Vec<FlowDiag>, Trap> {
    let mut diags = Vec::new();
    let arities: HashMap<&str, usize> =
        p.procs.iter().map(|q| (q.name.as_str(), q.params.len())).collect();
    for q in &p.procs {
        fuel.step()?;
        // Definite binding at every reachable point.
        let cfg = Cfg::build(q);
        let analysis = DefiniteBinding { params: q.params.iter().cloned().collect() };
        let facts = solve(&cfg, &analysis, fuel)?;
        for (i, node) in cfg.nodes.iter().enumerate() {
            let Some(bound) = &facts[i] else { continue };
            let mut reads = HashSet::new();
            node_reads(node, &mut reads);
            let mut unbound: Vec<&String> =
                reads.iter().filter(|v| !bound.contains(*v)).collect();
            unbound.sort();
            for v in unbound {
                diags.push(FlowDiag {
                    severity: FlowSeverity::Error,
                    proc: q.name.clone(),
                    message: format!("variable `{v}` read but not definitely bound"),
                });
            }
            // Binding obligations across calls: target and arity.
            if let Node::Call(callee, args) = node {
                match arities.get(callee.as_str()) {
                    None => diags.push(FlowDiag {
                        severity: FlowSeverity::Error,
                        proc: q.name.clone(),
                        message: format!("call to unknown procedure `{callee}`"),
                    }),
                    Some(&n) if n != args.len() => diags.push(FlowDiag {
                        severity: FlowSeverity::Error,
                        proc: q.name.clone(),
                        message: format!(
                            "call to `{callee}` passes {} arguments, expects {n}",
                            args.len()
                        ),
                    }),
                    Some(_) => {}
                }
            }
        }
    }
    // Dispatch arms decidable from label sets alone, then capture slots
    // never read at any definite site: one label analysis serves both.
    let sa = crate::slots::analyze(p, fuel)?;
    for f in crate::slots::arm_findings(p, &sa, fuel)? {
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
    fn in_tail(t: &crate::s0::S0Tail, l: u32) -> bool {
        use crate::s0::S0Tail;
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
    use crate::s0::{S0Proc, S0Tail};
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
        assert!(check(&p, &mut fuel()).unwrap().is_empty());
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
        let diags = check(&p, &mut fuel()).unwrap();
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
        let diags = check(&p, &mut fuel()).unwrap();
        let warn: Vec<_> =
            diags.iter().filter(|d| d.severity == FlowSeverity::Warning).collect();
        assert_eq!(warn.len(), 1, "{diags:?}");
        assert!(warn[0].message.contains("capture slot 1"), "{}", warn[0].message);
        assert_eq!(warn[0].proc, "main");

        // After the optimizer the very same lint comes back empty.
        let (q, stats) = crate::opt::optimize(p, &mut fuel()).unwrap();
        assert!(stats.slots_pruned >= 1, "{stats:?}");
        assert!(check(&q, &mut fuel()).unwrap().is_empty(), "{q}");
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
        let diags = check(&p, &mut fuel()).unwrap();
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
        let diags = check(&p, &mut fuel()).unwrap();
        assert!(diags.iter().any(|d| d.message.contains("`phantom`")), "{diags:?}");
    }
}
