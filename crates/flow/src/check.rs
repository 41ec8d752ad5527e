//! The S₀ well-formedness check.
//!
//! One walk over a program establishes what every consumer of a
//! residual assumes: the entry procedure exists, procedure names are
//! unique, parameters are unique, every variable a body reads is bound,
//! every call targets a defined procedure with matching arity, and every
//! primitive application has the primitive's arity.  S₀ binds only at
//! procedure entry and a body is a tree of tail expressions, so a
//! variable is bound on every path reaching its read exactly when it is
//! a parameter of its procedure.  A call resolves to the name's first
//! definition, as everywhere.
//!
//! pe-verify reports these findings as its pass 1; the optimizer's and
//! pe-core's tests call [`check()`] directly.  The tail-form grammar
//! itself is enforced twice: structurally by the
//! [`S0Tail`]/[`S0Simple`] types, and on the concrete syntax by
//! pe-verify's preservation certificate.

use crate::s0::{S0Program, S0Simple, S0Tail};
use std::collections::HashSet;

/// One violation; every finding is an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDiag {
    /// The offending procedure, if the finding is attributable to one.
    pub proc: Option<String>,
    /// Human-readable description.
    pub message: String,
}

/// Checks `p` and lists its violations: a missing entry first, then per
/// procedure in program order a duplicate definition, its duplicate
/// parameters, its unbound variables (sorted), and in pre-order over
/// its body each call's target and arity and each primitive's arity.
#[must_use]
pub fn check(p: &S0Program) -> Vec<FlowDiag> {
    let mut out = Vec::new();
    // On duplicate definitions the *first* wins, matching lookup order;
    // a later one is reported as a duplicate.
    let first = p.first_definitions();
    let arity = |name: &str| first.get(name).map(|&i| p.procs[i].params.len());
    if arity(&p.entry).is_none() {
        out.push(FlowDiag {
            proc: None,
            message: format!("entry procedure {} is not defined", p.entry),
        });
    }
    for (i, q) in p.procs.iter().enumerate() {
        let mut error =
            |message| out.push(FlowDiag { proc: Some(q.name.clone()), message });
        if first[q.name.as_str()] != i {
            error("duplicate procedure definition".to_string());
        }
        let mut params = HashSet::new();
        for v in &q.params {
            if !params.insert(v.as_str()) {
                error(format!("duplicate parameter {v}"));
            }
        }
        let mut reads = HashSet::new();
        q.body.vars(&mut reads);
        let mut unbound: Vec<String> =
            reads.into_iter().filter(|v| !params.contains(v.as_str())).collect();
        unbound.sort();
        for v in unbound {
            error(format!("unbound variable {v}"));
        }
        check_tail(&q.body, &arity, &mut error);
    }
    out
}

fn check_tail(
    t: &S0Tail,
    arity: &impl Fn(&str) -> Option<usize>,
    error: &mut impl FnMut(String),
) {
    match t {
        S0Tail::Return(s) => check_simple(s, error),
        S0Tail::Fail(_) => {}
        S0Tail::If(c, a, b) => {
            check_simple(c, error);
            check_tail(a, arity, error);
            check_tail(b, arity, error);
        }
        S0Tail::TailCall(callee, args) => {
            match arity(callee) {
                None => error(format!("call to undefined procedure {callee}")),
                Some(n) if n != args.len() => error(format!(
                    "call to {callee} with {} argument(s), expected {n}",
                    args.len()
                )),
                Some(_) => {}
            }
            args.iter().for_each(|a| check_simple(a, error));
        }
    }
}

fn check_simple(s: &S0Simple, error: &mut impl FnMut(String)) {
    match s {
        S0Simple::Var(_) | S0Simple::Const(_) => {}
        S0Simple::Prim(op, args) => {
            if args.len() != op.arity() {
                error(format!(
                    "primitive {op} applied to {} argument(s), expected {}",
                    args.len(),
                    op.arity()
                ));
            }
            args.iter().for_each(|a| check_simple(a, error));
        }
        S0Simple::MakeClosure(_, args) => args.iter().for_each(|a| check_simple(a, error)),
        S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => check_simple(a, error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::S0Proc;
    use pe_frontend::ast::Constant;
    use pe_frontend::Prim;

    fn var(v: &str) -> S0Simple {
        S0Simple::Var(v.into())
    }

    fn kint(n: i64) -> S0Simple {
        S0Simple::Const(Constant::Int(n))
    }

    fn messages(p: &S0Program) -> Vec<String> {
        check(p)
            .into_iter()
            .map(|d| match d.proc {
                Some(q) => format!("{q}: {}", d.message),
                None => d.message,
            })
            .collect()
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
        assert!(check(&p).is_empty());
    }

    #[test]
    fn unbound_reads_and_bad_calls_are_errors() {
        let p = S0Program {
            entry: "ghost-entry".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into(), "x".into()],
                    body: S0Tail::If(
                        var("x"),
                        Box::new(S0Tail::Return(S0Simple::Prim(Prim::Car, vec![var("ghost")]))),
                        Box::new(S0Tail::TailCall("f".into(), vec![kint(1), kint(2)])),
                    ),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall(
                        "nowhere".into(),
                        vec![S0Simple::Prim(Prim::Cons, vec![var("a")])],
                    ),
                },
                S0Proc { name: "f".into(), params: vec![], body: S0Tail::Fail("x".into()) },
            ],
        };
        assert_eq!(
            messages(&p),
            [
                "entry procedure ghost-entry is not defined",
                "main: duplicate parameter x",
                "main: unbound variable ghost",
                "main: call to f with 2 argument(s), expected 1",
                "f: call to undefined procedure nowhere",
                "f: primitive cons applied to 1 argument(s), expected 2",
                "f: duplicate procedure definition",
            ]
        );
    }

    #[test]
    fn unreachable_nodes_carry_no_binding_obligation() {
        // A read behind a constant-false test is still a read: binding
        // is checked per tail expression, whatever the tests decide, so
        // the unbound `phantom` is flagged.
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
        assert_eq!(messages(&p), ["main: unbound variable phantom"]);
    }
}
