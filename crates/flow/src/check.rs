//! The S₀ well-formedness check.
//!
//! One walk over a program establishes what every consumer of a
//! residual assumes: the entry position names a procedure, procedure
//! names are unique, parameters are unique, every variable position a
//! body reads names one of its procedure's parameters, every call's
//! position names a procedure with matching arity, and every primitive
//! application has the primitive's arity.  S₀ binds only at procedure
//! entry and a body is a tree of tail expressions, so a variable is
//! bound on every path reaching its read exactly when its position is
//! one of its procedure's parameters.  Duplicate names change nothing
//! that runs — every consumer reads positions — but the printed program
//! must read back unambiguously, so they are errors too.
//!
//! pe-verify reports these findings as its pass 1; the optimizer's and
//! pe-core's tests call [`check()`] directly.  The tail-form grammar
//! itself is enforced twice: structurally by the
//! [`S0Tail`]/[`S0Simple`] types, and on the concrete syntax by
//! pe-verify's preservation certificate.

use crate::s0::{S0Program, S0Simple, S0Tail};
use std::collections::{BTreeSet, HashSet};

/// One violation; every finding is an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDiag {
    /// The offending procedure, if the finding is attributable to one.
    pub proc: Option<String>,
    /// Human-readable description.
    pub message: String,
}

/// Checks `p` and lists its violations: a missing entry first, then per
/// procedure in program order a repeated name, its duplicate
/// parameters, its unbound variable positions (ascending), and in
/// pre-order over its body each call's target and arity and each
/// primitive's arity.
#[must_use]
pub fn check(p: &S0Program) -> Vec<FlowDiag> {
    let mut out = Vec::new();
    let n = p.procs.len();
    if p.entry >= n {
        let message =
            format!("entry procedure at position {} is not defined ({n} procedure(s))", p.entry);
        out.push(FlowDiag { proc: None, message });
    }
    let mut names = HashSet::new();
    for q in &p.procs {
        let mut error =
            |message| out.push(FlowDiag { proc: Some(q.name.clone()), message });
        if !names.insert(q.name.as_str()) {
            error("duplicate procedure definition".to_string());
        }
        let mut params = HashSet::new();
        for v in &q.params {
            if !params.insert(v.as_str()) {
                error(format!("duplicate parameter {v}"));
            }
        }
        let arity = q.params.len();
        let mut unbound = BTreeSet::new();
        q.body.vars(&mut |k| {
            if k >= arity {
                unbound.insert(k);
            }
        });
        for k in unbound {
            error(format!("unbound variable at position {k} ({arity} parameter(s))"));
        }
        check_tail(&q.body, p, &mut error);
    }
    out
}

fn check_tail(t: &S0Tail, p: &S0Program, error: &mut impl FnMut(String)) {
    match t {
        S0Tail::Return(s) => check_simple(s, error),
        S0Tail::Fail(_) => {}
        S0Tail::If(c, a, b) => {
            check_simple(c, error);
            check_tail(a, p, error);
            check_tail(b, p, error);
        }
        S0Tail::TailCall(callee, args) => {
            match p.procs.get(*callee) {
                None => error(format!(
                    "call to undefined procedure at position {callee} ({} procedure(s))",
                    p.procs.len()
                )),
                Some(q) if q.params.len() != args.len() => error(format!(
                    "call to {} with {} argument(s), expected {}",
                    q.name,
                    args.len(),
                    q.params.len()
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

    fn var(k: usize) -> S0Simple {
        S0Simple::Var(k)
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
            entry: 0,
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec!["x".into()],
                body: S0Tail::Return(var(0)),
            }],
        };
        assert!(check(&p).is_empty());
    }

    #[test]
    fn unbound_reads_and_bad_calls_are_errors() {
        let p = S0Program {
            entry: 3,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into(), "x".into()],
                    body: S0Tail::If(
                        var(0),
                        Box::new(S0Tail::Return(S0Simple::Prim(Prim::Car, vec![var(4)]))),
                        Box::new(S0Tail::TailCall(1, vec![kint(1), kint(2)])),
                    ),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall(
                        7,
                        vec![S0Simple::Prim(Prim::Cons, vec![var(0)])],
                    ),
                },
                S0Proc { name: "f".into(), params: vec![], body: S0Tail::Fail("x".into()) },
            ],
        };
        assert_eq!(
            messages(&p),
            [
                "entry procedure at position 3 is not defined (3 procedure(s))",
                "main: duplicate parameter x",
                "main: unbound variable at position 4 (2 parameter(s))",
                "main: call to f with 2 argument(s), expected 1",
                "f: call to undefined procedure at position 7 (3 procedure(s))",
                "f: primitive cons applied to 1 argument(s), expected 2",
                "f: duplicate procedure definition",
            ]
        );
    }

    #[test]
    fn unreachable_nodes_carry_no_binding_obligation() {
        // A read behind a constant-false test is still a read: binding
        // is checked per tail expression, whatever the tests decide, so
        // the unbound position is flagged.
        let p = S0Program {
            entry: 0,
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec![],
                body: S0Tail::If(
                    S0Simple::Const(Constant::Bool(false)),
                    Box::new(S0Tail::Return(var(0))),
                    Box::new(S0Tail::Return(kint(0))),
                ),
            }],
        };
        assert_eq!(messages(&p), ["main: unbound variable at position 0 (0 parameter(s))"]);
    }
}
