//! Pass 1 — well-formedness of S₀ programs.
//!
//! The check is pe-flow's [`pe_flow::check()`] (entry, unique names and
//! parameters, binding, call and primitive arity), which the optimizer's
//! and the specializer's tests call too, since neither crate can depend
//! on this one; this pass reports each finding as a [`Pass::WellFormed`]
//! error.  The tail-form grammar itself is enforced twice: structurally
//! by the `S0Tail`/`S0Simple` types, and on the concrete syntax by the
//! [preservation](crate::preservation) certificate, the check that does
//! not depend on the Rust types.

use crate::report::{Diagnostic, Pass};
use pe_core::S0Program;

/// Runs the pass.
pub fn check(p: &S0Program) -> Vec<Diagnostic> {
    pe_flow::check(p)
        .into_iter()
        .map(|d| Diagnostic::error(Pass::WellFormed, d.proc.as_deref(), d.message))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::{S0Proc, S0Simple, S0Tail};
    use pe_frontend::ast::{Constant, Prim};

    fn var(k: usize) -> S0Simple {
        S0Simple::Var(k)
    }

    #[test]
    fn catches_all_basic_violations() {
        let prog = S0Program {
            entry: 2,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into(), "x".into()],
                    body: S0Tail::If(
                        var(2),
                        Box::new(S0Tail::TailCall(5, vec![])),
                        Box::new(S0Tail::TailCall(0, vec![var(0)])),
                    ),
                },
                S0Proc {
                    name: "main".into(),
                    params: vec![],
                    body: S0Tail::Return(S0Simple::Prim(Prim::Car, vec![])),
                },
            ],
        };
        let msgs: Vec<String> = check(&prog).iter().map(ToString::to_string).collect();
        let text = msgs.join("\n");
        assert!(text.contains("entry procedure at position 2 is not defined"), "{text}");
        assert!(text.contains("main: duplicate parameter x"), "{text}");
        assert!(text.contains("main: unbound variable at position 2 (2 parameter(s))"), "{text}");
        assert!(text.contains("main: call to undefined procedure at position 5"), "{text}");
        assert!(text.contains("main: call to main with 1 argument(s), expected 2"), "{text}");
        assert!(text.contains("main: duplicate procedure definition"), "{text}");
        assert!(text.contains("main: primitive car applied to 0 argument(s), expected 1"), "{text}");
    }

    #[test]
    fn accepts_wellformed_loop() {
        let prog = S0Program {
            entry: 0,
            procs: vec![S0Proc {
                name: "loop".into(),
                params: vec!["n".into()],
                body: S0Tail::If(
                    S0Simple::Prim(Prim::ZeroP, vec![var(0)]),
                    Box::new(S0Tail::Return(S0Simple::Const(Constant::Int(0)))),
                    Box::new(S0Tail::TailCall(
                        0,
                        vec![S0Simple::Prim(
                            Prim::Sub,
                            vec![var(0), S0Simple::Const(Constant::Int(1))],
                        )],
                    )),
                ),
            }],
        };
        assert!(check(&prog).is_empty());
    }
}
