//! Pass 6: the optimizer-mirroring arm lint.
//!
//! A dispatch arm that pe-flow's label analysis proves always or never
//! taken is residual noise the flow optimizer folds: this pass reports
//! the arms [`pe_flow::slots::arm_findings`] lists, which walks the
//! optimizer's own folding traversal over the label analysis pass 2
//! reads.  A program that went through `pe_flow::optimize` therefore has
//! no decidable arm; flagging one on pipeline output means the fold was
//! skipped (or its fuel budget trapped).

use crate::report::{Diagnostic, Pass};
use pe_core::S0Program;
use pe_flow::slots::SlotAnalysis;
use pe_governor::{Fuel, Limits, Trap};

/// Reports each decidable dispatch arm of `p`, whose label analysis is
/// `shapes`, as a warning.
///
/// Infallible like the other passes: if the analysis budget traps, a
/// single warning reports the truncation instead of failing the run.
pub fn check(p: &S0Program, shapes: &Result<SlotAnalysis, Trap>) -> Vec<Diagnostic> {
    let mut fuel = Fuel::new(&Limits::default());
    let findings = shapes
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|sa| pe_flow::slots::arm_findings(p, sa, &mut fuel));
    match findings {
        Ok(findings) => findings
            .into_iter()
            .map(|f| {
                let what = if f.always { "always" } else { "never" };
                Diagnostic::warning(
                    Pass::Flow,
                    Some(&f.proc),
                    format!("dispatch on closure label {} {what} matches", f.label),
                )
            })
            .collect(),
        Err(trap) => vec![Diagnostic::warning(
            Pass::Flow,
            None,
            format!("flow verification truncated: {trap:?}"),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::{S0Proc, S0Simple, S0Tail};
    use pe_frontend::ast::{Constant, Prim};

    fn analyze(p: &S0Program) -> Result<SlotAnalysis, Trap> {
        pe_flow::slots::analyze(p, &mut Fuel::new(&Limits::default()))
    }

    #[test]
    fn decidable_dispatch_arms_are_warnings() {
        let c = || Box::new(S0Simple::Var(0));
        let p = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall(1, vec![S0Simple::MakeClosure(2, vec![S0Simple::Var(0)])]),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::If(
                        S0Simple::Prim(
                            Prim::EqualP,
                            vec![
                                S0Simple::Const(Constant::Int(9)),
                                S0Simple::ClosureLabel(c()),
                            ],
                        ),
                        Box::new(S0Tail::Fail("unreachable".into())),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(c(), 0))),
                    ),
                },
            ],
        };
        let text: Vec<String> =
            check(&p, &analyze(&p)).iter().map(ToString::to_string).collect();
        assert_eq!(text, ["warning[flow] k: dispatch on closure label 9 never matches"]);
    }

    #[test]
    fn clean_program_produces_no_flow_diagnostics() {
        let p = S0Program {
            entry: 0,
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec!["x".into()],
                body: S0Tail::Return(S0Simple::Var(0)),
            }],
        };
        assert!(check(&p, &analyze(&p)).is_empty());
    }
}
