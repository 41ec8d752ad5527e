//! Pass 6: dataflow verification, adapting [`pe_flow::check()`] to this
//! crate's diagnostic vocabulary.
//!
//! The flow checks complement the syntactic passes: definite binding
//! and call obligations are checked per tail expression, and the two
//! residual-quality lints — statically decidable dispatch arms, capture
//! slots never read — read the label analysis the flow optimizer folds
//! arms with (and pass 2 checks with).  A program that went through
//! `pe_flow::optimize` therefore has no decidable arm; flagging one on
//! pipeline output means the fold was skipped (or its fuel budget
//! trapped).  No pass drops dead slots: The Trick's dispatch arms read
//! every slot of an applied closure, so pipeline residuals have none,
//! and the slot lint flags hand-written or mutated residuals.

use crate::report::{Diagnostic, Pass};
use pe_core::S0Program;
use pe_flow::slots::SlotAnalysis;
use pe_governor::{Fuel, Limits, Trap};

/// Runs the flow checks over `p`, whose label analysis is `shapes`,
/// mapping findings to [`Diagnostic`]s.
///
/// Infallible like the other passes: if the analysis budget traps, a
/// single warning reports the truncation instead of failing the run.
pub fn check(p: &S0Program, shapes: &Result<SlotAnalysis, Trap>) -> Vec<Diagnostic> {
    let mut fuel = Fuel::new(&Limits::default());
    match shapes.as_ref().map_err(Clone::clone).and_then(|sa| pe_flow::check(p, sa, &mut fuel)) {
        Ok(diags) => diags
            .into_iter()
            .map(|d| {
                let proc_name = Some(d.proc.as_str());
                match d.severity {
                    pe_flow::FlowSeverity::Error => {
                        Diagnostic::error(Pass::Flow, proc_name, d.message)
                    }
                    pe_flow::FlowSeverity::Warning => {
                        Diagnostic::warning(Pass::Flow, proc_name, d.message)
                    }
                }
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

    fn analyze(p: &S0Program) -> Result<SlotAnalysis, Trap> {
        pe_flow::slots::analyze(p, &mut Fuel::new(&Limits::default()))
    }

    #[test]
    fn flow_errors_surface_as_flow_pass_diagnostics() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec![],
                body: S0Tail::Return(S0Simple::Var("ghost".into())),
            }],
        };
        let diags = check(&p, &analyze(&p));
        assert!(
            diags.iter().any(|d| d.pass == Pass::Flow
                && d.severity == crate::Severity::Error
                && d.message.contains("ghost")),
            "{diags:?}"
        );
    }

    #[test]
    fn clean_program_produces_no_flow_diagnostics() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec!["x".into()],
                body: S0Tail::Return(S0Simple::Var("x".into())),
            }],
        };
        assert!(check(&p, &analyze(&p)).is_empty());
    }
}
