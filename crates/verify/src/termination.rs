//! Pass 7: the termination audit.
//!
//! The size-change termination analysis (`pe-sct`) classifies every
//! specialization-point candidate before the specializer runs; the
//! specializer logs every widening and eager generalization it actually
//! performs ([`pe_core::ControlEvent`]).  This pass checks the log
//! against the verdicts:
//!
//! * a *dynamically discovered* widening (slot cap, prefix cap) at a
//!   label the analysis classified **bounded** means the verdict
//!   over-claimed or the slot annotation leaked a widened slot into a
//!   provably descending position — warn;
//! * a context-stack flush at a label the analysis did *not* mark as
//!   stack-growing means the static call-graph missed a recursion the
//!   specializer then discovered — warn.
//!
//! Eager events (`SlotEager`, `StackEager`) are the analysis working as
//! designed and are never diagnosed.  The pass is advisory
//! (warning-severity): the residual program is still correct, the
//! *prediction* was incomplete.

use crate::report::{Diagnostic, Pass};
use pe_core::{CompileAudit, ControlKind};
use pe_sct::Verdict;

/// Audits one compile's control log against its SCT verdicts.  With the
/// analysis disabled there is nothing to check.
#[must_use]
pub fn check(audit: &CompileAudit) -> Vec<Diagnostic> {
    if !audit.enabled {
        return Vec::new();
    }
    let mut out = Vec::new();
    for e in &audit.events {
        match e.kind {
            ControlKind::SlotWiden | ControlKind::PrefixWiden => {
                if audit.verdicts.at_label(e.label) == Verdict::Bounded {
                    let what = match (e.kind, &e.var) {
                        (ControlKind::SlotWiden, Some(v)) => {
                            format!("slot {v} was widened")
                        }
                        (ControlKind::SlotWiden, None) => "a slot was widened".to_string(),
                        _ => "the context prefix was widened".to_string(),
                    };
                    out.push(Diagnostic::warning(
                        Pass::Termination,
                        None,
                        format!(
                            "{what} at label {} although size-change analysis \
                             classified the point bounded — leftover widened slot \
                             in a provably descending position",
                            e.label
                        ),
                    ));
                }
            }
            ControlKind::StackFlush => {
                if !audit.verdicts.on_stack(e.label) {
                    out.push(Diagnostic::warning(
                        Pass::Termination,
                        None,
                        format!(
                            "context stack flushed at label {} which size-change \
                             analysis did not mark as stack-growing — the static \
                             call graph missed a recursion",
                            e.label
                        ),
                    ));
                }
            }
            ControlKind::SlotEager | ControlKind::StackEager => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::ControlEvent;
    use pe_frontend::ProcId;
    use pe_sct::Verdicts;

    fn audit(events: Vec<ControlEvent>, verdicts: Verdicts) -> CompileAudit {
        CompileAudit { enabled: true, verdicts, stats: Default::default(), events }
    }

    /// One procedure, classified `verdict`, owning only `label`.
    fn owning(label: u32, verdict: Verdict, recursive: bool) -> Verdicts {
        let mut owners = vec![None; label as usize + 1];
        owners[label as usize] = Some(ProcId(0));
        Verdicts { procs: vec![verdict], recursive: vec![recursive], owners, ..Verdicts::default() }
    }

    #[test]
    fn disabled_audit_produces_nothing() {
        let a = CompileAudit {
            events: vec![ControlEvent { label: 1, kind: ControlKind::SlotWiden, var: None }],
            ..CompileAudit::default()
        };
        assert!(check(&a).is_empty());
    }

    #[test]
    fn widening_at_a_bounded_point_is_flagged() {
        let a = audit(
            vec![ControlEvent {
                label: 7,
                kind: ControlKind::SlotWiden,
                var: Some("n".into()),
            }],
            owning(7, Verdict::Bounded, false),
        );
        let diags = check(&a);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("slot n"), "{}", diags[0]);
        assert!(diags[0].message.contains("bounded"), "{}", diags[0]);
    }

    #[test]
    fn widening_at_an_unknown_point_is_expected() {
        // Unknown verdicts keep the dynamic machinery; its firings are
        // not findings.
        let a = audit(
            vec![ControlEvent { label: 3, kind: ControlKind::SlotWiden, var: None }],
            Verdicts::default(),
        );
        assert!(check(&a).is_empty());
    }

    #[test]
    fn unannotated_stack_flush_is_flagged() {
        let a = audit(
            vec![
                ControlEvent { label: 4, kind: ControlKind::StackFlush, var: None },
                ControlEvent { label: 9, kind: ControlKind::StackFlush, var: None },
            ],
            owning(4, Verdict::Unknown, true),
        );
        let diags = check(&a);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("label 9"), "{}", diags[0]);
    }

    #[test]
    fn eager_events_are_never_diagnosed() {
        let a = audit(
            vec![
                ControlEvent { label: 1, kind: ControlKind::SlotEager, var: Some("k".into()) },
                ControlEvent { label: 2, kind: ControlKind::StackEager, var: None },
            ],
            Verdicts::default(),
        );
        assert!(check(&a).is_empty());
    }
}
