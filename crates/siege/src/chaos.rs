//! The chaos-budget layer: every case, re-run under starvation.
//!
//! [`Limits::ladder`] produces a shrinking sequence of budgets — each
//! rung halves fuel, call depth, unfold depth, heap and residual
//! count, ending at the all-floors-1 starvation rung.  Robust
//! execution ([`Pipeline::compile_robust`]) is driven once per rung
//! and must *never* do anything other than return a value or a
//! structured trap:
//!
//! * a panic at any rung is a finding;
//! * an `Ok` value must equal the oracle's reference value (budget
//!   starvation may stop a program, never corrupt it);
//! * an `Err` must be a budget trap, or the same runtime-error class
//!   the full-budget oracle saw for that execution mode;
//! * within one execution mode (compiled / degraded-to-interpreter),
//!   success is monotone in budget: once a mode fails at some rung it
//!   must not succeed again at a *lower* rung.
//!
//! Mode switches themselves are expected — tighter compile budgets
//! push cases from compiled to degraded — which is why monotonicity is
//! tracked per mode rather than globally.

use crate::oracle::Outcome;
use pe_core::CompileOptions;
use pe_faultline::no_panic;
use pe_governor::Limits;
use pe_interp::Datum;
use pe_trace::{NullSink, Sink};
use realistic_pe::{Pipeline, PipelineError, RobustExec};

/// What the ladder observed for one case.
#[derive(Debug, Default)]
pub struct LadderReport {
    /// Rungs executed.
    pub runs: u64,
    /// Rungs that fell back to the degraded interpreter.
    pub degraded: u64,
    /// First violation, as `(class, detail)`.
    pub finding: Option<(&'static str, String)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Compiled = 0,
    Degraded = 1,
}

/// Runs the full ladder for one case.  `reference` is the oracle's
/// tail-interpreter outcome at full budget (the value any successful
/// rung must reproduce); `vm_reference` the default-VM outcome (the
/// error class a compiled rung may legitimately repeat).
#[allow(clippy::too_many_arguments)] // one call site; a params struct would just rename the arguments
pub fn ladder_check(
    pipe: &Pipeline,
    entry: &str,
    args: &[Datum],
    base: Limits,
    rungs: usize,
    reference: &Outcome,
    vm_reference: &Outcome,
    sink: &mut dyn Sink,
) -> LadderReport {
    let mut report = LadderReport::default();
    let ref_value = match reference {
        Outcome::Value(d) => Some(d),
        _ => match vm_reference {
            Outcome::Value(d) => Some(d),
            _ => None,
        },
    };
    // Per-mode: has this mode already failed at a (higher) rung?
    let mut failed = [false, false];

    for rung in base.ladder(rungs) {
        report.runs += 1;
        if sink.enabled() {
            sink.counter(pe_trace::Counter::SiegeLadderRuns, 1);
        }
        let opts = CompileOptions { limits: rung, ..CompileOptions::default() };
        let step = no_panic(|| match pipe.compile_robust(entry, &opts, &mut NullSink) {
            Ok(RobustExec::Compiled(vm)) => (
                Mode::Compiled,
                vm.run(args, rung).map(|(d, _)| d).map_err(RungError::from),
            ),
            Ok(RobustExec::Degraded { .. }) => (
                Mode::Degraded,
                pe_interp::tail::run(&pipe.dprog, entry, args, rung)
                    .map_err(RungError::from),
            ),
            Err(e) => (Mode::Compiled, Err(compile_refusal(&e))),
        });
        let (mode, result) = match step {
            Ok(pair) => pair,
            Err(panic_msg) => {
                report.finding = Some(("panic", format!("ladder rung panicked: {panic_msg}")));
                return report;
            }
        };
        if mode == Mode::Degraded {
            report.degraded += 1;
        }
        let mode_ref = match mode {
            Mode::Compiled => vm_reference,
            Mode::Degraded => reference,
        };
        match result {
            Ok(v) => {
                if failed[mode as usize] {
                    report.finding = Some((
                        "ladder-non-monotone",
                        format!(
                            "{} mode succeeded at fuel {} after failing at a higher budget",
                            mode_name(mode),
                            rung.fuel
                        ),
                    ));
                    return report;
                }
                if let Some(want) = ref_value {
                    if &v != want {
                        report.finding = Some((
                            "ladder-wrong-value",
                            format!(
                                "{} mode at fuel {} returned {v} but the oracle value is {want}",
                                mode_name(mode),
                                rung.fuel
                            ),
                        ));
                        return report;
                    }
                }
            }
            Err(e) => {
                failed[mode as usize] = true;
                if let Some(problem) = illegal_rung_error(&e, mode_ref, reference) {
                    report.finding = Some((
                        problem,
                        format!("{} mode at fuel {}: {e:?}", mode_name(mode), rung.fuel),
                    ));
                    return report;
                }
            }
        }
    }
    report
}

fn mode_name(m: Mode) -> &'static str {
    match m {
        Mode::Compiled => "compiled",
        Mode::Degraded => "degraded",
    }
}

/// Non-degradable compile failures surfaced at a rung, folded into the
/// run-error space so one classifier below judges everything.
fn compile_refusal(e: &PipelineError) -> RungError {
    use pe_core::SpecError;
    match e {
        PipelineError::IllFormed(errs) => {
            RungError::Machine(format!("ill-formed residual: {}", errs.join("; ")))
        }
        // A missing or wrong-arity entry refuses identically at every
        // budget; the oracle saw the same class at full budget.
        PipelineError::Spec(
            s @ (SpecError::NoSuchProc(_) | SpecError::EntryArity { .. }),
        ) => RungError::Classed("refused", s.to_string()),
        PipelineError::Spec(s) => RungError::Machine(format!("non-degradable spec error: {s}")),
        other => RungError::Machine(format!("unexpected compile failure: {other}")),
    }
}

/// A rung execution error, normalized.
#[derive(Debug)]
pub enum RungError {
    /// Budget trap — always legal under starvation.
    Budget,
    /// Structured runtime error / refusal, with its class tag.
    Classed(&'static str, String),
    /// Machine trap or internal fault — always a finding.
    Machine(String),
}

impl From<pe_interp::InterpError> for RungError {
    fn from(e: pe_interp::InterpError) -> RungError {
        use pe_interp::InterpError as IE;
        match &e {
            IE::FuelExhausted => RungError::Budget,
            IE::Trap(t) if t.is_budget() => RungError::Budget,
            IE::Trap(t) => RungError::Machine(t.to_string()),
            IE::Prim(_) | IE::NotAProcedure(_) | IE::Unbound(_) => {
                RungError::Classed("runtime", e.to_string())
            }
            IE::ResultNotFirstOrder => RungError::Classed("higher-order", e.to_string()),
            IE::NoSuchProc(_) | IE::EntryArity { .. } => {
                RungError::Classed("refused", e.to_string())
            }
        }
    }
}

/// Decides whether a rung error is legal given the full-budget
/// reference outcomes.  Budget traps are always legal;
/// runtime/higher-order/refused errors only when the same-mode
/// reference *or* the strict (tail) reference saw the same class.  The
/// strict reference matters for compiled rungs: a tighter compile
/// budget yields a *less* specialized residual, which may retain an
/// erroring computation the full-budget residual eliminated — the
/// error class then matches the source semantics even though the
/// full-budget VM returned a value.
fn illegal_rung_error(
    e: &RungError,
    mode_ref: &Outcome,
    strict_ref: &Outcome,
) -> Option<&'static str> {
    match e {
        RungError::Budget => None,
        RungError::Machine(_) => Some("machine-trap"),
        RungError::Classed(class, _) => {
            // Degraded references mean the mode never ran at full
            // budget; accept structured classes rather than invent a
            // baseline that does not exist.
            if mode_ref.tag() == *class
                || strict_ref.tag() == *class
                || matches!(mode_ref, Outcome::Degraded(_))
            {
                None
            } else {
                Some("ladder-bad-error")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, oracle_limits};
    use pe_trace::NullSink;

    fn ladder(src: &str, entry: &str, args: &[Datum]) -> LadderReport {
        let pipe = oracle::build(src).expect("no panic").expect("parses");
        let exam = oracle::examine(&pipe, entry, args, oracle_limits(), &mut NullSink);
        ladder_check(
            &pipe,
            entry,
            args,
            oracle_limits(),
            3,
            exam.reference(),
            exam.vm_outcome(),
            &mut NullSink,
        )
    }

    #[test]
    fn terminating_program_survives_starvation() {
        let r = ladder(
            "(define (main n) (add n 0)) (define (add a b) (if (< a 1) b (add (sub1 a) (add1 b))))",
            "main",
            &[Datum::Int(6)],
        );
        assert!(r.finding.is_none(), "{:?}", r.finding);
        assert!(r.runs >= 5); // 3 rungs + top + starvation
    }

    #[test]
    fn divergent_program_traps_structurally_at_every_rung() {
        let r = ladder(pe_faultline::ascent_src(), "climb", &[Datum::Int(1)]);
        assert!(r.finding.is_none(), "{:?}", r.finding);
    }

    #[test]
    fn runtime_error_class_is_stable_down_the_ladder() {
        let r = ladder("(define (main l) (car l))", "main", &[Datum::Int(3)]);
        assert!(r.finding.is_none(), "{:?}", r.finding);
    }

    #[test]
    fn dead_error_elimination_survives_the_ladder() {
        // Full-budget compile eliminates the dead erroring binding
        // (vm = value, tail = runtime error); starved rungs may either
        // degrade into the error or trap on budget, never panic.
        let r = ladder(
            "(define (main a) (let ((t (+ (quote ()) 0))) a))",
            "main",
            &[Datum::Int(7)],
        );
        assert!(r.finding.is_none(), "{:?}", r.finding);
    }

    #[test]
    fn heap_hungry_program_degrades_not_crashes() {
        let r = ladder(
            "(define (main n) (grow n (quote ()))) \
             (define (grow n acc) (if (< n 1) acc (grow (sub1 n) (cons n acc))))",
            "main",
            &[Datum::Int(5)],
        );
        assert!(r.finding.is_none(), "{:?}", r.finding);
    }
}
