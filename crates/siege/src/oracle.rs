//! The differential oracle: one subject program, every engine, one
//! verdict.
//!
//! Each case is run through the whole engine family — the three §4
//! interpreters (standard, closure-converted, tail), the Hobbit-like
//! baseline, the S₀ evaluator on the default residual, and the VM on
//! three compilation variants (default, flow optimizer off,
//! size-change analysis off) — under identical [`Limits`].  The
//! trichotomy the suite promises: every pair of engines either agrees
//! on the value, agrees on the structured trap class, or diverges for
//! a *documented* budget reason (different engines meter fuel, heap
//! and depth differently).  Anything else — a panic, two different
//! values, a machine trap out of a verified residual, a value against
//! a runtime error — is a finding.

use pe_core::{CompileOptions, S0Program, SpecError};
use pe_faultline::no_panic;
use pe_governor::{Limits, TrapClass};
use pe_interp::{Datum, InterpError};
use pe_trace::{NullSink, Sink};
use realistic_pe::{Pipeline, PipelineError};

/// Engine names, in report order.  `tail` (index [`REFERENCE`]) is the
/// reference: it is the engine the paper specializes, and the engine
/// robust execution degrades to.
pub const ENGINES: [&str; 8] = [
    "standard", "closconv", "tail", "hobbit", "s0-eval", "vm", "vm-noflow", "vm-nosct",
];

/// Index of the reference engine in [`ENGINES`].
pub const REFERENCE: usize = 2;

/// What one engine produced for one case, normalized for comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A first-order value.
    Value(Datum),
    /// A budget trap (fuel, depth, heap, …) of the given class.
    Trap(TrapClass),
    /// A machine trap or internal error: never legitimate from a
    /// parser-built, verified program — always a finding.
    Machine(String),
    /// A structured runtime error in the subject program (`car` of a
    /// non-pair, division by zero…).  Engines must agree on these.
    Runtime(String),
    /// The result contains a closure; first-order printing refused.
    HigherOrder,
    /// The engine refused the case up front (no such entry, arity).
    Refused(String),
    /// Specialization was cut off by its budget; the compiled engine
    /// has no result (robust execution would fall back to `tail`).
    Degraded(String),
    /// The engine panicked — the harness's reason to exist.
    Panicked(String),
}

impl Outcome {
    /// Short class tag used in findings and reports.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Value(_) => "value",
            Outcome::Trap(_) => "trap",
            Outcome::Machine(_) => "machine",
            Outcome::Runtime(_) => "runtime",
            Outcome::HigherOrder => "higher-order",
            Outcome::Refused(_) => "refused",
            Outcome::Degraded(_) => "degraded",
            Outcome::Panicked(_) => "panic",
        }
    }
}

/// How a pair of outcomes relates under the trichotomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Same value.
    ValueAgree,
    /// Same structured failure (same trap class, or both runtime
    /// errors, both refusals, both higher-order).
    TrapAgree,
    /// Both failed structurally but under different budgets — the
    /// documented cross-engine metering divergence.
    BudgetDivergence,
    /// Documented non-budget divergence: degraded compiles, refusals
    /// or higher-order results on one side, and the strictness
    /// improvement (a specialized engine returning a value where the
    /// strict reference errors — partial evaluation may eliminate dead
    /// erroring code, so residuals are *more* defined, never less).
    Documented,
    /// A real disagreement: a finding.
    Disagree,
}

/// True for the engines that execute specialized residuals (and may
/// therefore be more defined than the strict interpreters: unfolding,
/// dead-parameter elimination and constant folding legitimately drop
/// erroring code whose value is never consumed).
#[must_use]
pub fn is_specialized(engine: &str) -> bool {
    matches!(engine, "s0-eval" | "vm" | "vm-noflow" | "vm-nosct")
}

/// Classifies `engine`'s outcome `o` against the strict reference
/// outcome `reference` (the tail interpreter's).
#[must_use]
pub fn agreement(engine: &str, o: &Outcome, reference: &Outcome) -> Agreement {
    use Outcome::*;
    match (o, reference) {
        (Panicked(_), _) | (_, Panicked(_)) | (Machine(_), _) | (_, Machine(_)) => {
            Agreement::Disagree
        }
        (Value(x), Value(y)) => {
            if x == y {
                Agreement::ValueAgree
            } else {
                Agreement::Disagree
            }
        }
        (Trap(x), Trap(y)) => {
            if x == y {
                Agreement::TrapAgree
            } else {
                Agreement::BudgetDivergence
            }
        }
        // A budget trap against any completed outcome: the trapped
        // engine ran out of meter where the other finished.
        (Trap(_), _) | (_, Trap(_)) => Agreement::BudgetDivergence,
        (Runtime(_), Runtime(_)) => Agreement::TrapAgree,
        (Refused(_), Refused(_)) => Agreement::TrapAgree,
        (HigherOrder, HigherOrder) => Agreement::TrapAgree,
        // Degradation, one-sided refusals and higher-order results are
        // documented engine differences, not semantic splits.
        (Degraded(_), _) | (_, Degraded(_)) => Agreement::Documented,
        (Refused(_), _) | (_, Refused(_)) => Agreement::Documented,
        (HigherOrder, _) | (_, HigherOrder) => Agreement::Documented,
        // Specialized value where the strict reference errors: the
        // documented strictness improvement.  The reverse — an engine
        // *inventing* an error, or a strict interpreter skipping one —
        // is a semantic split.
        (Value(_), Runtime(_)) => {
            if is_specialized(engine) {
                Agreement::Documented
            } else {
                Agreement::Disagree
            }
        }
        (Runtime(_), Value(_)) => Agreement::Disagree,
    }
}

/// The oracle's full output for one case.
#[derive(Debug)]
pub struct Exam {
    /// `(engine name, outcome)` in [`ENGINES`] order.
    pub outcomes: Vec<(&'static str, Outcome)>,
    /// The default-options residual, when compilation succeeded —
    /// kept so findings can be re-verified against the S₀ checker.
    pub residual: Option<S0Program>,
    /// Engine executions performed (compiles included).
    pub runs: u64,
}

impl Exam {
    /// The reference (tail interpreter) outcome.
    #[must_use]
    pub fn reference(&self) -> &Outcome {
        &self.outcomes[REFERENCE].1
    }

    /// The default-VM outcome.
    #[must_use]
    pub fn vm_outcome(&self) -> &Outcome {
        &self.outcomes[5].1
    }

    /// The first finding-grade problem in this exam, if any: a panic,
    /// a machine trap / internal error, a value mismatch, or an
    /// invented runtime error (some engine errs where a strict
    /// interpreter computed a value).
    ///
    /// The converse split — strict interpreters err while specialized
    /// engines return values — is *not* a finding: partial evaluation
    /// eliminates dead erroring computations (unused let bindings,
    /// arguments to dead parameters, folded selectors), so residuals
    /// are legitimately more defined than the source.
    #[must_use]
    pub fn finding(&self) -> Option<(&'static str, String)> {
        for (name, o) in &self.outcomes {
            if let Outcome::Panicked(msg) = o {
                return Some(("panic", format!("{name}: {msg}")));
            }
        }
        for (name, o) in &self.outcomes {
            if let Outcome::Machine(msg) = o {
                return Some(("machine-trap", format!("{name}: {msg}")));
            }
        }
        let values: Vec<(&str, &Datum)> = self
            .outcomes
            .iter()
            .filter_map(|(n, o)| match o {
                Outcome::Value(d) => Some((*n, d)),
                _ => None,
            })
            .collect();
        if let Some((first_name, first)) = values.first() {
            for (n, d) in &values[1..] {
                if d != first {
                    return Some((
                        "value-mismatch",
                        format!("{first_name} = {first} but {n} = {d}"),
                    ));
                }
            }
        }
        // Class check anchored on the strict side only: a runtime
        // error anywhere is a finding iff some *interpreter* holds a
        // value for the same program.
        if let Some((strict_name, strict)) =
            values.iter().find(|(n, _)| !is_specialized(n))
        {
            for (n, o) in &self.outcomes {
                if let Outcome::Runtime(msg) = o {
                    return Some((
                        "class-mismatch",
                        format!("{strict_name} = {strict} but {n} errored: {msg}"),
                    ));
                }
            }
        }
        None
    }
}

/// Builds the pipeline for a case, reporting panics and structured
/// front-end rejections separately.
///
/// # Errors
///
/// `Ok(Err(msg))` is a structured parse/desugar rejection (a legal
/// outcome for hostile mutants); `Err(msg)` is a front-end panic (a
/// finding).
pub fn build(source: &str) -> Result<Result<Pipeline, String>, String> {
    no_panic(|| Pipeline::new(source).map_err(|e| e.to_string()))
}

fn classify(r: Result<Datum, InterpError>) -> Outcome {
    match r {
        Ok(d) => Outcome::Value(d),
        Err(InterpError::FuelExhausted) => Outcome::Trap(TrapClass::Fuel),
        Err(InterpError::Trap(t)) => {
            if t.is_budget() {
                Outcome::Trap(t.class())
            } else {
                Outcome::Machine(t.to_string())
            }
        }
        Err(e @ (InterpError::Prim(_)
        | InterpError::NotAProcedure(_)
        | InterpError::Unbound(_))) => Outcome::Runtime(e.to_string()),
        Err(InterpError::ResultNotFirstOrder) => Outcome::HigherOrder,
        Err(e @ (InterpError::NoSuchProc(_) | InterpError::EntryArity { .. })) => {
            Outcome::Refused(e.to_string())
        }
    }
}

fn classify_compile_err(e: &PipelineError) -> Outcome {
    match e {
        PipelineError::Spec(s) if s.is_degradable() => Outcome::Degraded(s.to_string()),
        PipelineError::Spec(SpecError::NoSuchProc(_) | SpecError::EntryArity { .. }) => {
            Outcome::Refused(e.to_string())
        }
        // Internal specializer faults, ill-formed residuals, VM or
        // baseline compile errors: never legitimate from parsed input.
        _ => Outcome::Machine(e.to_string()),
    }
}

fn guarded(f: impl FnOnce() -> Outcome) -> Outcome {
    match no_panic(f) {
        Ok(o) => o,
        Err(msg) => Outcome::Panicked(msg),
    }
}

/// Runs every engine on the case under `limits`, streaming engine
/// meters to `sink` (peaks end up in the soak report).
pub fn examine(
    pipe: &Pipeline,
    entry: &str,
    args: &[Datum],
    limits: Limits,
    sink: &mut dyn Sink,
) -> Exam {
    let mut outcomes: Vec<(&'static str, Outcome)> = Vec::with_capacity(ENGINES.len());
    let mut runs = 0u64;

    runs += 1;
    outcomes.push((
        "standard",
        guarded(|| classify(pe_interp::standard::run_with(&pipe.program, entry, args, limits, sink))),
    ));
    runs += 1;
    outcomes.push((
        "closconv",
        guarded(|| classify(pe_interp::closconv::run_with(&pipe.program, entry, args, limits, sink))),
    ));
    runs += 1;
    outcomes.push((
        "tail",
        guarded(|| classify(pe_interp::tail::run_with(&pipe.dprog, entry, args, limits, sink))),
    ));
    runs += 1;
    outcomes.push((
        "hobbit",
        guarded(|| match pe_hobbit::Hobbit::compile(&pipe.program) {
            Ok(h) => classify(h.run_with(entry, args, limits, sink)),
            Err(e) => Outcome::Machine(format!("hobbit compile: {e}")),
        }),
    ));

    // Default compilation feeds two engines: the S₀ evaluator and the
    // VM.  Compile once.
    let opts = CompileOptions { limits, ..CompileOptions::default() };
    let mut residual = None;
    runs += 1;
    let compiled = no_panic(|| pipe.compile(entry, &opts).map_err(|e| classify_compile_err(&e)));
    match compiled {
        Err(panic_msg) => {
            outcomes.push(("s0-eval", Outcome::Panicked(panic_msg.clone())));
            outcomes.push(("vm", Outcome::Panicked(panic_msg)));
        }
        Ok(Err(o)) => {
            outcomes.push(("s0-eval", o.clone()));
            outcomes.push(("vm", o));
        }
        Ok(Ok(s0)) => {
            runs += 2;
            outcomes.push((
                "s0-eval",
                guarded(|| classify(pe_core::eval::run_with(&s0, args, limits, sink))),
            ));
            outcomes.push((
                "vm",
                guarded(|| match pe_vm::Vm::compile(&s0) {
                    Ok(vm) => classify(vm.run_with(args, limits, sink).map(|(d, _)| d)),
                    Err(e) => Outcome::Machine(format!("vm compile: {e}")),
                }),
            ));
            residual = Some(s0);
        }
    }

    for (name, opts) in [
        ("vm-noflow", CompileOptions { limits, flow: false, trick_flow: false, ..CompileOptions::default() }),
        ("vm-nosct", CompileOptions { limits, sct: false, ..CompileOptions::default() }),
    ] {
        runs += 1;
        outcomes.push((
            name,
            guarded(|| match pipe.compile_vm(entry, &opts, &mut NullSink) {
                Ok((vm, _)) => classify(vm.run_with(args, limits, sink).map(|(d, _)| d)),
                Err(e) => classify_compile_err(&e),
            }),
        ));
    }

    Exam { outcomes, residual, runs }
}

/// The shared oracle budget: small enough that divergent cases settle
/// in microseconds, large enough that the generator's terminating
/// programs finish with values.  The call-depth cap keeps the
/// host-stack engines (standard, closconv, hobbit) well inside a
/// default thread stack.
#[must_use]
pub fn oracle_limits() -> Limits {
    Limits::builder()
        .with_fuel(50_000)
        .with_depth(160)
        .with_syntax_depth(1_000)
        .with_unfold_depth(48)
        .with_heap(50_000)
        .with_residual(192)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_trace::NullSink;

    fn exam(src: &str, entry: &str, args: &[Datum]) -> Exam {
        let pipe = build(src).expect("no panic").expect("parses");
        examine(&pipe, entry, args, oracle_limits(), &mut NullSink)
    }

    #[test]
    fn all_engines_agree_on_a_value() {
        let e = exam(
            "(define (main n) (fact n)) (define (fact n) (if (< n 1) 1 (* n (fact (sub1 n)))))",
            "main",
            &[Datum::Int(5)],
        );
        for (name, o) in &e.outcomes {
            assert_eq!(o, &Outcome::Value(Datum::Int(120)), "{name}");
        }
        assert!(e.finding().is_none());
    }

    #[test]
    fn runtime_errors_agree_across_engines() {
        let e = exam("(define (main l) (car l))", "main", &[Datum::Int(7)]);
        for (name, o) in &e.outcomes {
            assert!(matches!(o, Outcome::Runtime(_)), "{name}: {o:?}");
        }
        assert!(e.finding().is_none());
    }

    #[test]
    fn omega_is_budget_divergence_not_a_finding() {
        let src = format!("(define (main n) {})", pe_faultline::omega_expr());
        let e = exam(&src, "main", &[Datum::Int(0)]);
        assert!(e.finding().is_none(), "{:?}", e.outcomes);
        // The reference interpreter burns fuel or unfolding depth; the
        // compiled engines degrade at specialization time.  Every
        // outcome stays in the structured family.
        for (name, o) in &e.outcomes {
            assert!(
                matches!(o, Outcome::Trap(_) | Outcome::Degraded(_)),
                "{name}: {o:?}"
            );
        }
    }

    #[test]
    fn higher_order_results_are_documented() {
        let e = exam("(define (main n) (lambda (y) n))", "main", &[Datum::Int(1)]);
        assert!(e.finding().is_none(), "{:?}", e.outcomes);
        let r = e.reference();
        assert!(matches!(r, Outcome::HigherOrder), "{r:?}");
    }

    #[test]
    fn agreement_flags_value_splits_and_documents_strictness() {
        let v1 = Outcome::Value(Datum::Int(1));
        let v2 = Outcome::Value(Datum::Int(2));
        let tf = Outcome::Trap(TrapClass::Fuel);
        let th = Outcome::Trap(TrapClass::Heap);
        let re = Outcome::Runtime("car of 7".into());
        assert_eq!(agreement("vm", &v1, &v1.clone()), Agreement::ValueAgree);
        assert_eq!(agreement("vm", &v1, &v2), Agreement::Disagree);
        assert_eq!(agreement("vm", &tf, &th), Agreement::BudgetDivergence);
        assert_eq!(agreement("vm", &tf, &v1), Agreement::BudgetDivergence);
        // A specialized engine may be more defined than the strict
        // reference (dead erroring code eliminated)...
        assert_eq!(agreement("vm", &v1, &re), Agreement::Documented);
        assert_eq!(agreement("s0-eval", &v1, &re), Agreement::Documented);
        // ...but a strict interpreter may not skip an error, and no
        // engine may invent one.
        assert_eq!(agreement("hobbit", &v1, &re), Agreement::Disagree);
        assert_eq!(agreement("vm", &re, &v1), Agreement::Disagree);
        assert_eq!(agreement("vm", &re, &re.clone()), Agreement::TrapAgree);
    }

    #[test]
    fn dead_erroring_binding_is_documented_not_a_finding() {
        // The interpreters evaluate the dead binding strictly and err;
        // specialization discards it and every compiled engine returns
        // the value.  This is the documented strictness improvement.
        let e = exam(
            "(define (main a) (let ((t (+ (quote ()) 0))) a))",
            "main",
            &[Datum::Int(7)],
        );
        assert!(e.finding().is_none(), "{:?}", e.outcomes);
        assert!(matches!(e.reference(), Outcome::Runtime(_)));
        assert_eq!(*e.vm_outcome(), Outcome::Value(Datum::Int(7)));
    }
}
