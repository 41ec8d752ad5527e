//! # pe-verify — static verification for the realistic-pe pipeline
//!
//! The compiler of this repository stakes a strong claim taken from the
//! paper (§4): because the closure-converted interpreter is first-order
//! and tail-recursive, *every* residual program is too, and the back
//! ends (VM, C emitter) may rely on it.  This crate checks that claim —
//! and ordinary well-formedness — with a multi-pass static analyzer
//! instead of trusting it:
//!
//! 1. **well-formed** ([`wellformed`]): pe-flow's well-formedness check
//!    ([`pe_flow::check()`]) — the entry exists, procedure names and
//!    parameters are unique, every variable is bound, every call targets
//!    a defined procedure with matching arity, every primitive has its
//!    arity.
//! 2. **closure-shape** ([`closure`]): reads pe-flow's label analysis
//!    (an abstract interpretation mapping variables to sets of
//!    `make-closure` labels, plus each label's fewest captures);
//!    verifies every `closure-freeval` index against the minimum
//!    captured-value count of the labels that can reach it, and flags
//!    dead or non-exhaustive sequential dispatch chains.
//! 3. **preservation** ([`preservation`]): the language-preservation
//!    certificate, validated on the *concrete syntax* (print → re-read →
//!    grammar check) so it is independent of the Rust type structure.
//! 4. **lint** ([`lints`]): unreachable procedures, dead parameters,
//!    `%fail`-only bodies — warnings about residual quality.
//! 5. **bta-congruence** ([`verify_division`]): audits an Unmix
//!    [`Division`] against its subject program.
//! 6. **flow** ([`flow`]): the arm lint — dispatch arms the label
//!    analysis pass 2 reads proves always or never taken.  It walks the
//!    flow optimizer's own folding traversal, so optimized pipeline
//!    output passes it by construction.
//! 7. **termination** ([`termination`]): the specializer's widening log
//!    audited against the size-change termination verdicts (`pe-sct`) —
//!    every dynamic widening must occur at a point the analysis flagged
//!    unbounded or unknown, and bounded points must not carry leftover
//!    widened slots.
//!
//! [`verify`] runs passes 1–4 and 6 over an [`S0Program`];
//! [`verify_audit`] runs pass 7 over a [`pe_core::CompileAudit`];
//! [`verify_source`]
//! runs the preservation certificate over raw text (useful as a
//! mutation oracle); [`residual::verify_program`] covers Unmix's
//! surface-language residuals.  The pipeline and the specializer call
//! these as debug-assertions, and `examples/verify.rs` in the
//! `realistic-pe` crate audits the whole Gabriel suite.

pub mod closure;
pub mod flow;
pub mod lints;
pub mod preservation;
pub mod report;
pub mod residual;
pub mod termination;
pub mod wellformed;

pub use report::{Diagnostic, Pass, Report, Severity};
pub use residual::verify_program;

use pe_core::S0Program;
use pe_flow::slots::SlotAnalysis;
use pe_governor::{Fuel, Limits};
use pe_unmix::Division;

/// Runs every S₀ pass (well-formed, closure-shape, preservation, lints,
/// flow) over `p` and collects the findings.
pub fn verify(p: &S0Program) -> Report {
    verify_with(p, None, &mut pe_trace::NullSink)
}

/// [`verify`] with per-residual-procedure cost attribution: the passes
/// are whole-program analyses, so their summed wall time is spread over
/// the program's procedures by node share and emitted as `Event::Attr`
/// rows under `Phase::Verify`.  With a disabled sink this reads no
/// clock.
///
/// Passes 2 and 6 read `labels` when given: the closure-label analysis
/// of exactly `p`, as the flow optimizer hands it over
/// ([`pe_core::Compiled::labels`]).  Otherwise they solve it here, with
/// the default budget.  Debug builds check a handed analysis against
/// their own solve.
pub fn verify_with(
    p: &S0Program,
    labels: Option<SlotAnalysis>,
    sink: &mut dyn pe_trace::Sink,
) -> Report {
    let t0 = sink.enabled().then(std::time::Instant::now);
    let mut diagnostics = wellformed::check(p);
    // The deeper passes assume basic well-formedness (e.g. bound
    // variables); run them anyway — they are robust — but order the
    // report by pass.  Passes 2 and 6 share one label analysis.
    let analyze = || pe_flow::slots::analyze(p, &mut Fuel::new(&Limits::default()));
    let shapes = match labels {
        Some(sa) => {
            if cfg!(debug_assertions) {
                if let Ok(own) = analyze() {
                    assert_eq!(sa, own, "the handed label analysis is not that of the program");
                }
            }
            Ok(sa)
        }
        None => analyze(),
    };
    diagnostics.extend(closure::check(p, &shapes));
    diagnostics.extend(preservation::check(p));
    diagnostics.extend(lints::check(p));
    diagnostics.extend(flow::check(p, &shapes));
    if let Some(t0) = t0 {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        p.attribute_by_size(sink, pe_trace::Phase::Verify, ns);
    }
    Report::new(diagnostics)
}

/// Runs the language-preservation certificate over S₀ concrete syntax.
///
/// This is the text-level entry point: it accepts *any* string, so
/// mutation tests can corrupt a pretty-printed program (break the tail
/// form, drop an `if` arm, smuggle in a `lambda`) and confirm the
/// certificate refuses it.
pub fn verify_source(src: &str) -> Report {
    Report::new(preservation::check_source(src))
}

/// Audits a compile's control log against its size-change termination
/// verdicts (pass 7).  Advisory: findings are warnings about prediction
/// completeness, not residual correctness.
#[must_use]
pub fn verify_audit(audit: &pe_core::CompileAudit) -> Report {
    Report::new(termination::check(audit))
}

/// Audits an Unmix binding-time division for congruence over its
/// subject program (pass 5).
pub fn verify_division(
    p: &pe_frontend::Program,
    entry: &str,
    div: &Division,
) -> Report {
    Report::new(
        div.audit(p, entry)
            .into_iter()
            .map(|msg| Diagnostic::error(Pass::BtaCongruence, None, msg))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_is_clean_on_a_compiled_benchmark() {
        // End-to-end sanity: a small first-order program survives all
        // four passes once compiled to S₀ by hand.
        let src = "(define (count n) (if (zero? n) 0 (count (- n 1))))";
        let r = verify_source(src);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn a_trapped_label_analysis_is_one_warning_in_passes_2_and_6() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![pe_core::S0Proc {
                name: "main".into(),
                params: vec![],
                body: pe_core::S0Tail::Fail("x".into()),
            }],
        };
        let trapped = Err(pe_governor::Trap::OutOfFuel { budget: 1 });
        for diags in [closure::check(&p, &trapped), flow::check(&p, &trapped)] {
            let text: Vec<String> = diags.iter().map(ToString::to_string).collect();
            assert_eq!(text.len(), 1, "{text:?}");
            assert!(text[0].starts_with("warning[") && text[0].contains("truncated"), "{text:?}");
        }
    }

    #[test]
    fn verify_division_reports_congruence_errors() {
        let p = pe_frontend::parse_source(
            "(define (main s d) (f d))
             (define (f x) x)",
        )
        .unwrap();
        let div = Division::analyze(&p, "main", &[true, false]);
        assert!(verify_division(&p, "main", &div).is_clean());

        let mut bad = div.clone();
        bad.params.insert("f".into(), vec![pe_unmix::Bt::Static]);
        bad.result.insert("f".into(), pe_unmix::Bt::Static);
        let r = verify_division(&p, "main", &bad);
        assert!(r.has_errors());
        let text = r.to_string();
        assert!(text.contains("error[bta-congruence] congruence violation"), "{text}");
    }
}
