//! Integration tests for the size-change termination analysis (pe-sct)
//! over the whole Fig. 8 Gabriel suite.
//!
//! The analysis classifies every specialization-point candidate before
//! the specializer runs and feeds the verdicts back as static control:
//! eager generalization where growth is provable, no widening machinery
//! where descent is provable, and an outright reject where divergence
//! is provable.  This suite checks the properties that feedback must
//! preserve:
//!
//! 1. **coverage** — every benchmark procedure receives a verdict and
//!    none is (wrongly) rejected as divergent;
//! 2. **semantics** — residuals compiled with the analysis on and off
//!    produce identical VM results on every benchmark;
//! 3. **prediction** — pass 7 of pe-verify reports zero termination
//!    warnings on every compile path: no widening the analysis failed
//!    to anticipate;
//! 4. **effect** — suite-wide dynamic widenings drop when the analysis
//!    is on, replaced by statically anticipated eager generalizations.

use pe_verify::Pass;
use realistic_pe::{
    CollectingSink, CompileOptions, Counter, Datum, Limits, NullSink, Pipeline, Verdict, SUITE,
};

fn sct_off() -> CompileOptions {
    CompileOptions { sct: false, ..CompileOptions::default() }
}

#[test]
fn every_benchmark_is_classified_and_none_rejected() {
    let mut bounded = 0usize;
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let flow = pe_frontend::flow::FlowAnalysis::analyze(&pipe.dprog);
        let a = pe_sct::analyze(&pipe.dprog, &flow, b.entry);
        assert!(
            a.divergence.is_none(),
            "{}: a terminating benchmark was rejected as divergent",
            b.name
        );
        let verdicts = a.named_verdicts(&pipe.dprog);
        assert_eq!(
            verdicts.len(),
            pipe.dprog.defs.len(),
            "{}: a procedure escaped classification",
            b.name
        );
        bounded += verdicts.iter().filter(|&&(_, v)| v == Verdict::Bounded).count();
        // The stats cross-check the verdict list exactly.
        assert_eq!(
            (a.stats.bounded + a.stats.unbounded + a.stats.unknown) as usize,
            verdicts.len(),
            "{}",
            b.name
        );
    }
    assert!(bounded >= 4, "the analysis proved almost nothing on the suite");
}

#[test]
fn entry_verdicts_match_the_known_shapes() {
    // Spot checks pinning the analysis against hand-derived verdicts:
    // deriv destructs its expression tree (structural descent), the
    // CPS benchmarks grow their continuation (unbounded-or-eager
    // territory), tak shuffles its arguments through context lambdas
    // (no provable descent).
    let expect = [
        ("deriv", "deriv", Verdict::Bounded),
        ("cps-append", "cps-append", Verdict::Bounded),
        ("fibclos", "fib-k", Verdict::Bounded),
        ("tak", "tak", Verdict::Unknown),
    ];
    for (bench, proc_name, want) in expect {
        let b = realistic_pe::benchmark(bench).unwrap();
        let pipe = Pipeline::new(b.source).unwrap();
        let flow = pe_frontend::flow::FlowAnalysis::analyze(&pipe.dprog);
        let a = pe_sct::analyze(&pipe.dprog, &flow, b.entry);
        let got = a
            .named_verdicts(&pipe.dprog)
            .into_iter()
            .find(|(n, _)| *n == proc_name)
            .map(|(_, v)| v);
        assert_eq!(got, Some(want), "{bench}/{proc_name}");
    }
}

#[test]
fn suite_is_differentially_equal_with_the_analysis_on_and_off() {
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let args = b.test_inputs();
        let expect = Datum::parse(b.test_expect).unwrap();
        let (off, _) =
            pipe.run_compiled(b.entry, &args, &sct_off(), Limits::default()).unwrap();
        let (on, _) = pipe
            .run_compiled(b.entry, &args, &CompileOptions::default(), Limits::default())
            .unwrap();
        assert_eq!(off, on, "{}: the analysis changed the VM result", b.name);
        assert_eq!(on, expect, "{}: wrong answer", b.name);
    }
}

#[test]
fn compile_paths_carry_zero_termination_warnings() {
    // The acceptance bar for the prediction: on every benchmark the
    // specializer performs no widening the analysis failed to
    // anticipate — pass 7 stays silent.
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let report = pipe
            .compile_report(b.entry, &CompileOptions::default(), None, false, &mut NullSink)
            .unwrap()
            .verify;
        assert!(report.is_clean(), "{}:\n{report}", b.name);
        let noisy: Vec<_> =
            report.warnings().filter(|d| d.pass == Pass::Termination).collect();
        assert!(
            noisy.is_empty(),
            "{}: unanticipated dynamic control: {noisy:?}",
            b.name
        );
    }
}

#[test]
fn suite_wide_widenings_drop_with_the_analysis_on() {
    let mut widen_on = 0u64;
    let mut widen_off = 0u64;
    let mut eager_on = 0u64;
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let on = pipe
            .compile_report(
                b.entry,
                &CompileOptions::default(),
                None,
                false,
                &mut CollectingSink::new(),
            )
            .unwrap();
        let off = pipe
            .compile_report(b.entry, &sct_off(), None, false, &mut CollectingSink::new())
            .unwrap();
        widen_on += on.counter(Counter::Widenings);
        widen_off += off.counter(Counter::Widenings);
        eager_on += on.counter(Counter::EagerGeneralizations);
        // Per benchmark the analysis never *adds* dynamic widenings.
        assert!(
            on.counter(Counter::Widenings) <= off.counter(Counter::Widenings),
            "{}: the analysis added widenings ({} → {})",
            b.name,
            off.counter(Counter::Widenings),
            on.counter(Counter::Widenings)
        );
    }
    assert!(
        widen_on < widen_off,
        "suite-wide dynamic widenings did not drop ({widen_off} → {widen_on})"
    );
    assert!(eager_on > 0, "no eager generalization ever fired on the suite");
}
