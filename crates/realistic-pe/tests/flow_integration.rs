//! Translation validation for the pe-flow optimizer, over the whole
//! Fig. 8 Gabriel suite.
//!
//! The flow passes (copy/constant propagation, dead-binding
//! elimination, closure-slot pruning, dispatch-arm folding) rewrite the
//! residual program after specialization.  This suite checks the three
//! properties the optimizer must preserve:
//!
//! 1. **semantics** — the optimized program produces VM output
//!    identical to the unoptimized one on every benchmark;
//! 2. **verification** — the optimized program still passes every
//!    pe-verify pass, with zero flow-pass *warnings* (the flow lints
//!    mirror the optimizer, so clean output is by construction);
//! 3. **size** — optimization never grows a residual, and shrinks at
//!    least one benchmark (S₀ nodes and emitted C bytes).

use pe_verify::Pass;
use realistic_pe::{verify, COptions, CompileOptions, Datum, Limits, Pipeline, SUITE};

fn flow_off() -> CompileOptions {
    CompileOptions { flow: false, ..CompileOptions::default() }
}

#[test]
fn optimized_suite_is_differentially_equal_on_the_vm() {
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let args = b.test_inputs();
        let expect = Datum::parse(b.test_expect).unwrap();
        let (base, _) = pipe
            .run_compiled(b.entry, &args, &flow_off(), Limits::default())
            .unwrap();
        let (opt, _) = pipe
            .run_compiled(b.entry, &args, &CompileOptions::default(), Limits::default())
            .unwrap();
        assert_eq!(base, opt, "{}: flow changed the VM result", b.name);
        assert_eq!(opt, expect, "{}: wrong answer", b.name);
    }
}

#[test]
fn optimized_suite_repasses_verification_with_no_flow_warnings() {
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let s0 = pipe.compile(b.entry, &CompileOptions::default()).unwrap();
        let report = verify(&s0);
        assert!(report.is_clean(), "{}:\n{report}", b.name);
        let stuck: Vec<_> =
            report.warnings().filter(|d| d.pass == Pass::Flow).collect();
        assert!(
            stuck.is_empty(),
            "{}: optimized residual still carries flow findings: {stuck:?}",
            b.name
        );
    }
}

#[test]
fn optimization_never_grows_a_residual_and_shrinks_at_least_one() {
    let mut shrank_nodes = 0usize;
    let mut shrank_c = 0usize;
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let base = pipe.compile(b.entry, &flow_off()).unwrap();
        let opt = pipe.compile(b.entry, &CompileOptions::default()).unwrap();
        assert!(
            opt.size() <= base.size(),
            "{}: flow grew the residual ({} → {} nodes)",
            b.name,
            base.size(),
            opt.size()
        );
        assert!(opt.procs.len() <= base.procs.len(), "{}", b.name);
        if opt.size() < base.size() {
            shrank_nodes += 1;
        }

        let args = b.test_inputs();
        let c_base = realistic_pe::emit_c(&base, &args, &COptions::default());
        let c_opt = realistic_pe::emit_c(&opt, &args, &COptions::default());
        if c_opt.size_bytes() < c_base.size_bytes() {
            shrank_c += 1;
        }
    }
    assert!(shrank_nodes >= 1, "no benchmark shrank in S0 nodes");
    assert!(shrank_c >= 1, "no benchmark shrank in emitted C bytes");
}

#[test]
fn elided_moves_are_measured_and_safe_on_the_suite() {
    // The C emitter's liveness-driven move elision must fire somewhere
    // on the suite, and eliding must never change the generated
    // program's structure beyond removing moves (size can only shrink).
    let mut total_elided = 0usize;
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let args = b.test_inputs();
        let s0 = pipe.compile(b.entry, &CompileOptions::default()).unwrap();
        let on = realistic_pe::emit_c(&s0, &args, &COptions::default());
        let off = realistic_pe::emit_c(
            &s0,
            &args,
            &COptions { elide_moves: false },
        );
        assert!(on.size_bytes() <= off.size_bytes(), "{}", b.name);
        assert_eq!(off.moves_elided, 0, "{}", b.name);
        total_elided += on.moves_elided;
    }
    assert!(total_elided >= 1, "move elision never fired on the suite");
}
