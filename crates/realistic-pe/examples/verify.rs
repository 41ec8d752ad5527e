//! Static-verification audit of the whole Gabriel suite.
//!
//! For each of the seven Fig. 8 benchmarks, compiles the program under
//! both generalization strategies and runs every `pe-verify` pass
//! (well-formedness, closure-shape analysis, the language-preservation
//! certificate, lints); for the first-order benchmarks, additionally
//! compiles by the first Futamura projection and verifies the Unmix
//! residual plus its binding-time division.  Exits non-zero if any
//! error-severity diagnostic is produced — warnings (e.g. dead dispatch
//! arms left by specialization) are reported but tolerated.
//!
//! ```sh
//! cargo run --release -p realistic-pe --example verify
//! ```

use pe_unmix::Division;
use pe_verify::Pass;
use realistic_pe::{
    compile_by_futamura, encode_program, verify_division, CompileOptions, GenStrategy, NullSink,
    Pipeline, PipelineError, Report, UnmixOptions, FUTAMURA_ENTRY, SINT, SUITE,
};

fn show(what: &str, report: &Report) -> usize {
    println!(
        "{what:<28} {} error(s), {} warning(s)",
        report.error_count(),
        report.warning_count()
    );
    for d in &report.diagnostics {
        println!("    {d}");
    }
    report.error_count()
}

/// The arm lint mirrors the flow optimizer, so *optimized* pipeline
/// output must carry zero flow-pass warnings: any that remain mean an
/// optimization silently failed to run.  Treat them as errors.
fn flow_strict(what: &str, report: &Report) -> usize {
    let stuck: Vec<_> =
        report.warnings().filter(|d| d.pass == Pass::Flow).collect();
    for d in &stuck {
        println!("    flow-strict: {d}");
    }
    if !stuck.is_empty() {
        println!("{what:<28} {} unoptimized flow finding(s)", stuck.len());
    }
    stuck.len()
}

/// Compiles `entry` and shows its verification report, flow-strict
/// findings included; returns the error count.  Verification errors
/// fail the compile, so their messages are shown instead.
fn compile_and_show(what: &str, pipe: &Pipeline, entry: &str, opts: &CompileOptions) -> usize {
    match pipe.compile_report(entry, opts, None, false, &mut NullSink) {
        Ok(r) => show(what, &r.verify) + flow_strict(what, &r.verify),
        Err(PipelineError::IllFormed(errs)) => {
            println!("{what:<28} {} error(s)", errs.len());
            for e in &errs {
                println!("    {e}");
            }
            errs.len()
        }
        Err(e) => panic!("{what}: does not compile: {e}"),
    }
}

fn main() {
    let mut total_errors = 0;
    for b in SUITE {
        let pipe = Pipeline::new(b.source).expect("suite programs parse");
        for strategy in [GenStrategy::Offline, GenStrategy::Online] {
            let opts = CompileOptions { strategy, ..CompileOptions::default() };
            let what = format!("{} [{strategy:?}]", b.name);
            total_errors += compile_and_show(&what, &pipe, b.entry, &opts);
        }
        if !b.higher_order {
            // First Futamura projection: specialize the self-interpreter
            // to the subject, then verify the surface-language residual
            // and audit the binding-time division it came from.
            let subject = pipe.program.clone();
            let residual = compile_by_futamura(&subject, &UnmixOptions::default())
                .expect("first-order benchmarks project");
            let report = realistic_pe::verify_program(&residual, FUTAMURA_ENTRY);
            total_errors += show(&format!("{} [Futamura]", b.name), &report);

            // The Unmix residual is itself a compilable program: push it
            // through the pipeline and run the S₀ passes — including the
            // flow pass — over *its* residual too.
            let repipe = Pipeline::new(&residual.to_source())
                .expect("Futamura residuals re-parse");
            let what = format!("{} [Futamura→S₀]", b.name);
            total_errors +=
                compile_and_show(&what, &repipe, FUTAMURA_ENTRY, &CompileOptions::default());

            let sint = realistic_pe::parse_source(SINT).expect("SINT parses");
            let _ = encode_program(&subject).expect("subjects encode");
            let div = Division::analyze(&sint, "sint", &[true, false]);
            let report = verify_division(&sint, "sint", &div);
            total_errors += show(&format!("{} [BTA audit]", b.name), &report);
        }
    }
    if total_errors > 0 {
        eprintln!("verification FAILED: {total_errors} error(s)");
        std::process::exit(1);
    }
    println!("verification passed: 0 errors across the suite");
}
