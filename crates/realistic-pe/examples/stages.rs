//! A guided tour of the §4 interpreter derivation — the same program at
//! every stage of the pipeline, printed:
//!
//! 1. the surface program (Fig. 2);
//! 2. the desugared simple/serious tail form (Fig. 5) with its hoisted
//!    context lambdas;
//! 3. what the flow analysis (§4.2) and the offline generalization
//!    analysis (§4.5) know about it;
//! 4. the residual S₀ program of the specializing compiler (Fig. 7),
//!    with and without post-processing;
//! 5. the first lines of the §5.1 C translation.
//!
//! ```sh
//! cargo run --example stages
//! ```

use pe_frontend::flow::FlowAnalysis;
use pe_frontend::gen_analysis::GenAnalysis;
use realistic_pe::{CompileOptions, Datum, NullSink, Pipeline};

const SRC: &str = "(define (sum-sq l) (loop l 0))
(define (loop l acc)
  (if (null? l)
      acc
      (loop (cdr l) (+ acc (* (car l) (car l))))))";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pipe = Pipeline::new(SRC)?;

    println!("== 1. surface program (Fig. 2) ==\n{}\n", pipe.program.to_source());

    println!("== 2. desugared tail form (Fig. 5) ==");
    println!("{}", pipe.dprog.to_source());
    println!("hoisted lambdas (φ): {}\n", pipe.dprog.lambdas.len());

    println!("== 3. analyses ==");
    let flow = FlowAnalysis::analyze(&pipe.dprog);
    let gen = GenAnalysis::analyze(&pipe.dprog, &flow);
    println!("context lambdas (may be pushed on τ): {:?}", flow.context_lambdas());
    println!("critical lambdas  (§4.5, source 1/2): {:?}", gen.critical_lams);
    println!("critical cons sites (§4.5, source 3): {:?}\n", gen.critical_cons);

    println!("== 4. compiled S0, post-processing ON ==");
    let s0 = pipe.compile("sum-sq", &CompileOptions::default())?;
    println!("{}", s0.to_source());
    let raw = pipe.compile(
        "sum-sq",
        &CompileOptions { postprocess: false, ..CompileOptions::default() },
    )?;
    println!(
        "(post-processing: {} procs / {} nodes  →  {} procs / {} nodes)\n",
        raw.procs.len(),
        raw.size(),
        s0.procs.len(),
        s0.size()
    );

    println!("== 5. the §5.1 C translation (first 25 lines of program()) ==");
    let args = [Datum::parse("(1 2 3)")?];
    let c = pipe.emit_c("sum-sq", &args, &CompileOptions::default(), &mut NullSink)?;
    let program_part = c
        .source
        .split("static Obj *program")
        .nth(1)
        .unwrap_or("")
        .lines()
        .take(25)
        .collect::<Vec<_>>()
        .join("\n");
    println!("static Obj *program{program_part}\n  …");

    // And of course it all computes the same thing.
    let args = [Datum::parse("(1 2 3 4)")?];
    let reference = pipe.run_standard("sum-sq", &args, realistic_pe::Limits::default())?;
    let (compiled, _) = pipe.run_compiled(
        "sum-sq",
        &args,
        &CompileOptions::default(),
        realistic_pe::Limits::default(),
    )?;
    assert_eq!(reference, compiled);
    println!("\nsum-sq '(1 2 3 4) = {compiled} on every stage: OK");
    Ok(())
}
