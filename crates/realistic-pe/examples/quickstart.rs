//! Quickstart: compile the paper's §1 `cps-append` program and run it on
//! every engine in the suite.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use realistic_pe::{CompileOptions, Datum, Limits, NullSink, Pipeline};

const SRC: &str = "(define (append x y) (cps-append x y (lambda (v) v)))
(define (cps-append x y c)
  (if (null? x)
      (c y)
      (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pipe = Pipeline::new(SRC)?;
    let args = [Datum::parse("(1 2 3)")?, Datum::parse("(4 5)")?];
    let lim = Limits::default();

    println!("== source program ==\n{}\n", pipe.program.to_source());

    // 1. Reference semantics: the Fig. 3 interpreter.
    let reference = pipe.run_standard("append", &args, lim)?;
    println!("standard interpreter  : {reference}");

    // 2. The specializing compiler: higher-order → first-order
    //    tail-recursive S₀, closure conversion and tail conversion in
    //    one pass.
    let s0 = pipe.compile("append", &CompileOptions::default())?;
    println!("\n== compiled S0 (first-order, tail-recursive) ==\n{s0}");

    // 3. Run the compiled code on the goto-machine VM.
    let (result, stats) = pipe.run_compiled("append", &args, &CompileOptions::default(), lim)?;
    println!("compiled on VM        : {result}   ({stats:?})");
    assert_eq!(result, reference);

    // 4. The Hobbit-like baseline for comparison.
    let hobbit = pipe.compile_hobbit()?;
    println!("hobbit baseline       : {}", hobbit.run("append", &args, lim)?);

    // 5. And the §5.1 C translation.
    let c = pipe.emit_c("append", &args, &CompileOptions::default(), &mut NullSink)?;
    println!("\nC translation: {} bytes (see compile_to_c example to run it)", c.size_bytes());
    Ok(())
}
