//! The full §5 pipeline: Scheme subset → S₀ → C, then (if a C compiler
//! is available) compile and run the generated binary and compare its
//! output with the VM.
//!
//! ```sh
//! cargo run --example compile_to_c
//! ```

use realistic_pe::{CompileOptions, Datum, Limits, NullSink, Pipeline};
use std::process::Command;

const SRC: &str = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pipe = Pipeline::new(SRC)?;
    let args = [Datum::Int(25)];
    let opts = CompileOptions::default();

    let s0 = pipe.compile("fib", &opts)?;
    println!(
        "S0: {} procedures, {} AST nodes, {} bytes of text",
        s0.procs.len(),
        s0.size(),
        s0.to_source().len()
    );

    let c = pipe.emit_c("fib", &args, &opts, &mut NullSink)?;
    let dir = std::env::temp_dir().join("realistic-pe-c-demo");
    std::fs::create_dir_all(&dir)?;
    let c_path = dir.join("fib.c");
    std::fs::write(&c_path, &c.source)?;
    println!("C translation: {} bytes → {}", c.size_bytes(), c_path.display());

    let (vm_result, stats) = pipe.run_compiled("fib", &args, &opts, Limits::default())?;
    println!("VM result      : {vm_result}  ({} steps, {} allocs)", stats.steps, stats.allocs);

    // Compile and run with the system C compiler when present.
    let bin = dir.join("fib");
    let cc_ok = Command::new("cc")
        .arg("-O2")
        .arg("-o")
        .arg(&bin)
        .arg(&c_path)
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    if cc_ok {
        let out = Command::new(&bin).output()?;
        let c_result = String::from_utf8_lossy(&out.stdout).trim().to_string();
        println!("C binary result: {c_result}");
        assert_eq!(c_result, vm_result.to_string(), "C and VM must agree");
        println!("C and VM agree: OK");
    } else {
        println!("(no C compiler found; skipped compiling {})", c_path.display());
    }
    Ok(())
}
