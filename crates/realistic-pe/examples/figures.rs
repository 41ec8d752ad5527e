//! Regenerates every table and figure of the paper's evaluation, plus
//! the ablations listed in DESIGN.md.
//!
//! ```sh
//! cargo run --release --example figures            # everything
//! cargo run --release --example figures -- fig8    # one experiment
//! ```
//!
//! Experiments: `fig8`, `online`, `size`, `trick`, `post`, `arity`,
//! `speedup`.

use realistic_pe::{
    compile, specialize, CProgram, CompileOptions, Datum, GenStrategy, Limits, Pipeline,
    UnmixOptions, Vm, SUITE,
};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn main() {
    // Baseline/interpreter rows recurse on the host stack by design.
    realistic_pe::with_big_stack(|| run().expect("figures run"));
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let all = which.is_empty() || which.iter().any(|w| w == "all");
    let want = |name: &str| all || which.iter().any(|w| w == name);

    if want("fig8") {
        fig8()?;
    }
    if want("online") {
        online()?;
    }
    if want("size") {
        size()?;
    }
    if want("trick") {
        trick()?;
    }
    if want("post") {
        post()?;
    }
    if want("arity") {
        arity()?;
    }
    if want("speedup") {
        speedup()?;
    }
    Ok(())
}

/// Times one closure to a stable median-ish value: best of `reps` runs.
fn time_ms(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// Builds `c` with `cc -O2` in `dir` and times the binary, spawn to
/// exit, best of 3.  Checks that it prints `expect`.
fn time_c(
    dir: &Path,
    name: &str,
    c: &CProgram,
    expect: &str,
) -> Result<f64, Box<dyn std::error::Error>> {
    let src = dir.join(format!("{name}.c"));
    let bin = dir.join(name);
    std::fs::write(&src, &c.source)?;
    let out = Command::new("cc").arg("-O2").arg("-o").arg(&bin).arg(&src).output()?;
    if !out.status.success() {
        return Err(format!("{name}: cc failed: {}", String::from_utf8_lossy(&out.stderr)).into());
    }
    let out = Command::new(&bin).output()?;
    let printed = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() || printed.trim() != expect {
        return Err(format!("{name}: C printed {printed:?}, the VM {expect:?}").into());
    }
    Ok(time_ms(3, || {
        Command::new(&bin).output().expect("binary runs");
    }))
}

/// Figure 8: ours (PE compiler → S₀ on the VM, and as `cc -O2` C) vs
/// the Hobbit-like baseline, offline generalization strategy — who
/// wins, by what factor.  The C column is left out without `cc`.
fn fig8() -> Result<(), Box<dyn std::error::Error>> {
    let c_dir = Command::new("cc")
        .arg("--version")
        .output()
        .is_ok()
        .then(|| std::env::temp_dir().join(format!("pe-figures-{}", std::process::id())));
    if let Some(dir) = &c_dir {
        std::fs::create_dir_all(dir)?;
    }
    println!("== Figure 8: benchmarks (ours = PE→S0 on VM, offline strategy) ==");
    let c_head = if c_dir.is_some() { format!(" {:>8}", "C ms") } else { String::new() };
    println!(
        "{:<11} {:>10}{c_head} {:>10} {:>7}   {:>10} {:>10} {:>7}   match?",
        "benchmark", "ours ms", "hobbit ms", "ratio", "paper ours", "paper hob", "ratio"
    );
    for b in SUITE {
        let pipe = Pipeline::new(b.source)?;
        let args = b.bench_inputs();
        let opts = CompileOptions { strategy: GenStrategy::Offline, ..CompileOptions::default() };
        let vm = pipe.compile_vm(b.entry, &opts)?;
        let hob = pipe.compile_hobbit()?;
        let lim = Limits::default();

        let expect = vm.run(&args, lim)?.0;
        assert_eq!(expect, hob.run(b.entry, &args, lim)?, "{}: disagreement", b.name);

        let ours = time_ms(3, || {
            vm.run(&args, lim).expect("runs");
        });
        let hobbit = time_ms(3, || {
            hob.run(b.entry, &args, lim).expect("runs");
        });
        let c_col = match &c_dir {
            Some(dir) => {
                let c = pipe.emit_c(b.entry, &args, &opts)?;
                format!(" {:>8.2}", time_c(dir, b.name, &c, &expect.to_string())?)
            }
            None => String::new(),
        };
        let ratio = ours / hobbit;
        let paper_ratio = f64::from(b.paper_ours_ms) / f64::from(b.paper_hobbit_ms);
        // Shape check: who wins.
        let shape = (ratio < 1.0) == (paper_ratio < 1.0);
        println!(
            "{:<11} {:>10.2}{c_col} {:>10.2} {:>7.2}   {:>10} {:>10} {:>7.2}   {}",
            b.name,
            ours,
            hobbit,
            ratio,
            b.paper_ours_ms,
            b.paper_hobbit_ms,
            paper_ratio,
            if shape { "yes" } else { "no" }
        );
    }
    if let Some(dir) = &c_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    println!();
    Ok(())
}

/// §8: "using the online generalization strategy, the cpstak benchmark
/// ran roughly 3 times faster."
fn online() -> Result<(), Box<dyn std::error::Error>> {
    println!("== §8: online vs offline generalization ==");
    println!("{:<11} {:>12} {:>12} {:>9}", "benchmark", "offline ms", "online ms", "off/on");
    for b in SUITE {
        let pipe = Pipeline::new(b.source)?;
        let args = b.bench_inputs();
        let lim = Limits::default();
        let mut row = Vec::new();
        for strategy in [GenStrategy::Offline, GenStrategy::Online] {
            let opts = CompileOptions { strategy, ..CompileOptions::default() };
            let vm = pipe.compile_vm(b.entry, &opts)?;
            row.push(time_ms(3, || {
                vm.run(&args, lim).expect("runs");
            }));
        }
        println!("{:<11} {:>12.2} {:>12.2} {:>9.2}", b.name, row[0], row[1], row[0] / row[1]);
    }
    println!("(paper: cpstak ≈3× faster online)\n");
    Ok(())
}

/// §8 code sizes: residual program and C translation sizes per
/// benchmark (the paper: whole suite binary < 200 KB incl. collector).
fn size() -> Result<(), Box<dyn std::error::Error>> {
    println!("== §8: code sizes ==");
    println!(
        "{:<11} {:>9} {:>10} {:>12} {:>10}",
        "benchmark", "s0 procs", "s0 nodes", "s0 bytes", "C bytes"
    );
    let mut total_c = 0usize;
    for b in SUITE {
        let pipe = Pipeline::new(b.source)?;
        let opts = CompileOptions::default();
        let s0 = pipe.compile(b.entry, &opts)?;
        let c = pipe.emit_c(b.entry, &b.bench_inputs(), &opts)?;
        total_c += c.size_bytes();
        println!(
            "{:<11} {:>9} {:>10} {:>12} {:>10}",
            b.name,
            s0.procs.len(),
            s0.size(),
            s0.to_source().len(),
            c.size_bytes()
        );
    }
    println!(
        "total generated C for the suite: {} KB (paper: suite binary < 200 KB)\n",
        total_c / 1024
    );
    Ok(())
}

/// Ablation A: The Trick's dispatch with vs without the flow-analysis
/// restriction (§4.2): dispatch tests and code size.
fn trick() -> Result<(), Box<dyn std::error::Error>> {
    println!("== ablation: flow-restricted dispatch (The Trick) ==");
    println!(
        "{:<11} {:>14} {:>14} {:>12} {:>12}",
        "benchmark", "tests (flow)", "tests (all)", "size (flow)", "size (all)"
    );
    for b in SUITE {
        let pipe = Pipeline::new(b.source)?;
        let mut row = Vec::new();
        for trick_flow in [true, false] {
            let opts = CompileOptions { trick_flow, ..CompileOptions::default() };
            let s0 = pipe.compile(b.entry, &opts)?;
            let text = s0.to_source();
            row.push((text.matches("closure-label").count(), s0.size()));
        }
        println!(
            "{:<11} {:>14} {:>14} {:>12} {:>12}",
            b.name, row[0].0, row[1].0, row[0].1, row[1].1
        );
    }
    println!();
    Ok(())
}

/// Ablation B: the residual post-processor (transition compression,
/// inline-once, dead params) on/off.
fn post() -> Result<(), Box<dyn std::error::Error>> {
    println!("== ablation: residual post-processing ==");
    println!(
        "{:<11} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "procs (on)", "procs (off)", "nodes (on)", "nodes (off)"
    );
    for b in SUITE {
        let pipe = Pipeline::new(b.source)?;
        let on = pipe.compile(b.entry, &CompileOptions::default())?;
        let off = pipe
            .compile(b.entry, &CompileOptions { postprocess: false, ..CompileOptions::default() })?;
        println!(
            "{:<11} {:>12} {:>12} {:>12} {:>12}",
            b.name,
            on.procs.len(),
            off.procs.len(),
            on.size(),
            off.size()
        );
    }
    println!();
    Ok(())
}

/// Ablation C: Unmix's arity raiser / post-unfolding on the Futamura
/// residual programs ("crucial … in the absence of partially static
/// data").
fn arity() -> Result<(), Box<dyn std::error::Error>> {
    println!("== ablation: unmix post-processing (arity raising) on Futamura targets ==");
    let subjects = [
        (
            "rev",
            "(define (rev l) (rev-acc l '()))
             (define (rev-acc l acc)
               (if (null? l) acc (rev-acc (cdr l) (cons (car l) acc))))",
        ),
        (
            "sum",
            "(define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))",
        ),
        (
            "member",
            "(define (member? x l)
               (if (null? l) #f (if (eq? x (car l)) #t (member? x (cdr l)))))",
        ),
    ];
    println!("{:<9} {:>12} {:>12}", "subject", "bytes (on)", "bytes (off)");
    for (name, src) in subjects {
        let subject = realistic_pe::parse_source(src)?;
        let on = realistic_pe::compile_by_futamura(&subject, &UnmixOptions::default())?;
        let off = realistic_pe::compile_by_futamura(
            &subject,
            &UnmixOptions { postprocess: false, ..UnmixOptions::default() },
        )?;
        println!(
            "{:<9} {:>12} {:>12}",
            name,
            on.to_source().len(),
            off.to_source().len()
        );
    }
    println!();
    Ok(())
}

/// The interpretive-overhead claim (§2): compiled code vs direct
/// interpretation, plus the specializer projection payoff.
fn speedup() -> Result<(), Box<dyn std::error::Error>> {
    println!("== §2: interpretive overhead removal (compiled vs Fig. 3 interpreter) ==");
    println!(
        "{:<11} {:>12} {:>12} {:>9}",
        "benchmark", "interp ms", "compiled ms", "speedup"
    );
    for b in SUITE {
        let pipe = Pipeline::new(b.source)?;
        let args = b.bench_inputs();
        let lim = Limits::default();
        let vm = pipe.compile_vm(b.entry, &CompileOptions::default())?;
        let interp = time_ms(3, || {
            pipe.run_standard(b.entry, &args, lim).expect("runs");
        });
        let compiled = time_ms(3, || {
            vm.run(&args, lim).expect("runs");
        });
        println!(
            "{:<11} {:>12.3} {:>12.3} {:>9.2}",
            b.name,
            interp,
            compiled,
            interp / compiled
        );
    }
    // Specializer projection payoff in deterministic steps.
    let pipe = Pipeline::new(
        "(define (append x y) (cps-append x y (lambda (v) v)))
         (define (cps-append x y c)
           (if (null? x) (c y)
               (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))",
    )?;
    let opts = CompileOptions { strategy: GenStrategy::Online, ..CompileOptions::default() };
    let xs = "(a b c d e f g h)";
    let general = compile(&pipe.dprog, "append", &opts)?;
    let special =
        specialize(&pipe.dprog, "append", &[Some(Datum::parse(xs)?), None], &opts)?;
    let y = Datum::parse("(tail)")?;
    let (_, s1) = Vm::compile(&general)?.run(&[Datum::parse(xs)?, y.clone()], Limits::default())?;
    let (_, s2) = Vm::compile(&special)?.run(&[y], Limits::default())?;
    println!(
        "\nappend vs append-$1 on static {xs}: {} steps → {} steps\n",
        s1.steps, s2.steps
    );
    Ok(())
}
