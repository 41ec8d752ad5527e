//! Properties of the flow optimizer and its liveness analysis, over the
//! Fig. 8 programs and fixed-seed generated programs:
//!
//! * the optimizer never grows a residual, leaves it verifying cleanly,
//!   and keeps its meaning on the S₀ evaluator, both on raw residuals
//!   and on post-processed ones (what the pipeline hands it, where the
//!   Fig. 8 programs' decidable dispatch arms are);
//! * constant propagation keeps no constant that two call sites
//!   disagree on (a pinned generated program);
//! * a starved fuel budget traps instead of looping, handing back the
//!   program unchanged, and at every budget short of completion the
//!   optimizer hands back a well-formed program that gives the Fig. 8
//!   answers on the VM;
//! * dead-parameter analysis never names a parameter its body reads
//!   outside call arguments;
//! * `to_source` lays every residual out exactly as pe-sexpr's printer
//!   lays out its procedures built as `Sexpr`s;
//! * the label analysis the optimizer hands over is that of the program
//!   it returns.

mod common;

use common::{desugared, for_programs, generated};
use pe_core::{compile, eval, CompileOptions, GenStrategy, S0Program, S0Tail};
use pe_governor::Trap;
use pe_trace::NullSink;
use pe_governor::{Fuel, Limits};
use pe_interp::Datum;
use pe_siege::Case;
use realistic_pe::suite;
use std::cell::Cell;
use std::collections::HashSet;

/// Cases per property.
const CASES: usize = 48;

/// A residual compiled without the flow optimizer, and also without
/// the post-processor unless `postprocess`: raw residuals give the
/// optimizer copies and dead parameters to remove, post-processed ones
/// are what the pipeline hands it.  `None` when the compiler refuses
/// the program (the size-change analysis rejects divergence up front).
fn unoptimized(source: &str, entry: &str, postprocess: bool) -> Option<S0Program> {
    let opts = CompileOptions { postprocess, flow: false, ..CompileOptions::default() };
    compile(&desugared(source), entry, &opts).ok()
}

/// Checks `prop` on the unoptimized residuals of the Fig. 8 programs
/// at their test inputs, then of `CASES` generated programs from
/// `seed` that compile.
fn for_residuals(seed: u64, postprocess: bool, prop: impl Fn(&Case, S0Program)) {
    for b in suite::SUITE {
        let s0 = unoptimized(b.source, b.entry, postprocess).expect("the suite compiles");
        let case = Case {
            name: b.name.to_string(),
            source: b.source.to_string(),
            entry: b.entry.to_string(),
            args: b.test_inputs(),
        };
        prop(&case, s0);
    }
    for_programs(seed, CASES, generated, |case| {
        unoptimized(&case.source, &case.entry, postprocess).map(|s0| prop(case, s0)).is_some()
    });
}

#[test]
fn optimize_preserves_meaning_and_never_grows() {
    realistic_pe::with_big_stack(|| {
        for postprocess in [false, true] {
            optimize_preserves_meaning(postprocess);
        }
    });
}

fn optimize_preserves_meaning(postprocess: bool) {
    let lim = Limits::builder().with_fuel(1_000_000).build();
    let rewrites = Cell::new(0);
    for_residuals(0xF10_5EED, postprocess, |case, s0| {
        let (opt, stats, _) = pe_flow::optimize(s0.clone(), &mut Fuel::new(&Limits::default()))
            .unwrap_or_else(|trap| panic!("{}: {trap:?}", case.name));
        assert!(opt.size() <= s0.size(), "{}: grew {} -> {}", case.name, s0.size(), opt.size());
        assert!(stats.cfg_nodes > 0, "{}", case.name);
        rewrites.set(rewrites.get() + stats.total());
        let report = pe_verify::verify(&opt);
        assert!(report.is_clean(), "{}\n{report}", case.name);
        match (eval::run(&s0, &case.args, lim), eval::run(&opt, &case.args, lim)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{}", case.name),
            // Like specialization itself, the optimizer may delete a
            // faulting computation whose value is never observed:
            // optimized code is at least as defined as its input.
            (Err(_), _) => {}
            (Ok(a), Err(e)) => {
                panic!("{}: base ok {a} but optimized faulted {e}\n{opt}", case.name)
            }
        }
    });
    assert!(rewrites.get() > 0, "the optimizer never fired (postprocess: {postprocess})");
}

/// A generated program (`gen_case` on the stream `generated` draws from
/// `Rng::new(2)`, case 214).  Its raw residual passes `'(1 2)` and
/// `'()` to one parameter of `p1` from two call sites, and its own
/// arguments `(5 3)` take only the first.
const DISAGREEING_SITES: &str = "(define (main a0 a1)
  (p1
    (if (zero? 5) (quote (1 2)) (quote ()))
    (if (< 1 a0) (quote (1 2)) (quote ()))))
(define (p0 x00)
  (if (< x00 1)
    (cons (quote ()) (cons (quote (k 4)) (quote (5 a 0))))
    (p0 (sub1 x00))))
(define (p1 x10 x11)
  (if (null? x10) x11 (p1 (cdr x10) (cons x11 (quote (1 a 3))))))
(define (apply1 f x) (f x))
(define (twice f x) (f (f x)))";

#[test]
fn disagreeing_constants_stay_dynamic() {
    realistic_pe::with_big_stack(|| {
        let lim = Limits::builder().with_fuel(1_000_000).build();
        for strategy in [GenStrategy::Offline, GenStrategy::Online] {
            let opts = CompileOptions {
                strategy,
                postprocess: false,
                flow: false,
                ..CompileOptions::default()
            };
            let s0 = compile(&desugared(DISAGREEING_SITES), "main", &opts).expect("compiles");
            let (opt, _, _) = pe_flow::optimize(s0.clone(), &mut Fuel::new(&Limits::default()))
                .expect("optimizes in budget");
            for a0 in [0, 5] {
                let args = [Datum::Int(a0), Datum::Int(3)];
                let want = eval::run(&s0, &args, lim).expect("the residual runs");
                let got = eval::run(&opt, &args, lim).expect("the optimized residual runs");
                assert_eq!(got, want, "{strategy:?}, a0 = {a0}:\n{opt}");
            }
        }
    });
}

#[test]
fn starved_fuel_traps_cleanly() {
    realistic_pe::with_big_stack(|| {
        for_residuals(0xF10_57A2, false, |case, s0| {
            let mut fuel = Fuel::new(&Limits::builder().with_fuel(1).build());
            match pe_flow::optimize(s0.clone(), &mut fuel) {
                Err((Trap::OutOfFuel { .. }, q)) => assert_eq!(q, s0, "{}", case.name),
                other => panic!("{}: {other:?}", case.name),
            }
        });
    });
}

/// Each Fig. 8 program's residual without the flow optimizer, optimized
/// at every fuel budget from 1 up to the first that completes: each
/// trapped run hands back a well-formed program with the residual's
/// answers on the VM.
#[test]
fn a_trapped_optimizer_hands_back_a_correct_program() {
    realistic_pe::with_big_stack(|| {
        let lim = Limits::builder().with_fuel(10_000_000).build();
        for b in suite::SUITE {
            let s0 = unoptimized(b.source, b.entry, true).expect("the suite compiles");
            let vm = pe_vm::Vm::compile(&s0).expect("the residual loads");
            let args = b.test_inputs();
            let want = vm.run(&args, lim).map(|r| r.0);
            let mut trapped = 0;
            for budget in 1.. {
                let mut fuel = Fuel::new(&Limits::builder().with_fuel(budget).build());
                let q = match pe_flow::optimize(s0.clone(), &mut fuel) {
                    Ok(_) => break,
                    Err((_, q)) => q,
                };
                trapped += 1;
                let errs = pe_flow::check(&q);
                assert!(errs.is_empty(), "{} at fuel {budget}: {errs:?}\n{q}", b.name);
                let vm = pe_vm::Vm::compile(&q).expect("the handed-back program loads");
                let got = vm.run(&args, lim).map(|r| r.0);
                assert_eq!(got, want, "{} at fuel {budget}\n{q}", b.name);
            }
            assert!(trapped > 0, "{}", b.name);
        }
    });
}

/// Parameter positions `t` reads outside call arguments.
fn direct_reads(t: &S0Tail, out: &mut HashSet<usize>) {
    match t {
        S0Tail::Return(s) => s.vars(&mut |k| {
            out.insert(k);
        }),
        S0Tail::If(c, a, b) => {
            c.vars(&mut |k| {
                out.insert(k);
            });
            direct_reads(a, out);
            direct_reads(b, out);
        }
        S0Tail::TailCall(..) | S0Tail::Fail(_) => {}
    }
}

#[test]
fn no_read_parameter_is_dead() {
    realistic_pe::with_big_stack(|| {
        let found = Cell::new(0);
        for_residuals(0xF10_DEAD, false, |case, s0| {
            let dead = pe_flow::liveness::dead_params(&s0, &mut Fuel::new(&Limits::default()))
                .unwrap_or_else(|trap| panic!("{}: {trap:?}", case.name));
            for (q, idxs) in s0.procs.iter().zip(&dead) {
                let mut read = HashSet::new();
                direct_reads(&q.body, &mut read);
                for &i in idxs {
                    let p = &q.params[i];
                    assert!(!read.contains(&i), "{}: dead {p} is read\n{s0}", q.name);
                }
                found.set(found.get() + idxs.len());
            }
        });
        assert!(found.get() > 0, "no dead parameter in any raw residual");
    });
}

/// Every printed procedure must read exactly as pe-sexpr's printer lays
/// out the procedure's `Sexpr` form.
fn assert_prints_as_sexpr(name: &str, p: &S0Program) {
    let want: String =
        (0..p.procs.len()).map(|i| pe_sexpr::pretty(&p.proc_sexpr(i)) + "\n").collect();
    assert_eq!(p.to_source(), want, "{name}");
}

#[test]
fn to_source_is_the_sexpr_layout() {
    realistic_pe::with_big_stack(|| {
        let strategies = [GenStrategy::Offline, GenStrategy::Online];
        for strategy in strategies {
            for (postprocess, flow) in [(false, false), (true, false), (false, true), (true, true)] {
                let opts = CompileOptions { strategy, postprocess, flow, ..CompileOptions::default() };
                for b in suite::SUITE {
                    let s0 = compile(&desugared(b.source), b.entry, &opts).expect("the suite compiles");
                    assert_prints_as_sexpr(b.name, &s0);
                }
            }
        }
        for_programs(0xF10_9417, CASES, generated, |case| {
            let dp = desugared(&case.source);
            let mut compiled = false;
            for strategy in strategies {
                let opts = CompileOptions { strategy, ..CompileOptions::default() };
                if let Ok(s0) = compile(&dp, &case.entry, &opts) {
                    assert_prints_as_sexpr(&case.name, &s0);
                    compiled = true;
                }
            }
            compiled
        });
    });
}

#[test]
fn the_handed_over_analysis_is_that_of_the_result() {
    realistic_pe::with_big_stack(|| {
        for_programs(0xF10_1AB3, CASES, generated, |case| {
            let dp = desugared(&case.source);
            let mut compiled = false;
            for strategy in [GenStrategy::Offline, GenStrategy::Online] {
                let opts = CompileOptions { strategy, ..CompileOptions::default() };
                let Ok(out) = pe_core::run(&dp, &case.entry, None, &opts, None, false, &mut NullSink)
                else {
                    continue;
                };
                let own = pe_flow::slots::analyze(&out.program, &mut Fuel::new(&Limits::default()))
                    .expect("analyzes in budget");
                assert_eq!(out.labels, Some(own), "{strategy:?}\n{}", out.program);
                compiled = true;
            }
            compiled
        });
    });
}
