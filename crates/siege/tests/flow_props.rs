//! Properties of the flow optimizer and its liveness analysis, over the
//! Fig. 8 programs and fixed-seed generated programs:
//!
//! * the optimizer never grows a residual, leaves it verifying cleanly,
//!   and keeps its meaning on the S₀ evaluator;
//! * a starved fuel budget traps instead of looping or returning a
//!   program;
//! * dead-parameter analysis never names a parameter its body reads
//!   outside call arguments.

mod common;

use common::{desugared, for_programs, generated};
use pe_core::{compile, eval, CompileOptions, S0Program, S0Tail};
use pe_governor::{Fuel, Limits};
use pe_siege::Case;
use realistic_pe::suite;
use std::cell::Cell;
use std::collections::HashSet;

/// Cases per property.
const CASES: usize = 48;

/// A residual compiled with neither the post-processor nor the flow
/// optimizer, so the optimizer has copies, dead parameters, dispatch
/// arms and capture slots to remove; `None` when the compiler refuses
/// the program (the size-change analysis rejects divergence up front).
fn unoptimized(source: &str, entry: &str) -> Option<S0Program> {
    let opts = CompileOptions { postprocess: false, flow: false, ..CompileOptions::default() };
    compile(&desugared(source), entry, &opts).ok()
}

/// Checks `prop` on the unoptimized residuals of the Fig. 8 programs
/// at their test inputs, then of `CASES` generated programs from
/// `seed` that compile.
fn for_residuals(seed: u64, prop: impl Fn(&Case, S0Program)) {
    for b in suite::SUITE {
        let s0 = unoptimized(b.source, b.entry).expect("the suite compiles");
        let case = Case {
            name: b.name.to_string(),
            source: b.source.to_string(),
            entry: b.entry.to_string(),
            args: b.test_inputs(),
        };
        prop(&case, s0);
    }
    for_programs(seed, CASES, generated, |case| {
        unoptimized(&case.source, &case.entry).map(|s0| prop(case, s0)).is_some()
    });
}

#[test]
fn optimize_preserves_meaning_and_never_grows() {
    realistic_pe::with_big_stack(|| {
        let lim = Limits::builder().with_fuel(1_000_000).build();
        let rewrites = Cell::new(0);
        for_residuals(0xF10_5EED, |case, s0| {
            let (opt, stats) = pe_flow::optimize(s0.clone(), &mut Fuel::new(&Limits::default()))
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
        assert!(rewrites.get() > 0, "the optimizer never fired");
    });
}

#[test]
fn starved_fuel_traps_cleanly() {
    realistic_pe::with_big_stack(|| {
        for_residuals(0xF10_57A2, |case, s0| {
            let mut fuel = Fuel::new(&Limits::builder().with_fuel(1).build());
            assert!(pe_flow::optimize(s0, &mut fuel).is_err(), "{}", case.name);
        });
    });
}

/// Variables `t` reads outside call arguments.
fn direct_reads(t: &S0Tail, out: &mut HashSet<String>) {
    match t {
        S0Tail::Return(s) => s.vars(out),
        S0Tail::If(c, a, b) => {
            c.vars(out);
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
        for_residuals(0xF10_DEAD, |case, s0| {
            let dead = pe_flow::liveness::dead_params(&s0, &mut Fuel::new(&Limits::default()))
                .unwrap_or_else(|trap| panic!("{}: {trap:?}", case.name));
            for q in &s0.procs {
                let Some(idxs) = dead.get(&q.name) else { continue };
                let mut read = HashSet::new();
                direct_reads(&q.body, &mut read);
                for &i in idxs {
                    let p = &q.params[i];
                    assert!(!read.contains(p), "{}: dead {p} is read\n{s0}", q.name);
                }
                found.set(found.get() + idxs.len());
            }
        });
        assert!(found.get() > 0, "no dead parameter in any raw residual");
    });
}
