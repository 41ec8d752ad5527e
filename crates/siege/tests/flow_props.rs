//! Properties of the flow optimizer and its liveness analysis, over the
//! Fig. 8 programs and fixed-seed generated programs:
//!
//! * the optimizer never grows a residual, leaves it verifying cleanly,
//!   and keeps its meaning on the S₀ evaluator;
//! * a starved fuel budget traps instead of looping or returning a
//!   program;
//! * dead-parameter analysis never names a parameter its body reads
//!   outside call arguments.

use pe_core::{compile, eval, CompileOptions, S0Program, S0Tail};
use pe_frontend::{desugar, parse_source};
use pe_governor::{Fuel, Limits};
use pe_interp::Datum;
use pe_siege::gen::gen_case;
use pe_siege::rng::Rng;
use realistic_pe::suite;
use std::collections::HashSet;

/// Cases per property.
const CASES: usize = 48;

/// The Fig. 8 programs at their test inputs, then `CASES` generated
/// programs from `seed`, each compiled with `opts`.  Generated programs
/// the compiler refuses (the size-change analysis rejects divergence up
/// front) are skipped.
fn residuals(seed: u64, opts: &CompileOptions) -> Vec<(String, S0Program, Vec<Datum>)> {
    let compiled = |src: &str, entry: &str| {
        let d = desugar(&parse_source(src).expect("parses")).expect("desugars");
        compile(&d, entry, opts).ok()
    };
    let mut out: Vec<_> = suite::SUITE
        .iter()
        .map(|b| {
            let s0 = compiled(b.source, b.entry).expect("the suite compiles");
            (b.name.to_string(), s0, b.test_inputs())
        })
        .collect();
    let mut master = Rng::new(seed);
    for _ in 0..4 * CASES {
        let case = gen_case(&mut master.fork());
        if let Some(s0) = compiled(&case.source, &case.entry) {
            out.push((case.source, s0, case.args));
            if out.len() == suite::SUITE.len() + CASES {
                return out;
            }
        }
    }
    panic!("only {} of {} generated programs compiled", out.len(), 4 * CASES);
}

/// Residuals compiled with neither the post-processor nor the flow
/// optimizer, so the optimizer has copies, dead parameters, dispatch
/// arms and capture slots to remove.
fn unoptimized(seed: u64) -> Vec<(String, S0Program, Vec<Datum>)> {
    residuals(seed, &CompileOptions { postprocess: false, flow: false, ..CompileOptions::default() })
}

#[test]
fn optimize_preserves_meaning_and_never_grows() {
    realistic_pe::with_big_stack(|| {
        let lim = Limits::builder().with_fuel(1_000_000).build();
        let mut rewrites = 0;
        for (src, s0, args) in unoptimized(0xF10_5EED) {
            let (opt, stats) = pe_flow::optimize(s0.clone(), &mut Fuel::new(&Limits::default()))
                .unwrap_or_else(|trap| panic!("{src}: {trap:?}"));
            assert!(opt.size() <= s0.size(), "grew: {} -> {}\n{src}", s0.size(), opt.size());
            assert!(stats.cfg_nodes > 0, "{src}");
            rewrites += stats.total();
            let report = pe_verify::verify(&opt);
            assert!(report.is_clean(), "{src}\n{report}");
            match (eval::run(&s0, &args, lim), eval::run(&opt, &args, lim)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{src}"),
                // Like specialization itself, the optimizer may delete a
                // faulting computation whose value is never observed:
                // optimized code is at least as defined as its input.
                (Err(_), _) => {}
                (Ok(a), Err(e)) => panic!("base ok {a} but optimized faulted {e}\n{src}\n{opt}"),
            }
        }
        assert!(rewrites > 0, "the optimizer never fired");
    });
}

#[test]
fn starved_fuel_traps_cleanly() {
    realistic_pe::with_big_stack(|| {
        for (src, s0, _) in unoptimized(0xF10_57A2) {
            let mut fuel = Fuel::new(&Limits::builder().with_fuel(1).build());
            assert!(pe_flow::optimize(s0, &mut fuel).is_err(), "{src}");
        }
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
        let mut found = 0;
        for (src, s0, _) in unoptimized(0xF10_DEAD) {
            let dead = pe_flow::liveness::dead_params(&s0, &mut Fuel::new(&Limits::default()))
                .unwrap_or_else(|trap| panic!("{src}: {trap:?}"));
            for q in &s0.procs {
                let Some(idxs) = dead.get(&q.name) else { continue };
                let mut read = HashSet::new();
                direct_reads(&q.body, &mut read);
                for &i in idxs {
                    let p = &q.params[i];
                    assert!(!read.contains(p), "{}: dead {p} is read\n{src}\n{s0}", q.name);
                }
                found += idxs.len();
            }
        }
        assert!(found > 0, "no dead parameter in any raw residual");
    });
}
