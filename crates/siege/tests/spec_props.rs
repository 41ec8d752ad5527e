//! Properties of the two specializers, over `gen_case` programs:
//!
//! * every engine agrees with the Fig. 3 interpreter, value or fault,
//!   and the specializer's residuals always verify and are first-order
//!   and tail-recursive (the language preservation property, §4);
//! * compiled code computes what the Fig. 6 interpreter computes, and
//!   specializing to static inputs preserves meaning (the first
//!   Futamura projection, §3–4), for both generalization strategies;
//! * for first-order programs and every static/dynamic division of the
//!   entry's arguments, the Unmix residual applied to the dynamic
//!   arguments computes the source function, and reparses (§2).
//!
//! Residuals are at least as defined as the source: a computation
//! whose value is never used may be discarded, so a fault in dead code
//! can disappear, while a fault in live code is preserved.  Engines
//! meter their budgets differently, so a budget trap or a budget-cut
//! compile on either side is no disagreement.

mod common;

use common::{budget, desugared, for_programs, generated};
use pe_core::{compile, eval, specialize, CompileOptions, GenStrategy, S0Program, SpecError};
use pe_frontend::{parse_source, Prim, Program};
use pe_interp::{standard, tail, Datum, InterpError, Limits, PrimError};
use pe_siege::oracle::oracle_limits;
use pe_siege::Case;
use pe_unmix::{UnmixError, UnmixOptions};
use realistic_pe::{with_big_stack, Pipeline, PipelineError};

const STRATEGIES: [GenStrategy; 2] = [GenStrategy::Offline, GenStrategy::Online];

/// Every static/dynamic division of `args`, all-dynamic first: the
/// entry's binding-time slots (`Some` = static) and the arguments left
/// for the residual.
fn divisions(args: &[Datum]) -> impl Iterator<Item = (Vec<Option<Datum>>, Vec<Datum>)> + '_ {
    (0..1usize << args.len()).map(move |mask| {
        let is_static = |i: usize| mask >> i & 1 == 1;
        let slots = args.iter().enumerate().map(|(i, a)| is_static(i).then(|| a.clone()));
        let dynamic = args.iter().enumerate().filter(|&(i, _)| !is_static(i));
        (slots.collect(), dynamic.map(|(_, a)| a.clone()).collect())
    })
}

/// Specializer options under the oracle's limits.
fn options(strategy: GenStrategy) -> CompileOptions {
    CompileOptions { strategy, limits: oracle_limits(), ..CompileOptions::default() }
}

/// The residual, or `None` when the specializer's budget cut it off or
/// the termination analysis refused the program.
fn residual(r: Result<S0Program, SpecError>) -> Option<S0Program> {
    match r {
        Ok(s0) => Some(s0),
        Err(e) if e.is_degradable() => None,
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn engines_agree_on_random_programs() {
    with_big_stack(|| {
        for_programs(0xE0_0001, 192, generated, |case| {
            let pipe = Pipeline::new(&case.source).expect("parses");
            let (entry, args, lim) = (case.entry.as_str(), &case.args[..], oracle_limits());
            let hobbit = pipe.compile_hobbit().expect("the baseline compiles");
            let others = [
                ("tail", pipe.run_tail(entry, args, lim)),
                ("closconv", pipe.run_closconv(entry, args, lim)),
                ("hobbit", hobbit.run(entry, args, lim).map_err(PipelineError::Run)),
            ];
            let out_of_budget = |e: &PipelineError| match e {
                PipelineError::Run(e) => budget(e),
                PipelineError::Spec(e) => e.is_degradable(),
                _ => false,
            };
            match pipe.run_standard(entry, args, lim) {
                Ok(v) => {
                    for (name, r) in &others {
                        match r {
                            Ok(w) => assert_eq!(w, &v, "{name}"),
                            Err(e) => assert!(out_of_budget(e), "{name} faulted: {e}"),
                        }
                    }
                    for strategy in STRATEGIES {
                        match pipe.run_compiled(entry, args, &options(strategy), lim) {
                            Ok((w, _)) => assert_eq!(w, v, "compiled {strategy:?}"),
                            Err(e) => assert!(out_of_budget(&e), "compiled {strategy:?}: {e}"),
                        }
                    }
                }
                // The reference faults, so every interpreter and the
                // baseline fault too (possibly with a different error).
                Err(e) if !out_of_budget(&e) => {
                    for (name, r) in &others {
                        assert!(r.is_err(), "{name} succeeded where the reference faulted: {e}");
                    }
                }
                Err(_) => {}
            }
            true
        });
    });
}

#[test]
fn residual_programs_always_check() {
    for_programs(0xE0_0002, 192, generated, |case| {
        let pipe = Pipeline::new(&case.source).expect("parses");
        let mut compiled = false;
        for strategy in STRATEGIES {
            let s0 = match pipe.compile(&case.entry, &options(strategy)) {
                Ok(s0) => s0,
                Err(PipelineError::Spec(e)) if e.is_degradable() => continue,
                Err(e) => panic!("{strategy:?}: {e}"),
            };
            let report = pe_verify::verify(&s0);
            assert!(report.is_clean(), "{strategy:?}: {report}");
            assert!(!s0.to_source().contains("lambda"), "{strategy:?}: {s0}");
            compiled = true;
        }
        compiled
    });
}

#[test]
fn compiled_equals_interpreted() {
    with_big_stack(|| {
        for_programs(0x5BEC_0001, 144, generated, |case| {
            let d = desugared(&case.source);
            let lim = oracle_limits();
            let reference = tail::run(&d, &case.entry, &case.args, lim);
            let mut compiled = false;
            for strategy in STRATEGIES {
                let Some(s0) = residual(compile(&d, &case.entry, &options(strategy))) else {
                    continue;
                };
                let report = pe_verify::verify(&s0);
                assert!(report.is_clean(), "{strategy:?}: {report}");
                match (&reference, eval::run(&s0, &case.args, lim)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, &b, "{strategy:?}"),
                    (Ok(a), Err(e)) => assert!(
                        budget(&e),
                        "{strategy:?}: interpreted {a} but compiled faulted {e}\n{s0}"
                    ),
                    (Err(_), _) => {}
                }
                compiled = true;
            }
            compiled
        });
    });
}

#[test]
fn specialization_preserves_meaning() {
    with_big_stack(|| {
        for_programs(0x5BEC_0002, 144, generated, |case| {
            let d = desugared(&case.source);
            let lim = oracle_limits();
            let reference = tail::run(&d, &case.entry, &case.args, lim);
            let mut specialized = false;
            // Every division with at least one static argument.
            for (slots, dynamic) in divisions(&case.args).skip(1) {
                let opts = options(GenStrategy::Online);
                let Some(s0) = residual(specialize(&d, &case.entry, &slots, &opts)) else {
                    continue;
                };
                assert!(pe_verify::verify(&s0).is_clean(), "{slots:?}");
                match (&reference, eval::run(&s0, &dynamic, lim)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, &b, "{slots:?}"),
                    (Ok(a), Err(e)) => assert!(
                        budget(&e),
                        "{slots:?}: reference {a} but specialized faulted {e}\n{s0}"
                    ),
                    (Err(_), _) => {}
                }
                specialized = true;
            }
            specialized
        });
    });
}

/// A saved counterexample: the `let` binding faults, but its value is
/// never used, so both strategies' residuals answer 0.
#[test]
fn dead_faulting_binding_leaves_no_residual_fault() {
    let d = desugared(
        "(define (main x l) (let ((w (+ x 'a))) x))
         (define (walk v) (if (pair? v) (walk (cdr v)) v))",
    );
    let args = [Datum::Int(0), Datum::parse("()").unwrap()];
    let lim = Limits::default();
    assert!(
        matches!(
            tail::run(&d, "main", &args, lim),
            Err(InterpError::Prim(PrimError::TypeError { prim: Prim::Add, .. }))
        ),
        "the tail interpreter evaluates the dead binding"
    );
    for strategy in STRATEGIES {
        let opts = CompileOptions { strategy, ..CompileOptions::default() };
        let s0 = compile(&d, "main", &opts).expect("compiles");
        assert_eq!(eval::run(&s0, &args, lim), Ok(Datum::Int(0)), "{strategy:?}");
    }
}

/// Unmix options under the oracle's limits.
fn unmix_options() -> UnmixOptions {
    UnmixOptions { limits: oracle_limits(), ..UnmixOptions::default() }
}

/// Checks `prop` on the first-order cases of `seed`'s stream, with
/// every division of the entry's arguments and the Unmix residual of
/// each division that specializes.
fn for_unmix_residuals(
    seed: u64,
    prop: impl Fn(&Case, &Program, &[Datum], Program),
) {
    for_programs(seed, 96, generated, |case| {
        let p = parse_source(&case.source).expect("parses");
        if pe_unmix::check_first_order(&p).is_err() {
            return false;
        }
        for (slots, dynamic) in divisions(&case.args) {
            match pe_unmix::specialize(&p, &case.entry, &slots, &unmix_options()) {
                Ok(r) => prop(case, &p, &dynamic, r),
                // A static fault aborts specialization (classic Mix),
                // and may sit on a dynamically dead path; a budget cut
                // proves nothing either.
                Err(
                    UnmixError::StaticError(_)
                    | UnmixError::Budget { .. }
                    | UnmixError::DepthExceeded,
                ) => {}
                Err(e) => panic!("{slots:?}: {e}"),
            }
        }
        true
    });
}

#[test]
fn residual_computes_the_source_function() {
    with_big_stack(|| {
        for_unmix_residuals(0x0A1_0001, |case, p, dynamic, r| {
            let lim = oracle_limits();
            let reference = standard::run(p, &case.entry, &case.args, lim);
            let via = standard::run(&r, &format!("{}-$1", case.entry), dynamic, lim);
            match (&reference, &via) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "{}", r.to_source()),
                (Ok(x), Err(e)) => {
                    assert!(budget(e), "source {x} but residual faulted {e}\n{}", r.to_source());
                }
                (Err(_), _) => {}
            }
        });
    });
}

#[test]
fn residual_is_wellformed() {
    // The front end checks scope and arity, so a residual that
    // reparses is well scoped.
    for_unmix_residuals(0x0A1_0002, |_, _, _, r| {
        let text = r.to_source();
        assert!(parse_source(&text).is_ok(), "residual does not reparse:\n{text}");
    });
}

/// A saved counterexample: with every slot dynamic the faulting
/// `(+ 0 '())` is still static, so specialization aborts.
#[test]
fn static_fault_aborts_unmix() {
    let p = parse_source(
        "(define (main a b l) (walk (+ 0 '())))
         (define (walk v) (if (pair? v) (walk (cdr v)) v))",
    )
    .expect("parses");
    let r = pe_unmix::specialize(&p, "main", &[None, None, None], &UnmixOptions::default());
    assert!(matches!(r, Err(UnmixError::StaticError(_))), "{r:?}");
}
