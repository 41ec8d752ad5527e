//! The property runner every `*_props.rs` suite shares: fixed seeds and
//! case counts on pe-siege's `Rng`, and on failure the seed, the case
//! index and, for a program case, a reproducer shrunk by
//! `pe_siege::shrink`.  Each suite uses a subset of these items.
#![allow(dead_code)]

use pe_frontend::{desugar, parse_source, DProgram};
use pe_interp::InterpError;
use pe_siege::gen::gen_case;
use pe_siege::rng::Rng;
use pe_siege::shrink::shrink;
use pe_siege::Case;
use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Property re-runs the shrinker may spend on one failing case.
const SHRINK_BUDGET: usize = 200;

/// Checks `prop` on `cases` values that `draw` takes in turn from
/// `Rng::new(seed)`.  A property fails by panicking; the runner names
/// the seed, the case index and the value before passing the panic on.
pub fn for_all<T: Debug>(
    seed: u64,
    cases: usize,
    mut draw: impl FnMut(&mut Rng) -> T,
    prop: impl Fn(&T),
) {
    let mut rng = Rng::new(seed);
    for index in 0..cases {
        let case = draw(&mut rng);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| prop(&case))) {
            eprintln!("property failed at seed {seed:#x}, case {index}: {case:?}");
            resume_unwind(panic);
        }
    }
}

/// Checks `prop` on program cases that `draw` takes in turn from
/// `Rng::new(seed)`, until `prop` has applied to `cases` of them; it
/// returns `false` for a case it does not apply to.  At most
/// `8 * cases` cases are drawn.  A failing case is shrunk to a smaller
/// program that still parses and still fails, and both are printed
/// with the seed and the case index.
pub fn for_programs(
    seed: u64,
    cases: usize,
    mut draw: impl FnMut(&mut Rng) -> Case,
    prop: impl Fn(&Case) -> bool,
) {
    let mut rng = Rng::new(seed);
    let mut applied = 0;
    for index in 0..8 * cases {
        let case = draw(&mut rng);
        match catch_unwind(AssertUnwindSafe(|| prop(&case))) {
            Ok(true) => {
                applied += 1;
                if applied == cases {
                    return;
                }
            }
            Ok(false) => {}
            Err(panic) => {
                let fails = |c: &Case| {
                    parse_source(&c.source).is_ok()
                        && catch_unwind(AssertUnwindSafe(|| prop(c))).is_err()
                };
                let (small, steps) = shrink(&case, fails, SHRINK_BUDGET);
                let args: String = case.args.iter().map(|a| format!(" {a}")).collect();
                eprintln!(
                    "property failed at seed {seed:#x}, case {index}, ({}{args}):\n{}\
                     shrunk in {steps} steps to:\n{}",
                    case.entry, case.source, small.source
                );
                resume_unwind(panic);
            }
        }
    }
    panic!("the property applied to {applied} of {} drawn cases, not {cases}", 8 * cases);
}

/// A `gen_case` program on a fork of `rng`: the case stream of the
/// program properties.
pub fn generated(rng: &mut Rng) -> Case {
    let g = gen_case(&mut rng.fork());
    Case { name: "generated".to_string(), source: g.source, entry: g.entry, args: g.args }
}

/// True for a budget trap.  Engines meter fuel, heap and call depth
/// differently, so a budget trap on one side of a comparison is the
/// oracle's documented budget divergence, not a disagreement.
pub fn budget(e: &InterpError) -> bool {
    match e {
        InterpError::FuelExhausted => true,
        InterpError::Trap(t) => t.is_budget(),
        _ => false,
    }
}

/// The desugared form of a program case's source.
pub fn desugared(source: &str) -> DProgram {
    desugar(&parse_source(source).expect("parses")).expect("desugars")
}
