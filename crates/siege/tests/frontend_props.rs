//! Properties of the front end, over fixed seeds:
//!
//! * printing (flat or pretty) and re-reading any S-expression is the
//!   identity, two printed expressions read back as both, and the
//!   reader never panics on printable garbage;
//! * the desugarer's output conforms to the Fig. 5 grammar and keeps
//!   every lambda's free-variable list sorted and free of its
//!   parameter, unparse → parse is the identity, and the Fig. 6 tail
//!   interpreter on the desugared program agrees with the Fig. 3
//!   interpreter on the source;
//! * Reynolds defunctionalization (Fig. 4) agrees with the Fig. 3
//!   interpreter on closure-heavy programs with shadowing, currying
//!   and captured state.
//!
//! Program properties draw from `gen_case`; the reader trees and the
//! closure bodies come from generators of their own.

mod common;

use common::{budget, desugared, for_all, for_programs, generated};
use pe_frontend::dast::{DProgram, SimpleExpr, TailExpr};
use pe_frontend::parse_source;
use pe_interp::{closconv, standard, tail, Datum};
use pe_sexpr::{pretty_width, read, read_one, Sexpr};
use pe_siege::oracle::oracle_limits;
use pe_siege::rng::Rng;
use pe_siege::Case;
use realistic_pe::with_big_stack;
use std::cell::Cell;

/// Cases per reader property.
const TREES: usize = 2_000;

/// Characters a symbol may start with; later ones may also be digits.
const SYMBOL_START: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!?*+<=>_-";

/// Characters beyond ASCII that strings and character literals draw.
const WIDE: [char; 3] = ['é', 'λ', '→'];

/// A string of up to `max` characters drawn from printable ASCII and
/// [`WIDE`], with newlines when `newline` is set.
fn text(rng: &mut Rng, max: u64, newline: bool) -> String {
    let alphabet = 95 + WIDE.len() as u64 + u64::from(newline);
    (0..rng.below(max + 1))
        .map(|_| match rng.below(alphabet) {
            c @ 0..=94 => char::from(b' ' + c as u8),
            c if c < 95 + WIDE.len() as u64 => WIDE[c as usize - 95],
            _ => '\n',
        })
        .collect()
}

/// A symbol that does not read as an integer.
fn symbol(rng: &mut Rng) -> String {
    loop {
        let mut s = String::from(char::from(*rng.pick(SYMBOL_START)));
        for _ in 0..rng.below(9) {
            s.push(match rng.below(SYMBOL_START.len() as u64 + 10) {
                d @ 0..=9 => char::from(b'0' + d as u8),
                i => char::from(SYMBOL_START[i as usize - 10]),
            });
        }
        let body = s.strip_prefix(['-', '+']).unwrap_or(&s);
        if body.is_empty() || !body.bytes().all(|b| b.is_ascii_digit()) {
            return s;
        }
    }
}

/// A tree up to four lists deep with up to five elements per list.
fn sexpr(rng: &mut Rng, depth: u32) -> Sexpr {
    if depth > 0 && rng.chance(2) {
        return Sexpr::List((0..rng.below(6)).map(|_| sexpr(rng, depth - 1)).collect());
    }
    match rng.below(5) {
        // Magnitudes of every bit length, both signs.
        0 => Sexpr::Int((rng.next_u64() as i64) >> rng.below(64)),
        1 => Sexpr::Bool(rng.chance(2)),
        2 => Sexpr::Sym(symbol(rng).into()),
        3 => Sexpr::Str(text(rng, 12, false).into()),
        _ => Sexpr::Char(*rng.pick(&['a', 'Z', '0', ' ', '\n', 'é', 'λ', '→'])),
    }
}

#[test]
fn print_read_roundtrip() {
    for_all(0x5E_0001, TREES, |rng| sexpr(rng, 4), |e| {
        assert_eq!(&read_one(&e.to_string()).expect("printed form reads back"), e);
    });
}

#[test]
fn pretty_read_roundtrip() {
    let draw = |rng: &mut Rng| (sexpr(rng, 4), 4 + rng.below(96) as usize);
    for_all(0x5E_0002, TREES, draw, |(e, width)| {
        assert_eq!(&read_one(&pretty_width(e, *width)).expect("pretty form reads back"), e);
    });
}

/// Reader input: up to 64 draws, each printable ASCII, a [`WIDE`]
/// character, a newline, or `#\` as one draw — so a character literal
/// meets every kind of character often, wide ones included.
fn reader_input(rng: &mut Rng) -> String {
    let alphabet = 1 + 95 + WIDE.len() as u64 + 1;
    let mut s = String::new();
    for _ in 0..rng.below(65) {
        match rng.below(alphabet) {
            0 => s.push_str("#\\"),
            c @ 1..=95 => s.push(char::from(b' ' + (c - 1) as u8)),
            c if c < 96 + WIDE.len() as u64 => s.push(WIDE[c as usize - 96]),
            _ => s.push('\n'),
        }
    }
    s
}

#[test]
fn read_never_panics() {
    let wide_literals = Cell::new(0);
    for_all(0x5E_0003, 4 * TREES, reader_input, |s| {
        let _ = read(s);
        let wide = WIDE.iter().any(|w| s.contains(&format!("#\\{w}")));
        wide_literals.set(wide_literals.get() + usize::from(wide));
    });
    assert!(wide_literals.get() >= 50, "{} inputs with #\\ before a wide character", wide_literals.get());
}

#[test]
fn multiple_expressions_concatenate() {
    for_all(0x5E_0004, TREES, |rng| (sexpr(rng, 4), sexpr(rng, 4)), |(a, b)| {
        assert_eq!(read(&format!("{a} {b}")).expect("reads"), vec![a.clone(), b.clone()]);
    });
}

/// Program cases per desugarer property.
const PROGRAMS: usize = 256;

/// The Fig. 5 grammar: conditions, call arguments and contexts are
/// simple; lambdas are hoisted; `let` is gone.
fn assert_tail_form(p: &DProgram, te: &TailExpr) {
    match te {
        TailExpr::Simple(se) => assert_simple(p, se),
        TailExpr::If(_, c, t, e) => {
            assert_simple(p, c);
            assert_tail_form(p, t);
            assert_tail_form(p, e);
        }
        TailExpr::CallProc(_, _, args) => args.iter().for_each(|a| assert_simple(p, a)),
        TailExpr::PushApp(_, ctx, body) => {
            assert_simple(p, ctx);
            assert_tail_form(p, body);
        }
    }
}

fn assert_simple(p: &DProgram, se: &SimpleExpr) {
    match se {
        SimpleExpr::Var(_, _) | SimpleExpr::Const(_, _) => {}
        SimpleExpr::Prim(_, _, args) => args.iter().for_each(|a| assert_simple(p, a)),
        SimpleExpr::Lambda(_, id) => assert_tail_form(p, &p.lambda(*id).body),
    }
}

#[test]
fn desugared_output_is_grammar_conformant() {
    for_programs(0xDE5_0001, PROGRAMS, generated, |case| {
        let d = desugared(&case.source);
        for def in &d.defs {
            assert_tail_form(&d, &def.body);
        }
        for lam in &d.lambdas {
            assert!(lam.freevars.windows(2).all(|w| w[0] < w[1]), "unsorted free variables");
            assert!(!lam.freevars.contains(&lam.param), "a lambda's parameter is free");
        }
        true
    });
}

#[test]
fn unparse_parse_identity() {
    for_programs(0xDE5_0002, PROGRAMS, generated, |case| {
        let p = parse_source(&case.source).expect("parses");
        let again = parse_source(&p.to_source()).expect("unparse reparses");
        // Structural equality up to labels: compare unparsed text.
        assert_eq!(p.to_source(), again.to_source());
        true
    });
}

#[test]
fn desugaring_preserves_semantics() {
    with_big_stack(|| {
        for_programs(0xDE5_0003, PROGRAMS, generated, |case| {
            let p = parse_source(&case.source).expect("parses");
            let lim = oracle_limits();
            let direct = standard::run(&p, &case.entry, &case.args, lim);
            let tailed = tail::run(&desugared(&case.source), &case.entry, &case.args, lim);
            match (&direct, &tailed) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                // Both fault, possibly with different errors: desugaring
                // may reorder which error surfaces.
                (Err(_), Err(_)) => {}
                (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
                    assert!(budget(e), "divergence: {direct:?} vs {tailed:?}");
                }
            }
            true
        });
    });
}

/// A closure-heavy body over the number `x`: lambdas rebinding `x`
/// (shadowing), curried applications and a `let`-bound closure that
/// captures a computed value.  Every construct terminates structurally.
fn closure_body(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 || rng.chance(3) {
        return match rng.below(2) {
            0 => "x".to_string(),
            _ => (rng.below(19) as i64 - 9).to_string(),
        };
    }
    let form = rng.below(6);
    let mut sub = || closure_body(rng, depth - 1);
    match form {
        0 => format!("(+ {} {})", sub(), sub()),
        1 => format!("(* {} {})", sub(), sub()),
        2 => format!("((lambda (x) {}) {})", sub(), sub()),
        3 => format!("(((lambda (u) (lambda (w) {})) {}) {})", sub(), sub(), sub()),
        4 => format!("(let ((k (lambda (y) (+ y {})))) (k {}))", sub(), sub()),
        _ => format!("(if (< {} 0) {} {})", sub(), sub(), sub()),
    }
}

#[test]
fn defunctionalization_is_observationally_equivalent() {
    let draw = |rng: &mut Rng| Case {
        name: "closures".to_string(),
        source: format!("(define (main x) {})", closure_body(rng, 5)),
        entry: "main".to_string(),
        args: vec![Datum::Int(rng.below(100) as i64 - 50)],
    };
    with_big_stack(|| {
        for_programs(0xC105_0001, PROGRAMS, draw, |case| {
            let p = parse_source(&case.source).expect("parses");
            let lim = oracle_limits();
            let a = standard::run(&p, &case.entry, &case.args, lim);
            let b = closconv::run(&p, &case.entry, &case.args, lim);
            match (&a, &b) {
                (Ok(va), Ok(vb)) => assert_eq!(va, vb),
                (Err(_), Err(_)) => {}
                (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
                    assert!(budget(e), "divergence: {a:?} vs {b:?}");
                }
            }
            true
        });
    });
}
