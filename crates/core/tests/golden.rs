//! Golden tests: residual programs for key inputs have exactly the
//! structure the paper describes — not just the right behaviour.

use pe_core::{compile, specialize, CompileOptions, GenStrategy, S0Simple, S0Tail};
use pe_frontend::{desugar, parse_source};
use pe_interp::Datum;

fn compile_src(src: &str, entry: &str, opts: &CompileOptions) -> pe_core::S0Program {
    let p = parse_source(src).unwrap();
    let d = desugar(&p).unwrap();
    compile(&d, entry, opts).unwrap()
}

/// A first-order tail loop compiles to itself: one residual procedure,
/// same test, same arithmetic — the compiler adds zero overhead where
/// there is nothing to convert.
#[test]
fn tail_loop_compiles_to_itself() {
    let s0 = compile_src(
        "(define (count n acc) (if (zero? n) acc (count (- n 1) (+ acc 1))))",
        "count",
        &CompileOptions::default(),
    );
    assert_eq!(s0.procs.len(), 1, "{s0}");
    let body = &s0.procs[0].body;
    let S0Tail::If(cond, t, f) = body else {
        panic!("expected residual conditional, got {body:?}")
    };
    assert!(matches!(cond, S0Simple::Prim(pe_frontend::Prim::ZeroP, _)));
    assert!(matches!(&**t, S0Tail::Return(S0Simple::Var(_))));
    let S0Tail::TailCall(callee, args) = &**f else {
        panic!("expected self tail call")
    };
    assert_eq!(*callee, 0, "calls itself");
    assert_eq!(args.len(), 2);
    // No closure machinery at all: the program was already tail form.
    assert!(!s0.to_source().contains("closure"), "{s0}");
}

/// Static arithmetic disappears entirely.
#[test]
fn static_arithmetic_folds() {
    let s0 = compile_src(
        "(define (f x) (+ x (* 3 (+ 2 2))))",
        "f",
        &CompileOptions::default(),
    );
    let text = s0.to_source();
    assert!(text.contains("12"), "folded constant expected: {text}");
    assert!(!text.contains('*'), "no residual multiplication: {text}");
}

/// The identity continuation keeps its empty closure; the inner
/// continuation captures exactly its two free variables — the closure
/// layout of the paper's §1 listing.
#[test]
fn cps_append_closure_layout() {
    let s0 = compile_src(
        "(define (append x y) (cps-append x y (lambda (v) v)))
         (define (cps-append x y c)
           (if (null? x) (c y)
               (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))",
        "append",
        &CompileOptions::default(),
    );
    let text = s0.to_source();
    // One make-closure with zero captured values (identity)…
    let mut zero_capture = 0;
    let mut two_capture = 0;
    for p in &s0.procs {
        count_closures(&p.body, &mut |n| match n {
            0 => zero_capture += 1,
            2 => two_capture += 1,
            _ => {}
        });
    }
    assert!(zero_capture >= 1, "identity closure: {text}");
    assert!(two_capture >= 1, "inner continuation captures c and x: {text}");
}

fn count_closures(t: &S0Tail, f: &mut impl FnMut(usize)) {
    fn simple(s: &S0Simple, f: &mut impl FnMut(usize)) {
        match s {
            S0Simple::MakeClosure(_, args) => {
                f(args.len());
                args.iter().for_each(|a| simple(a, f));
            }
            S0Simple::Prim(_, args) => args.iter().for_each(|a| simple(a, f)),
            S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => simple(a, f),
            S0Simple::Var(_) | S0Simple::Const(_) => {}
        }
    }
    match t {
        S0Tail::Return(s) => simple(s, f),
        S0Tail::If(c, a, b) => {
            simple(c, f);
            count_closures(a, f);
            count_closures(b, f);
        }
        S0Tail::TailCall(_, args) => args.iter().for_each(|a| simple(a, f)),
        S0Tail::Fail(_) => {}
    }
}

/// Specializing a dispatcher to its (static) table eliminates the table
/// and the lookup loop — only the selected operations survive.
#[test]
fn dispatcher_specialization_eliminates_table() {
    let src = "(define (run op x) (step op x))
         (define (step op x)
           (if (eq? op 'inc) (+ x 1)
               (if (eq? op 'dec) (- x 1)
                   (if (eq? op 'dbl) (* x 2) x))))";
    let p = parse_source(src).unwrap();
    let d = desugar(&p).unwrap();
    let opts = CompileOptions { strategy: GenStrategy::Online, ..CompileOptions::default() };
    let s0 =
        specialize(&d, "run", &[Some(Datum::parse("dbl").unwrap()), None], &opts).unwrap();
    let text = s0.to_source();
    assert!(!text.contains("eq?"), "dispatch eliminated: {text}");
    assert!(!text.contains("inc") && !text.contains("dec"), "dead arms gone: {text}");
    assert!(text.contains('*'), "selected op survives: {text}");
}

/// Without post-processing the residual program uses the paper's
/// generated names, each `sl-eval-$n` at position `n` after the entry;
/// with it the entry keeps the source name.
#[test]
fn residual_naming_scheme() {
    let src = "(define (go l) (walk l))
               (define (walk l) (if (null? l) 'done (walk (cdr l))))";
    let raw = compile_src(
        src,
        "go",
        &CompileOptions { postprocess: false, ..CompileOptions::default() },
    );
    let at = |(i, p): (usize, &pe_core::S0Proc)| p.name == format!("sl-eval-${i}");
    assert!(raw.procs.iter().enumerate().skip(1).all(at), "{raw}");
    assert!(raw
        .procs
        .iter()
        .skip(1)
        .all(|p| p.params.iter().all(|v| v.starts_with("cv-vals-$"))));
    assert_eq!(raw.procs[raw.entry].name, "go");
}
