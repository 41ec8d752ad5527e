//! End-to-end reproduction of the paper's §1 worked example.

use realistic_pe::{
    specialize, CompileOptions, Datum, GenStrategy, Limits, NullSink, Pipeline, Vm,
};

const CPS_APPEND: &str = "(define (append x y) (cps-append x y (lambda (v) v)))
(define (cps-append x y c)
  (if (null? x) (c y)
      (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";

/// "The compiler converts the program to first-order tail-recursive
/// Scheme.  It residualizes the lambda appearing in the program, and
/// represents the resulting functions by closures."
#[test]
fn compilation_produces_closure_converted_tail_code() {
    let pipe = Pipeline::new(CPS_APPEND).unwrap();
    let s0 = pipe.compile("append", &CompileOptions::default()).unwrap();
    let text = s0.to_source();
    // Closures are constructed with make-closure and dispatched on
    // closure-label, exactly as in the paper's listing.
    assert!(text.contains("make-closure"), "{text}");
    assert!(text.contains("closure-label"), "{text}");
    assert!(text.contains("closure-freeval"), "{text}");
    // The identity continuation's closure has no free values: there is a
    // make-closure with only a label argument.
    assert!(
        (0..s0.procs.len()).any(|i| format!("{}", s0.proc_sexpr(i)).contains("(make-closure ")),
        "{text}"
    );
    // Dispatch is sequential: an equal? test against a closure label.
    assert!(text.contains("(equal? "), "{text}");

    // And of course it runs.
    let vm = Vm::compile(&s0).unwrap();
    let (r, _) = vm
        .run(
            &[Datum::parse("(1 2)").unwrap(), Datum::parse("(3 4)").unwrap()],
            Limits::default(),
        )
        .unwrap();
    assert_eq!(r.to_string(), "(1 2 3 4)");
}

/// "When given a known first argument (foo bar), the compiler performs
/// specialization: (define (append-$1 y) (cons foo (cons bar y)))"
#[test]
fn specialization_matches_paper_output() {
    let pipe = Pipeline::new(CPS_APPEND).unwrap();
    let opts = CompileOptions { strategy: GenStrategy::Online, ..CompileOptions::default() };
    let s0 = specialize(
        &pipe.dprog,
        "append",
        &[Some(Datum::parse("(foo bar)").unwrap()), None],
        &opts,
    )
    .unwrap();
    // Exactly one residual procedure with exactly the paper's body.
    assert_eq!(s0.procs.len(), 1, "{s0}");
    let text = s0.proc_sexpr(0).to_string();
    assert_eq!(
        text,
        "(define (append-$1 y) (cons (quote foo) (cons (quote bar) y)))"
    );
}

/// The §1 example across both generalization strategies and a spread of
/// inputs, verified against the reference interpreter.
#[test]
fn append_agrees_with_reference_on_many_inputs() {
    let pipe = Pipeline::new(CPS_APPEND).unwrap();
    for strategy in [GenStrategy::Offline, GenStrategy::Online] {
        let opts = CompileOptions { strategy, ..CompileOptions::default() };
        let (vm, _) = pipe.compile_vm("append", &opts, &mut NullSink).unwrap();
        for (x, y) in [
            ("()", "()"),
            ("()", "(1)"),
            ("(1)", "()"),
            ("(1 2 3 4 5 6 7 8 9 10)", "(a b c)"),
            ("((1 2) (3))", "((4))"),
        ] {
            let args = [Datum::parse(x).unwrap(), Datum::parse(y).unwrap()];
            let expect = pipe.run_standard("append", &args, Limits::default()).unwrap();
            let (got, _) = vm.run(&args, Limits::default()).unwrap();
            assert_eq!(got, expect, "append {x} {y} [{strategy:?}]");
        }
    }
}

/// Jones's 1987 challenge 11.5 (§Abstract/§1): automatic conversion of a
/// non-tail-recursive program into tail form.  The compiled fib is
/// executable with bounded host stack — the control stack has become an
/// ordinary runtime data structure.
#[test]
fn jones_challenge_tail_conversion() {
    let pipe =
        Pipeline::new("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))").unwrap();
    let s0 = pipe.compile("fib", &CompileOptions::default()).unwrap();
    // S0Tail has no non-tail call form at all — conversion is total by
    // construction; the verifier plus execution demonstrates it.
    assert!(realistic_pe::verify(&s0).is_clean());
    let vm = Vm::compile(&s0).unwrap();
    let (r, stats) = vm.run(&[Datum::Int(20)], Limits::default()).unwrap();
    assert_eq!(r, Datum::Int(6765));
    // The evaluation contexts live on the heap now.
    assert!(stats.allocs > 0);
}
