//! Integration tests for the Futamura-projection route (§3) and the
//! interplay between the Unmix clone and the rest of the pipeline.

use realistic_pe::{compile_by_futamura, parse_source, Datum, Limits, UnmixOptions, FUTAMURA_ENTRY};

fn run_prog(
    p: &realistic_pe::Program,
    entry: &str,
    args: &[Datum],
) -> Result<Datum, pe_interp::InterpError> {
    pe_interp::standard::run(p, entry, args, Limits::default())
}

#[test]
fn futamura_compiles_recursive_list_programs() {
    for (src, entry, input, expect) in [
        (
            "(define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))",
            "sum",
            "(1 2 3 4 5)",
            "15",
        ),
        (
            "(define (rev l) (rev-acc l '()))
             (define (rev-acc l acc)
               (if (null? l) acc (rev-acc (cdr l) (cons (car l) acc))))",
            "rev",
            "(1 2 3)",
            "(3 2 1)",
        ),
        (
            "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
            "fib",
            "12",
            "144",
        ),
    ] {
        let subject = parse_source(src).unwrap();
        let compiled = compile_by_futamura(&subject, &UnmixOptions::default()).unwrap();
        let arg = Datum::parse(input).unwrap();
        let direct = run_prog(&subject, entry, std::slice::from_ref(&arg)).unwrap();
        let via = run_prog(&compiled, FUTAMURA_ENTRY, &[pe_interp::Value::list([arg])]).unwrap();
        assert_eq!(direct, via, "{entry}");
        assert_eq!(direct.to_string(), expect);
    }
}

#[test]
fn futamura_target_has_no_interpretive_dispatch() {
    let subject =
        parse_source("(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))").unwrap();
    let compiled = compile_by_futamura(&subject, &UnmixOptions::default()).unwrap();
    let text = compiled.to_source();
    // The expression-tag dispatch of sint's `ev` is all static: none of
    // the tags survive into the target.
    for tag in ["'var", "'const", "'prim", "'call", "bad-expression", "bad-prim"] {
        assert!(!text.contains(tag), "interpretive residue {tag} in:\n{text}");
    }
}

#[test]
fn arity_raising_flattens_interpreter_environments() {
    // Without the arity raiser + post-unfolding, sint's runtime value
    // lists survive as (car (cons …)) chains; with it they are gone —
    // the paper's "crucial" claim, as a testable fact.
    let subject =
        parse_source("(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))").unwrap();
    let on = compile_by_futamura(&subject, &UnmixOptions::default()).unwrap();
    let off = compile_by_futamura(
        &subject,
        &UnmixOptions { postprocess: false, ..UnmixOptions::default() },
    )
    .unwrap();
    let on_text = on.to_source();
    let off_text = off.to_source();
    assert!(
        on_text.len() < off_text.len(),
        "post-processing must shrink the target: {} vs {}",
        on_text.len(),
        off_text.len()
    );
    // The raised target destructs no interpreter-built argument lists.
    assert!(!on_text.contains("(car (cons"), "{on_text}");
}

#[test]
fn futamura_and_direct_pipeline_agree() {
    // The same subject program compiled through both routes — the
    // specializer-projection compiler (pe-core) and the Futamura
    // projection over sint (pe-unmix) — computes the same function.
    let src = "(define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))";
    let subject = parse_source(src).unwrap();
    let futamura = compile_by_futamura(&subject, &UnmixOptions::default()).unwrap();

    let pipe = realistic_pe::Pipeline::new(src).unwrap();
    let (vm, _) = pipe
        .compile_vm("sum", &realistic_pe::CompileOptions::default(), &mut realistic_pe::NullSink)
        .unwrap();

    for input in ["()", "(1)", "(1 2 3)", "(5 5 5 5)"] {
        let arg = Datum::parse(input).unwrap();
        let (core_result, _) = vm.run(std::slice::from_ref(&arg), Limits::default()).unwrap();
        let unmix_result =
            run_prog(&futamura, FUTAMURA_ENTRY, &[pe_interp::Value::list([arg])]).unwrap();
        assert_eq!(core_result, unmix_result, "input {input}");
    }
}
