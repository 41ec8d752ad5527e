//! Mutation testing of the verifier: compile a real benchmark, corrupt
//! it in a targeted way, and confirm that *exactly the intended pass*
//! rejects the mutant with a diagnostic naming the offending procedure.
//! A verifier that accepts any of these mutants is not checking what it
//! claims to check.

use pe_core::{CompileOptions, S0Program, S0Simple, S0Tail};
use pe_verify::{verify, verify_source, Pass, Report};

/// The paper's §1 example, compiled for real — closure conversion and
/// tail conversion make the residual rich enough to mutate.
const CPS_APPEND: &str = "(define (append x y) (cps-append x y (lambda (v) v)))
     (define (cps-append x y c)
       (if (null? x) (c y)
           (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";

fn compile_append() -> S0Program {
    let p = pe_frontend::parse_source(CPS_APPEND).expect("parse");
    let d = pe_frontend::desugar(&p).expect("desugar");
    pe_core::compile(&d, "append", &CompileOptions::default()).expect("compile")
}

/// Asserts every error belongs to one of `passes` and at least one
/// names `who`.  Several mutants are caught at more than one
/// representation level (typed AST, concrete syntax) — the point is
/// that *only* the intended passes fire.
fn assert_caught_by(report: &Report, passes: &[Pass], who: &str) {
    assert!(report.has_errors(), "mutant was accepted:\n{report}");
    for e in report.errors() {
        assert!(passes.contains(&e.pass), "unexpected pass for: {e}");
    }
    assert!(
        report.errors().any(|e| e.proc_name.as_deref() == Some(who)),
        "no error names {who}:\n{report}"
    );
}

fn first_call_mut(t: &mut S0Tail) -> Option<(&mut usize, &mut Vec<S0Simple>)> {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => None,
        S0Tail::If(_, a, b) => first_call_mut(a).or_else(|| first_call_mut(b)),
        S0Tail::TailCall(p, args) => Some((p, args)),
    }
}

#[test]
fn baseline_is_clean() {
    let s0 = compile_append();
    let report = verify(&s0);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn corrupt_arity_is_caught_by_wellformed() {
    let mut s0 = compile_append();
    let victim = s0
        .procs
        .iter_mut()
        .find_map(|pr| {
            let name = pr.name.clone();
            first_call_mut(&mut pr.body).filter(|(_, args)| !args.is_empty()).map(
                |(_, args)| {
                    args.pop();
                    name
                },
            )
        })
        .expect("some call has arguments");
    let report = verify(&s0);
    // Arity drift is caught at two representation levels: by the
    // well-formedness pass on the typed AST and by the preservation
    // certificate on the re-read concrete syntax.
    assert!(report.has_errors(), "mutant was accepted:\n{report}");
    for pass in [Pass::WellFormed, Pass::Preservation] {
        assert!(
            report.errors().any(|e| {
                e.pass == pass
                    && e.proc_name.as_deref() == Some(victim.as_str())
                    && e.message.contains("argument(s), expected")
            }),
            "{pass:?} missed the arity mutant in {victim}:\n{report}"
        );
    }
    assert!(
        report.errors().all(|e| e.message.contains("argument(s), expected")),
        "unrelated error:\n{report}"
    );
}

#[test]
fn unbound_variable_is_caught_by_wellformed() {
    // The first call's first argument reads position 5 of a procedure
    // with fewer parameters.
    let mut s0 = compile_append();
    let victim = s0
        .procs
        .iter_mut()
        .find_map(|pr| {
            let (_, args) = first_call_mut(&mut pr.body).filter(|(_, args)| !args.is_empty())?;
            args[0] = S0Simple::Var(5);
            Some((pr.name.clone(), pr.params.len()))
        })
        .expect("some call has arguments");
    let report = verify(&s0);
    assert_caught_by(&report, &[Pass::WellFormed], &victim.0);
    let message = format!("unbound variable at position 5 ({} parameter(s))", victim.1);
    assert!(report.errors().any(|e| e.message == message), "{report}");
}

#[test]
fn broken_tail_form_is_caught_by_preservation() {
    // Text-level mutation: add a procedure that calls the entry in a
    // simple (non-tail) position — inexpressible in the S0Tail type,
    // which is exactly why the certificate re-checks concrete syntax.
    let s0 = compile_append();
    let mutant = format!(
        "{}\n(define (mutant a b) (cons ({} a b) a))",
        s0.to_source(),
        s0.procs[s0.entry].name
    );
    let report = verify_source(&mutant);
    assert_caught_by(&report, &[Pass::Preservation], "mutant");
    assert!(
        report.errors().any(|e| {
            e.message.contains("non-tail position")
                && e.message.contains("not tail-recursive")
        }),
        "{report}"
    );
}

#[test]
fn lambda_smuggled_into_residual_is_caught_by_preservation() {
    let s0 = compile_append();
    let mutant = format!(
        "{}\n(define (mutant a) (lambda (x) x))",
        s0.to_source()
    );
    let report = verify_source(&mutant);
    assert_caught_by(&report, &[Pass::Preservation], "mutant");
    assert!(
        report.errors().any(|e| e.message.contains("higher-order construct (lambda)")),
        "{report}"
    );
}

#[test]
fn shrunken_closure_record_is_caught_by_closure_shape() {
    // Truncate the captured values of every allocation site of one
    // label that captures at least one value; some dispatch arm still
    // reads `(closure-freeval c 0)` under that label.
    fn shrink(s: &mut S0Simple, label: u32) {
        match s {
            S0Simple::Var(_) | S0Simple::Const(_) => {}
            S0Simple::MakeClosure(l, args) => {
                if *l == label {
                    args.clear();
                } else {
                    args.iter_mut().for_each(|a| shrink(a, label));
                }
            }
            S0Simple::Prim(_, args) => args.iter_mut().for_each(|a| shrink(a, label)),
            S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => shrink(a, label),
        }
    }
    fn shrink_tail(t: &mut S0Tail, label: u32) {
        match t {
            S0Tail::Return(s) => shrink(s, label),
            S0Tail::Fail(_) => {}
            S0Tail::If(c, a, b) => {
                shrink(c, label);
                shrink_tail(a, label);
                shrink_tail(b, label);
            }
            S0Tail::TailCall(_, args) => args.iter_mut().for_each(|a| shrink(a, label)),
        }
    }

    let s0 = compile_append();
    let shapes = pe_flow::slots::analyze(&s0, &mut pe_governor::Fuel::new(&pe_governor::Limits::default()))
        .expect("label analysis in budget");
    let caught = shapes
        .min_captures
        .iter()
        .filter(|(_, &n)| n > 0)
        .any(|(&label, _)| {
            let mut mutant = s0.clone();
            for pr in &mut mutant.procs {
                shrink_tail(&mut pr.body, label);
            }
            let report = verify(&mutant);
            report.errors().all(|e| e.pass == Pass::ClosureShape)
                && report.errors().any(|e| {
                    e.proc_name.is_some()
                        && e.message.contains("closure-freeval index")
                        && e.message.contains("exceeds the captured-value count")
                })
        });
    assert!(caught, "no shrunken label produced a closure-shape error");
}

#[test]
fn golden_report_rendering() {
    // A fixed ill-formed program renders a byte-exact report: the
    // diagnostics are a stable API surface for drivers and tests.
    let src = "(define (main x) (if (helper x) (main x x) y))";
    let report = verify_source(src);
    assert_eq!(
        report.to_string(),
        "error[preservation] main: unknown operator helper\n\
         error[preservation] main: tail call to main with 2 argument(s), expected 1"
    );

    use pe_core::S0Proc;
    let prog = S0Program {
        entry: 0,
        procs: vec![S0Proc {
            name: "main".into(),
            params: vec!["x".into()],
            body: S0Tail::TailCall(7, vec![S0Simple::Var(1)]),
        }],
    };
    let report = verify(&prog);
    assert_eq!(
        report.to_string(),
        "error[well-formed] main: unbound variable at position 1 (1 parameter(s))\n\
         error[well-formed] main: call to undefined procedure at position 7 (1 procedure(s))\n\
         error[preservation] main: unknown operator %undefined"
    );
}
