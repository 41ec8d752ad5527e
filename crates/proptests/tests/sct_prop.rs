//! Property tests for the size-change termination analysis: bounded
//! programs compile without any dynamic control firing, classification
//! is deterministic, and the analysis never changes a residual's
//! meaning.

use pe_core::{compile, eval, run, CompileOptions};
use pe_frontend::{desugar, parse_source};
use pe_interp::{tail, Datum, Limits};
use proptest::prelude::*;

/// Generates bodies over `x` (number) and `l` (list) whose only
/// recursion is `walk`'s structural descent — every program terminates
/// and every procedure is provably bounded.
fn arb_body() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("x".to_string()),
        Just("l".to_string()),
        (-9i64..10).prop_map(|n| n.to_string()),
        Just("'a".to_string()),
        Just("'()".to_string()),
        Just("#f".to_string()),
    ];
    leaf.prop_recursive(4, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("(cons {a} {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("(+ {a} {b})")),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, f)| format!("(if (null? {c}) {t} {f})")),
            inner.clone().prop_map(|a| format!("(walk {a})")),
            (inner.clone(), inner.clone()).prop_map(|(r, b)| format!("(let ((w {r})) {b})")),
            (inner.clone(), inner.clone())
                .prop_map(|(b, a)| format!("((lambda (v) {b}) {a})")),
            inner.clone().prop_map(|a| format!("(if (pair? {a}) (car {a}) {a})")),
            inner.prop_map(|a| format!("(if (pair? {a}) (cdr {a}) '())")),
        ]
    })
}

fn program_for(body: &str) -> String {
    format!(
        "(define (main x l) {body})
         (define (walk v) (if (pair? v) (walk (cdr v)) v))"
    )
}

fn list_datum(l: &[i64]) -> Datum {
    Datum::parse(&format!(
        "({})",
        l.iter().map(i64::to_string).collect::<Vec<_>>().join(" ")
    ))
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Structurally descending programs are classified bounded on every
    /// procedure, are never rejected, and compile with *zero* dynamic
    /// control: no widening trap, no budget exhaustion, and a silent
    /// termination audit (pass 7).
    #[test]
    fn bounded_programs_compile_without_dynamic_control(body in arb_body()) {
        let src = program_for(&body);
        let p = parse_source(&src).expect("parses");
        let d = desugar(&p).expect("desugars");
        let flow = pe_frontend::flow::FlowAnalysis::analyze(&d);
        let a = pe_sct::analyze(&d, &flow, "main");
        prop_assert!(a.divergence.is_none(), "a terminating program was rejected");
        prop_assert!(
            a.verdicts.procs.iter().all(|&v| v == pe_sct::Verdict::Bounded),
            "not all bounded: {:?}",
            a.named_verdicts(&d)
        );
        let audit = run(
            &d,
            "main",
            None,
            &CompileOptions::default(),
            None,
            false,
            &mut pe_trace::NullSink,
        )
        .expect("compiles without a budget or divergence trap")
        .audit;
        let report = pe_verify::verify_audit(&audit);
        prop_assert!(
            report.is_clean() && report.warning_count() == 0,
            "the termination audit found unanticipated control:\n{report}"
        );
    }

    /// Classification is a pure function of the program: two analyses of
    /// the same source agree on every verdict, annotation, and counter.
    #[test]
    fn classification_is_deterministic(body in arb_body()) {
        let src = program_for(&body);
        let parse = || {
            let p = parse_source(&src).expect("parses");
            desugar(&p).expect("desugars")
        };
        let (d1, d2) = (parse(), parse());
        let f1 = pe_frontend::flow::FlowAnalysis::analyze(&d1);
        let f2 = pe_frontend::flow::FlowAnalysis::analyze(&d2);
        let a1 = pe_sct::analyze(&d1, &f1, "main");
        let a2 = pe_sct::analyze(&d2, &f2, "main");
        prop_assert_eq!(a1.named_verdicts(&d1), a2.named_verdicts(&d2));
        prop_assert_eq!(&a1.verdicts.exempt_vars, &a2.verdicts.exempt_vars);
        prop_assert_eq!(&a1.verdicts.eager_vars, &a2.verdicts.eager_vars);
        prop_assert_eq!(&a1.verdicts.stack_labels, &a2.verdicts.stack_labels);
        prop_assert_eq!(a1.stats.graphs, a2.stats.graphs);
        prop_assert_eq!(a1.stats.compositions, a2.stats.compositions);
    }

    /// The analysis is control, not transformation: residuals compiled
    /// with it on and off compute the same results on the VM-grade
    /// evaluator.
    #[test]
    fn residuals_agree_with_the_analysis_on_and_off(
        body in arb_body(),
        x in -30i64..30,
        l in proptest::collection::vec(-3i64..4, 0..4),
    ) {
        let src = program_for(&body);
        let p = parse_source(&src).expect("parses");
        let d = desugar(&p).expect("desugars");
        let args = [Datum::Int(x), list_datum(&l)];
        let lim = Limits::builder().with_fuel(1_000_000).build();
        let reference = tail::run(&d, "main", &args, lim);

        let s0_on = compile(&d, "main", &CompileOptions::default()).expect("compiles (on)");
        let off_opts = CompileOptions { sct: false, ..CompileOptions::default() };
        let s0_off = compile(&d, "main", &off_opts).expect("compiles (off)");
        let r_on = eval::run(&s0_on, &args, lim);
        let r_off = eval::run(&s0_off, &args, lim);
        match (&r_on, &r_off) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "the analysis changed the result"),
            // Residuals are at least as defined as the source; a fault
            // in dead code may fold away differently on the two paths,
            // but live results must agree — checked against the
            // reference run.
            _ => {
                if let Ok(want) = &reference {
                    prop_assert!(
                        false,
                        "reference {want} but on={r_on:?} off={r_off:?}"
                    );
                }
            }
        }
    }
}
