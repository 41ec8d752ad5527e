//! Properties of the size-change termination analysis, over fixed-seed
//! generated programs:
//!
//! * structurally descending programs are classified bounded and
//!   compile with a silent termination audit (verify pass 7);
//! * classification is a pure function of the program;
//! * residuals compiled with the analysis on and off agree;
//! * closing each call-graph component separately yields exactly the
//!   self-graphs of the whole-set closure, on the Fig. 8 suite and on
//!   generated programs.

mod common;

use common::{desugared, for_programs, generated};
use pe_core::{compile, eval, run, CompileOptions};
use pe_frontend::{desugar, parse_source, DProgram, FlowAnalysis};
use pe_interp::{tail, Datum, Limits};
use pe_sct::closure::MAX_GRAPHS;
use pe_sct::{callgraph, closure, SizeGraph};
use pe_siege::rng::Rng;
use pe_siege::Case;
use realistic_pe::suite;
use std::collections::BTreeSet;

/// Cases per property.
const CASES: usize = 64;

/// A body over `x` (number) and `l` (list) whose only recursion is
/// `walk`'s structural descent: every program terminates and every
/// procedure is provably bounded.
fn body(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 || rng.chance(3) {
        return match rng.below(6) {
            0 => "x".to_string(),
            1 => "l".to_string(),
            2 => (rng.below(19) as i64 - 9).to_string(),
            3 => "'a".to_string(),
            4 => "'()".to_string(),
            _ => "#f".to_string(),
        };
    }
    let form = rng.below(8);
    let mut sub = || body(rng, depth - 1);
    match form {
        0 => format!("(cons {} {})", sub(), sub()),
        1 => format!("(+ {} {})", sub(), sub()),
        2 => format!("(if (null? {}) {} {})", sub(), sub(), sub()),
        3 => format!("(walk {})", sub()),
        4 => format!("(let ((w {})) {})", sub(), sub()),
        5 => format!("((lambda (v) {}) {})", sub(), sub()),
        6 => {
            let a = sub();
            format!("(if (pair? {a}) (car {a}) {a})")
        }
        _ => {
            let a = sub();
            format!("(if (pair? {a}) (cdr {a}) '())")
        }
    }
}

/// A bounded program: `main` over `body`, and `walk`.
fn bounded(rng: &mut Rng) -> Case {
    Case {
        name: "bounded".to_string(),
        source: format!(
            "(define (main x l) {})
         (define (walk v) (if (pair? v) (walk (cdr v)) v))",
            body(rng, 4)
        ),
        entry: "main".to_string(),
        args: Vec::new(),
    }
}

#[test]
fn bounded_programs_compile_without_dynamic_control() {
    for_programs(0x5C7_0B0D, CASES, bounded, |case| {
        let d = desugared(&case.source);
        let flow = FlowAnalysis::analyze(&d);
        let a = pe_sct::analyze(&d, &flow, "main");
        assert!(a.divergence.is_none(), "a terminating program was rejected");
        assert!(
            a.verdicts.procs.iter().all(|&v| v == pe_sct::Verdict::Bounded),
            "not all bounded: {:?}",
            a.named_verdicts(&d)
        );
        let opts = CompileOptions::default();
        let audit = run(&d, "main", None, &opts, None, false, &mut pe_trace::NullSink)
            .unwrap_or_else(|e| panic!("{e}"))
            .audit;
        let report = pe_verify::verify_audit(&audit);
        assert!(
            report.is_clean() && report.warning_count() == 0,
            "the termination audit found unanticipated control:\n{report}"
        );
        true
    });
}

#[test]
fn classification_is_deterministic() {
    for_programs(0x5C7_DE7E, CASES, bounded, |case| {
        let (d1, d2) = (desugared(&case.source), desugared(&case.source));
        let a1 = pe_sct::analyze(&d1, &FlowAnalysis::analyze(&d1), "main");
        let a2 = pe_sct::analyze(&d2, &FlowAnalysis::analyze(&d2), "main");
        assert_eq!(a1.named_verdicts(&d1), a2.named_verdicts(&d2));
        assert_eq!(a1.verdicts.exempt_vars, a2.verdicts.exempt_vars);
        assert_eq!(a1.verdicts.eager_vars, a2.verdicts.eager_vars);
        let (v1, v2) = (&a1.verdicts, &a2.verdicts);
        for te in d1.defs.iter().map(|d| &d.body).chain(d1.lambdas.iter().map(|l| &l.body)) {
            te.for_each_label(&mut |l| {
                assert_eq!(v1.at_label(l.0), v2.at_label(l.0));
                assert_eq!(v1.on_stack(l.0), v2.on_stack(l.0));
            });
        }
        assert_eq!(a1.stats, a2.stats);
        true
    });
}

fn list_datum(rng: &mut Rng) -> Datum {
    let items: Vec<String> =
        (0..rng.below(4)).map(|_| (rng.below(7) as i64 - 3).to_string()).collect();
    Datum::parse(&format!("({})", items.join(" "))).unwrap()
}

#[test]
fn residuals_agree_with_the_analysis_on_and_off() {
    let mut arg_rng = Rng::new(0x5C7_0FF0);
    let draw = |rng: &mut Rng| Case {
        args: vec![Datum::Int(arg_rng.below(60) as i64 - 30), list_datum(&mut arg_rng)],
        ..bounded(rng)
    };
    for_programs(0x5C7_A6EE, CASES, draw, |case| {
        let d = desugared(&case.source);
        let lim = Limits::builder().with_fuel(1_000_000).build();
        let reference = tail::run(&d, "main", &case.args, lim);
        let s0_on = compile(&d, "main", &CompileOptions::default()).expect("compiles (on)");
        let off_opts = CompileOptions { sct: false, ..CompileOptions::default() };
        let s0_off = compile(&d, "main", &off_opts).expect("compiles (off)");
        let r_on = eval::run(&s0_on, &case.args, lim);
        let r_off = eval::run(&s0_off, &case.args, lim);
        match (&r_on, &r_off) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "the analysis changed the result"),
            // Residuals are at least as defined as the source; a fault
            // in dead code may fold away differently on the two paths,
            // but live results must agree — checked against the
            // reference run.
            _ => assert!(
                reference.is_err(),
                "reference {reference:?} but on={r_on:?} off={r_off:?}"
            ),
        }
        true
    });
}

/// The whole-set closure the per-component one replaced: every work
/// item is composed with a snapshot of every graph held, whatever its
/// endpoints, until nothing new appears or the budget is exceeded.
fn whole_set_close(initial: &[SizeGraph]) -> (BTreeSet<SizeGraph>, bool) {
    let mut set: BTreeSet<SizeGraph> = initial.iter().cloned().collect();
    let mut work: Vec<SizeGraph> = set.iter().cloned().collect();
    while let Some(g) = work.pop() {
        let snapshot: Vec<SizeGraph> = set.iter().cloned().collect();
        for h in &snapshot {
            for composed in [
                (g.dst == h.src).then(|| g.compose(h)),
                (h.dst == g.src).then(|| h.compose(&g)),
            ]
            .into_iter()
            .flatten()
            {
                if set.insert(composed.clone()) {
                    if set.len() > MAX_GRAPHS {
                        return (set, true);
                    }
                    work.push(composed);
                }
            }
        }
    }
    (set, false)
}

fn self_graphs<'g>(gs: impl IntoIterator<Item = &'g SizeGraph>) -> BTreeSet<&'g SizeGraph> {
    gs.into_iter().filter(|g| g.src == g.dst).collect()
}

/// Closes `p`'s graphs both ways and compares the self-graphs.
fn assert_same_self_graphs(name: &str, p: &DProgram) {
    let graphs = callgraph::build(p, &p.owned_lambdas());
    let ours = closure::close(p.defs.len(), &graphs);
    let (reference, truncated) = whole_set_close(&graphs);
    assert!(!ours.truncated && !truncated, "{name}: truncated");
    assert_eq!(self_graphs(&ours.graphs), self_graphs(&reference), "{name}");
}

#[test]
fn per_component_closure_keeps_every_self_graph() {
    for b in suite::SUITE {
        assert_same_self_graphs(b.name, &desugared(b.source));
    }
    for_programs(0x5C7_C105, 512, generated, |case| {
        let Ok(Ok(p)) = parse_source(&case.source).map(|p| desugar(&p)) else { return false };
        assert_same_self_graphs(&case.source, &p);
        true
    });
}
