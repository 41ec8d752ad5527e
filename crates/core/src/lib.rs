//! The paper's primary contribution: an optimizing compiler from
//! higher-order recursion equations (a purely functional Scheme subset)
//! to first-order tail-recursive Scheme (S₀), obtained as the
//! specializer-projection reading of the two-level interpreter of Fig. 7.
//!
//! The compiler performs, in one pass,
//!
//! * **closure conversion** (higher-order removal — Reynolds
//!   defunctionalization, residualizing `make-closure` /
//!   `closure-label` / `closure-freeval` and sequential label dispatch),
//! * **conversion to tail form** (evaluation contexts become closures; a
//!   critical context stack becomes an ordinary runtime list),
//! * **aggressive constant propagation over partially static data**
//!   (value descriptions `quote/cons/clos/cv`), and
//! * with static entry arguments, **program specialization** — the first
//!   specializer projection (`append-$1` in the paper's §1 example).
//!
//! One function runs it: [`run`] takes the entry's static slots (or
//! none, to compile), an optional warm-start [`MemoSnapshot`], and a
//! trace sink, runs cfa → sct → specialize → post → flow once, and
//! returns a [`Compiled`] program with its [`CompileAudit`] and, when
//! asked, a fresh snapshot.  [`compile`] and [`specialize`] are its
//! untraced forms.
//!
//! ```
//! use pe_core::{compile, CompileOptions};
//! use pe_frontend::{desugar, parse_source};
//!
//! let p = parse_source(
//!     "(define (append x y) (cps-append x y (lambda (v) v)))
//!      (define (cps-append x y c)
//!        (if (null? x) (c y)
//!            (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))",
//! ).unwrap();
//! let d = desugar(&p).unwrap();
//! let s0 = compile(&d, "append", &CompileOptions::default()).unwrap();
//! // The residual program is first-order and tail-recursive — the
//! // `pe-verify` crate checks this property statically.
//! assert!(!s0.to_source().contains("lambda"));
//! assert!(s0.to_source().contains("make-closure"));
//! ```

pub mod desc;
pub mod eval;
pub mod spec;

pub use desc::{CvId, DescShape, MissingCv, ValDesc};
pub use pe_governor::{Fuel, Limits, Trap};
pub use pe_flow::s0::{S0Proc, S0Program, S0Simple, S0Tail};
pub use spec::{
    CompileOptions, ControlEvent, ControlKind, GenStrategy, MemoSnapshot, Spec, SpecCounters,
    SpecError,
};

use pe_frontend::dast::DProgram;
use pe_frontend::flow::FlowAnalysis;
use pe_frontend::gen_analysis::GenAnalysis;
use pe_interp::Datum;
use pe_trace::{Counter, Phase, Sink};

/// The audit trail of one compile: what the size-change termination
/// analysis predicted and what the dynamic control machinery actually
/// did.  Pass 7 of `pe-verify` checks the two against each other.
#[derive(Debug, Clone, Default)]
pub struct CompileAudit {
    /// False when [`CompileOptions::sct`] was off — the verdict tables
    /// are then empty and there is nothing to audit.
    pub enabled: bool,
    /// Per-procedure/per-label verdicts and slot annotations.
    pub verdicts: pe_sct::Verdicts,
    /// Analysis effort and classification counts.
    pub stats: pe_sct::SctStats,
    /// The specializer's control log, in specialization order.
    pub events: Vec<ControlEvent>,
}

/// Everything one specializer run produced: the residual program, the
/// audit trail for pass 7 of `pe-verify`, and — when the caller asked
/// for one — a [`MemoSnapshot`] of the finished memo table.
#[derive(Debug)]
pub struct Compiled {
    /// The residual S₀ program.
    pub program: S0Program,
    /// The SCT verdicts and the specializer's control log.
    pub audit: CompileAudit,
    /// The memo table for warm-starting a later compile of the same
    /// program, present only when requested.
    pub snapshot: Option<MemoSnapshot>,
    /// The flow optimizer's closure-label analysis of `program`, present
    /// when the optimizer ran and its last round changed nothing (it
    /// then analyzed exactly this program).  pe-verify's passes 2 and 6
    /// read it instead of solving the analysis again.
    pub labels: Option<pe_flow::slots::SlotAnalysis>,
}

/// Compiles `entry` (all parameters dynamic): closure conversion + tail
/// conversion + constant folding, then post-processing if enabled.
///
/// # Errors
///
/// See [`SpecError`].
pub fn compile(
    dp: &DProgram,
    entry: &str,
    opts: &CompileOptions,
) -> Result<S0Program, SpecError> {
    run(dp, entry, None, opts, None, false, &mut pe_trace::NullSink).map(|c| c.program)
}

/// Specializes `entry` with respect to the static argument slots — the
/// first specializer projection.  `slots[i] = Some(v)` fixes parameter
/// `i` to `v`; `None` leaves it a parameter of the residual `entry-$1`.
///
/// # Errors
///
/// See [`SpecError`].
pub fn specialize(
    dp: &DProgram,
    entry: &str,
    slots: &[Option<Datum>],
    opts: &CompileOptions,
) -> Result<S0Program, SpecError> {
    run(dp, entry, Some(slots), opts, None, false, &mut pe_trace::NullSink).map(|c| c.program)
}

/// The compiler: cfa → sct → specialize → post → flow, each phase under
/// its span on `sink`, with the specializer's event counters, residual
/// size counters and per-residual-procedure cost attribution.  A
/// disabled sink makes this exactly the untraced compile: no clock
/// reads, no events.
///
/// * `slots = None` compiles `entry` with every parameter dynamic;
///   `Some(slots)` specializes it to the static slots (see
///   [`specialize`]).
/// * `warm` seeds the specializer from a [`MemoSnapshot`] captured by
///   an earlier run over the **same** program with the same options.
///   For the same entry the warm run hits the memo immediately and the
///   residual is byte-identical to a cold one; for a different entry
///   every point the earlier run reached is reused and the residual is
///   semantically equivalent but numbered differently.  Restoring a
///   snapshot of a *different* program is a logic error the engine
///   cannot detect — key snapshots by a content fingerprint (see
///   `pe-serve`).
/// * `snapshot` asks for [`Compiled::snapshot`], which costs one clone
///   of the raw residual procedures.
///
/// # Errors
///
/// See [`SpecError`]; a program the termination analysis proves
/// divergent is refused with [`SpecError::SctDiverges`] before
/// specialization starts.
pub fn run(
    dp: &DProgram,
    entry: &str,
    slots: Option<&[Option<Datum>]>,
    opts: &CompileOptions,
    warm: Option<&MemoSnapshot>,
    snapshot: bool,
    sink: &mut dyn Sink,
) -> Result<Compiled, SpecError> {
    let t = pe_trace::begin(sink, Phase::Cfa);
    let flow = FlowAnalysis::analyze(dp);
    let gen = GenAnalysis::analyze(dp, &flow);
    pe_trace::end(sink, t);
    let sct = run_sct(dp, &flow, entry, opts, sink)?;
    let t = pe_trace::begin(sink, Phase::Specialize);
    let mut spec = Spec::new(dp, &flow, &gen, opts.clone());
    let mut stats = pe_sct::SctStats::default();
    if let Some(a) = sct {
        stats = a.stats;
        spec = spec.with_sct(a.verdicts);
    }
    if let Some(snap) = warm {
        spec = spec.with_snapshot(snap);
        if sink.enabled() {
            sink.counter(Counter::WarmStarts, 1);
        }
    }
    let (r, attributed) = spec.run_attributed(entry, slots, snapshot, sink);
    // The span's time outside the per-procedure rows (setting up the
    // specializer, the worklist between procedures) gets a row of its
    // own, so the phase's books balance by construction.
    if let Some(ns) = t.elapsed_ns() {
        sink.attr(Phase::Specialize, "<rest>", ns.saturating_sub(attributed), 0);
    }
    pe_trace::end(sink, t);
    let mut out = r?;
    out.audit.stats = stats;
    (out.program, out.labels) = finish(out.program, opts, sink);
    Ok(out)
}

/// Runs pe-sct under its own phase span, reports its counters, and
/// turns a proven divergence into the early-reject error.
fn run_sct(
    dp: &DProgram,
    flow: &FlowAnalysis,
    entry: &str,
    opts: &CompileOptions,
    sink: &mut dyn Sink,
) -> Result<Option<pe_sct::SctAnalysis>, SpecError> {
    if !opts.sct {
        return Ok(None);
    }
    let t = pe_trace::begin(sink, Phase::Sct);
    let a = pe_sct::analyze(dp, flow, entry);
    pe_trace::end(sink, t);
    if sink.enabled() {
        for (c, v) in [
            (Counter::SctGraphs, a.stats.graphs),
            (Counter::SctCompositions, a.stats.compositions),
            (Counter::SctBounded, a.stats.bounded),
            (Counter::SctUnbounded, a.stats.unbounded),
            (Counter::SctUnknown, a.stats.unknown),
        ] {
            if v > 0 {
                sink.counter(c, v);
            }
        }
    }
    if let Some(trap) = &a.divergence {
        if sink.enabled() {
            sink.counter(Counter::SctEarlyRejects, 1);
        }
        return Err(SpecError::SctDiverges(trap.clone()));
    }
    Ok(Some(a))
}

/// Post-processes under a `post` span, runs the flow optimizer under a
/// `flow` span, and reports residual size plus the flow counters.  Each
/// whole-program phase spreads the time its span measured over the
/// residual procedures by size.  Returns the program and, when the
/// optimizer ended on a round that changed nothing, its label analysis
/// of that program.
fn finish(
    p: S0Program,
    opts: &CompileOptions,
    sink: &mut dyn Sink,
) -> (S0Program, Option<pe_flow::slots::SlotAnalysis>) {
    let p = if opts.postprocess {
        let t = pe_trace::begin(sink, Phase::Post);
        let q = pe_flow::postprocess(p);
        attribute_and_end(sink, t, Phase::Post, &q);
        q
    } else {
        p
    };
    let (p, labels) = if opts.flow {
        // Graceful degradation: an exhausted budget keeps the
        // (already correct) unoptimized program instead of failing
        // the compile.  The fallback clone happens before the span
        // opens — the flow span must cover only optimizer time, so
        // the per-procedure attribution can sum to it.
        let fallback = p.clone();
        let t = pe_trace::begin(sink, Phase::Flow);
        let mut fuel = Fuel::new(&opts.limits);
        let (q, stats, labels) = pe_flow::optimize(p, &mut fuel)
            .unwrap_or_else(|_| (fallback, pe_flow::FlowStats::default(), None));
        attribute_and_end(sink, t, Phase::Flow, &q);
        if sink.enabled() {
            sink.counter(Counter::CopiesPropagated, stats.copies_propagated as u64);
            sink.counter(Counter::DeadBindings, stats.dead_bindings as u64);
            sink.counter(Counter::ArmsFolded, stats.arms_folded as u64);
            sink.counter(Counter::CfgNodes, stats.cfg_nodes as u64);
            sink.counter(Counter::CfgEdges, stats.cfg_edges as u64);
        }
        (q, labels)
    } else {
        (p, None)
    };
    if sink.enabled() {
        sink.counter(Counter::ResidualProcs, p.procs.len() as u64);
        sink.counter(Counter::ResidualNodes, p.size() as u64);
    }
    (p, labels)
}

/// Closes span `t` of `phase` after spreading the time it has measured
/// over `p`'s procedures.
fn attribute_and_end(sink: &mut dyn Sink, t: pe_trace::SpanTimer, phase: Phase, p: &S0Program) {
    if let Some(ns) = t.elapsed_ns() {
        p.attribute_by_size(sink, phase, ns);
    }
    pe_trace::end(sink, t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_frontend::{desugar, parse_source};
    use pe_interp::Limits;

    type R = Result<(), Box<dyn std::error::Error>>;

    /// Asserts the well-formedness check finds nothing in a residual
    /// program.
    fn assert_flow_clean(s0: &S0Program) {
        let errs = pe_flow::check(s0);
        assert!(errs.is_empty(), "ill-formed residual program: {errs:?}\n{s0}");
    }

    const CPS_APPEND: &str = "(define (append x y) (cps-append x y (lambda (v) v)))
         (define (cps-append x y c)
           (if (null? x) (c y)
               (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";

    fn compile_src(
        src: &str,
        entry: &str,
        opts: &CompileOptions,
    ) -> Result<S0Program, Box<dyn std::error::Error>> {
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let s0 = compile(&d, entry, opts)?;
        assert_flow_clean(&s0);
        Ok(s0)
    }

    fn run_s0(p: &S0Program, args: &[Datum]) -> Result<Datum, pe_interp::InterpError> {
        eval::run(p, args, Limits::default())
    }

    #[test]
    fn compile_cps_append_offline() -> R {
        let s0 = compile_src(CPS_APPEND, "append", &CompileOptions::default())?;
        let r = run_s0(&s0, &[Datum::parse("(1 2 3)")?, Datum::parse("(4 5)")?])?;
        assert_eq!(r.to_string(), "(1 2 3 4 5)");
        // Closure conversion is visible in the residual code.
        let src = s0.to_source();
        assert!(src.contains("make-closure"), "{src}");
        assert!(src.contains("closure-label"), "{src}");
        Ok(())
    }

    #[test]
    fn compile_cps_append_online() -> R {
        let opts =
            CompileOptions { strategy: GenStrategy::Online, ..CompileOptions::default() };
        let s0 = compile_src(CPS_APPEND, "append", &opts)?;
        let r = run_s0(&s0, &[Datum::parse("(1 2)")?, Datum::parse("(3)")?])?;
        assert_eq!(r.to_string(), "(1 2 3)");
        Ok(())
    }

    #[test]
    fn paper_section1_specialization() -> R {
        // (append '(foo bar) y) specializes to
        //   (define (append-$1 y) (cons 'foo (cons 'bar y)))
        let p = parse_source(CPS_APPEND)?;
        let d = desugar(&p)?;
        // The online strategy propagates the most static information —
        // required to reproduce the paper's fully collapsed output.
        let opts =
            CompileOptions { strategy: GenStrategy::Online, ..CompileOptions::default() };
        let s0 = specialize(&d, "append", &[Some(Datum::parse("(foo bar)")?), None], &opts)?;
        assert_flow_clean(&s0);
        assert_eq!(s0.procs.len(), 1, "fully collapsed:\n{s0}");
        let src = s0.to_source();
        assert!(src.contains("append-$1"), "{src}");
        assert!(src.contains("(cons (quote foo) (cons (quote bar) y))"), "{src}");
        // And it computes append.
        let r = run_s0(&s0, &[Datum::parse("(baz)")?])?;
        assert_eq!(r.to_string(), "(foo bar baz)");
        Ok(())
    }

    #[test]
    fn compile_tak_both_strategies() -> R {
        let src = "(define (tak x y z)
             (if (not (< y x)) z
                 (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))";
        for strategy in [GenStrategy::Offline, GenStrategy::Online] {
            let opts = CompileOptions { strategy, ..CompileOptions::default() };
            let s0 = compile_src(src, "tak", &opts)?;
            let r = run_s0(&s0, &[Datum::Int(8), Datum::Int(4), Datum::Int(2)])?;
            assert_eq!(r, Datum::Int(3), "{strategy:?}\n{s0}");
        }
        Ok(())
    }

    #[test]
    fn compile_fib_contexts_become_stack() -> R {
        let src = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
        let s0 = compile_src(src, "fib", &CompileOptions::default())?;
        assert_eq!(run_s0(&s0, &[Datum::Int(15)])?, Datum::Int(610));
        // Non-tail recursion forces an explicit closure stack: the
        // residual program manipulates it with cons/car/cdr.
        let text = s0.to_source();
        assert!(text.contains("make-closure"), "{text}");
        Ok(())
    }

    #[test]
    fn constant_propagation_through_static_if() -> R {
        let src = "(define (f x) (if (zero? 0) (+ x 1) (boom x)))
                   (define (boom x) (boom x))";
        let s0 = compile_src(src, "f", &CompileOptions::default())?;
        // The dead diverging branch is gone.
        assert!(!s0.to_source().contains("boom"), "{s0}");
        assert_eq!(run_s0(&s0, &[Datum::Int(41)])?, Datum::Int(42));
        Ok(())
    }

    #[test]
    fn higher_order_removal_is_complete() -> R {
        // Residual programs are first-order by the language preservation
        // property: only closure ADT operations remain, no lambdas.
        let src = "(define (main n)
                     (let ((add (lambda (a) (lambda (b) (+ a b))))
                           (twice (lambda (f) (lambda (x) (f (f x))))))
                       ((twice (add n)) 10)))";
        let s0 = compile_src(src, "main", &CompileOptions::default())?;
        assert_eq!(run_s0(&s0, &[Datum::Int(5)])?, Datum::Int(20));
        assert!(!s0.to_source().contains("lambda"), "{s0}");
        Ok(())
    }

    #[test]
    fn omega_is_rejected_statically() -> R {
        let src = "(define (omega d) ((lambda (x) (x x)) (lambda (x) (x x))))";
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let r = compile(&d, "omega", &CompileOptions::default());
        assert!(
            matches!(r, Err(SpecError::SctDiverges(Trap::StaticDivergence { .. }))),
            "Ω must be refused before specialization, got {r:?}"
        );
        Ok(())
    }

    #[test]
    fn omega_exhausts_depth_without_sct() -> R {
        // With the analysis off, Ω still cannot loop the compiler: the
        // fuel-path backstops catch it, as before pe-sct existed.
        let src = "(define (omega d) ((lambda (x) (x x)) (lambda (x) (x x))))";
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let opts = CompileOptions { sct: false, ..CompileOptions::default() };
        let r = compile(&d, "omega", &opts);
        assert!(
            matches!(r, Err(SpecError::DepthExceeded) | Err(SpecError::Budget { .. })),
            "specializing Ω must hit a budget, got {r:?}"
        );
        Ok(())
    }

    #[test]
    fn sct_on_and_off_agree_semantically() -> R {
        // The verdict tables only move *where* generalization happens;
        // residual programs must compute the same function.
        let srcs: &[(&str, &str, &[Datum])] = &[
            (CPS_APPEND, "append", &[Datum::parse("(1 2)")?, Datum::parse("(3 4)")?]),
            (
                "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
                "fib",
                &[Datum::Int(12)],
            ),
        ];
        for (src, entry, args) in srcs {
            let on = compile_src(src, entry, &CompileOptions::default())?;
            let off = compile_src(
                src,
                entry,
                &CompileOptions { sct: false, ..CompileOptions::default() },
            )?;
            assert_eq!(run_s0(&on, args)?, run_s0(&off, args)?, "{entry}");
        }
        Ok(())
    }

    #[test]
    fn audit_reports_anticipated_flushes() -> R {
        // fib's non-tail recursion flushes the context stack; with SCT
        // on every flush lands at a statically annotated label.
        let src = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let audit = run(
            &d,
            "fib",
            None,
            &CompileOptions::default(),
            None,
            false,
            &mut pe_trace::NullSink,
        )?
        .audit;
        assert!(audit.enabled);
        assert!(
            audit.events.iter().any(|e| e.kind == spec::ControlKind::StackEager),
            "{:?}",
            audit.events
        );
        assert!(
            !audit.events.iter().any(|e| e.kind == spec::ControlKind::StackFlush),
            "every flush is anticipated: {:?}",
            audit.events
        );
        Ok(())
    }

    #[test]
    fn applying_a_non_procedure_residualizes_fail() -> R {
        let src = "(define (f x) (if x ((g x) 1) 0)) (define (g x) 5)";
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let s0 = compile(&d, "f", &CompileOptions::default())?;
        // Taking the bad branch faults at run time; the good branch works.
        assert_eq!(
            eval::run(&s0, &[Datum::Bool(false)], Limits::default()),
            Ok(Datum::Int(0))
        );
        assert!(eval::run(&s0, &[Datum::Bool(true)], Limits::default()).is_err());
        Ok(())
    }

    #[test]
    fn entry_arity_is_checked() -> R {
        let p = parse_source("(define (f x) x)")?;
        let d = desugar(&p)?;
        let r = specialize(&d, "f", &[], &CompileOptions::default());
        assert!(matches!(r, Err(SpecError::EntryArity { .. })));
        let r = compile(&d, "nope", &CompileOptions::default());
        assert!(matches!(r, Err(SpecError::NoSuchProc(_))));
        Ok(())
    }

    #[test]
    fn deriv_like_symbolic_program() -> R {
        let src = r"
(define (deriv e)
  (if (symbol? e) (if (eq? e 'x) 1 0)
      (if (eq? (car e) '+)
          (cons '+ (cons (deriv (car (cdr e))) (cons (deriv (car (cdr (cdr e)))) '())))
          (if (eq? (car e) '*)
              (cons '+
                (cons (cons '* (cons (car (cdr e)) (cons (deriv (car (cdr (cdr e)))) '())))
                  (cons (cons '* (cons (deriv (car (cdr e))) (cons (car (cdr (cdr e))) '())))
                    '())))
              e))))";
        let s0 = compile_src(src, "deriv", &CompileOptions::default())?;
        let input = Datum::parse("(+ (* x x) x)")?;
        let r = run_s0(&s0, std::slice::from_ref(&input))?;
        // Reference: the tail interpreter.
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let expect = pe_interp::tail::run(&d, "deriv", &[input], Limits::default())?;
        assert_eq!(r, expect);
        Ok(())
    }

    #[test]
    fn specializer_unfolds_static_recursion() -> R {
        // Power with static exponent: x^5 unfolds to straight-line code.
        let src = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))";
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let opts =
            CompileOptions { strategy: GenStrategy::Online, ..CompileOptions::default() };
        let s0 = specialize(&d, "power", &[None, Some(Datum::Int(5))], &opts)?;
        assert_flow_clean(&s0);
        assert_eq!(run_s0(&s0, &[Datum::Int(2)])?, Datum::Int(32));
        // No residual conditional or recursion: the loop is fully unrolled.
        let text = s0.to_source();
        assert!(!text.contains("(if "), "{text}");
        Ok(())
    }

    /// Sums every delta recorded for one counter.
    fn counter_total(events: &[pe_trace::Event], c: Counter) -> u64 {
        events
            .iter()
            .filter_map(|e| match e {
                pe_trace::Event::Counter { counter, delta } if *counter == c => Some(*delta),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn warm_recompile_same_entry_is_byte_identical() -> R {
        let p = parse_source(CPS_APPEND)?;
        let d = desugar(&p)?;
        let opts = CompileOptions::default();
        let cold = run(&d, "append", None, &opts, None, true, &mut pe_trace::NullSink)?;
        let (cold, snap) = (cold.program, cold.snapshot.expect("requested"));
        assert!(!snap.is_empty(), "a real compile memoizes at least the entry point");
        assert!(snap.points() >= snap.procs(), "every proc has a memo key");
        let mut sink = pe_trace::CollectingSink::new();
        let warm = run(&d, "append", None, &opts, Some(&snap), true, &mut sink)?;
        let (warm, snap2) = (warm.program, warm.snapshot.expect("requested"));
        // The warm run replays entirely from the memo table...
        assert_eq!(cold.to_source(), warm.to_source());
        let ev = sink.events();
        assert_eq!(counter_total(ev, Counter::MemoMisses), 0, "no new points on warm path");
        assert!(counter_total(ev, Counter::MemoHits) >= 1);
        assert_eq!(counter_total(ev, Counter::WarmStarts), 1);
        // ...and the re-captured snapshot is as good as the first.
        assert_eq!(snap.points(), snap2.points());
        assert_eq!(snap.procs(), snap2.procs());
        let r = run_s0(&warm, &[Datum::parse("(1 2)")?, Datum::parse("(3)")?])?;
        assert_eq!(r.to_string(), "(1 2 3)");
        Ok(())
    }

    #[test]
    fn warm_snapshot_across_entries_is_semantically_sound() -> R {
        // Warm-starting a *different* entry of the same program must
        // stay correct: shared points are reused, new ones specialize.
        let p = parse_source(CPS_APPEND)?;
        let d = desugar(&p)?;
        let opts = CompileOptions::default();
        let snap = run(&d, "append", None, &opts, None, true, &mut pe_trace::NullSink)?
            .snapshot
            .expect("requested");
        let mut sink = pe_trace::CollectingSink::new();
        let warm = run(&d, "cps-append", None, &opts, Some(&snap), false, &mut sink)?.program;
        assert_flow_clean(&warm);
        let ev = sink.events();
        assert_eq!(
            counter_total(ev, Counter::MemoHits) + counter_total(ev, Counter::MemoMisses),
            counter_total(ev, Counter::MemoLookups),
            "hit/miss accounting stays exact on the warm path"
        );
        let cold = compile_src(CPS_APPEND, "cps-append", &opts)?;
        // Identity continuation: (cps-append '(1 2) '(3) id) == '(1 2 3).
        // Build the closure argument indirectly by running each program's
        // own entry against a first-order encoding-free call: both
        // residual programs take (x y c), so compare them on the same
        // dynamic closure value produced by their shared runtime.
        for (prog, tag) in [(&warm, "warm"), (&cold, "cold")] {
            assert!(!prog.to_source().contains("lambda"), "{tag} stays first-order");
        }
        Ok(())
    }

    #[test]
    fn no_postprocess_keeps_sl_eval_chain() -> R {
        let opts = CompileOptions { postprocess: false, ..CompileOptions::default() };
        let s0 = compile_src(CPS_APPEND, "append", &opts)?;
        assert!(s0.to_source().contains("sl-eval-$"), "{s0}");
        let r = run_s0(&s0, &[Datum::parse("(1)")?, Datum::parse("(2)")?])?;
        assert_eq!(r.to_string(), "(1 2)");
        Ok(())
    }
}
