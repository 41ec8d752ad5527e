//! Fault-injection harness: adversarial inputs against every pipeline
//! entry point.
//!
//! The resource governor (`pe-governor`) promises that no public entry
//! point of the suite panics, overflows the host stack, or hangs on
//! hostile input — divergence, pathological nesting, huge quoted data,
//! and malformed syntax must all come back as structured `Err` values
//! (or as a `Degraded` outcome from the robust pipeline) within a
//! bounded number of steps.  This crate is the test bed for that
//! promise: generators for each class of hostile input, and a test per
//! entry point that drives them through under `catch_unwind`.
//!
//! Nothing here is used by the pipeline itself; the crate exists so CI
//! exercises the failure paths as systematically as the success paths.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// The Ω combinator: every engine diverges on it, and the specializing
/// compiler diverges *at compile time* unless its unfolding budget cuts
/// it off.
#[must_use]
pub fn omega_src() -> &'static str {
    "(define (omega) ((lambda (x) (x x)) (lambda (x) (x x))))"
}

/// Mutual divergence through top-level recursion — exercises the
/// call-depth cap of the host-stack engines and the fuel meter of the
/// flat ones.
#[must_use]
pub fn mutual_divergence_src() -> &'static str {
    "(define (ping n) (pong (+ n 1)))
     (define (pong n) (ping (+ n 1)))
     (define (main n) (ping n))"
}

/// A first-order program whose specialization diverges (growing static
/// data: every recursive call has a fresh memo key) although it is a
/// perfectly good program dynamically.
#[must_use]
pub fn static_divergence_src() -> &'static str {
    "(define (f x n) (if (zero? n) x (f x (+ n 1))))"
}

/// An expression nested `n` parens deep — hostile to any recursive
/// reader or evaluator.
#[must_use]
pub fn deep_nest(n: usize) -> String {
    let mut s = String::with_capacity(2 * n + 16);
    for _ in 0..n {
        s.push('(');
    }
    s.push('x');
    for _ in 0..n {
        s.push(')');
    }
    s
}

/// A deeply nested *program*: `(define (f x) (add1 (add1 … x)))`.
#[must_use]
pub fn deep_program(n: usize) -> String {
    let mut s = String::from("(define (f x) ");
    for _ in 0..n {
        s.push_str("(add1 ");
    }
    s.push('x');
    for _ in 0..n {
        s.push(')');
    }
    s.push(')');
    s
}

/// A quoted list of `n` atoms — hostile to any reader without a node
/// budget.
#[must_use]
pub fn huge_quoted(n: usize) -> String {
    let mut s = String::with_capacity(2 * n + 8);
    s.push_str("'(");
    for _ in 0..n {
        s.push_str("1 ");
    }
    s.push(')');
    s
}

/// The Ω self-application as a bare *expression*, for grafting into an
/// otherwise-valid program (expression position, any scope).
#[must_use]
pub fn omega_expr() -> &'static str {
    "((lambda (x) (x x)) (lambda (x) (x x)))"
}

/// An arithmetic-ascent loop: structurally identical to a descent loop
/// but counting *up*, so it sits exactly on the far side of the
/// size-change Bounded/Unbounded line.
#[must_use]
pub fn ascent_src() -> &'static str {
    "(define (climb n) (if (zero? n) 0 (climb (add1 n))))"
}

/// Malformed concrete syntax covering every reader error class.
#[must_use]
pub fn hostile_inputs() -> Vec<&'static str> {
    vec![
        "(",                       // unexpected EOF
        ")",                       // unbalanced close
        "(a (b c)",                // unbalanced open
        "\"no closing quote",      // unterminated string
        "#bogus",                  // bad hash token
        "99999999999999999999999", // fixnum overflow
        "(a . b)",                 // dotted pair (unsupported)
        "'",                       // quote with nothing to quote
        "(define (f x)",           // truncated definition
        "\u{0}\u{1}\u{2}",         // control characters
    ]
}

thread_local! {
    /// True while this thread is inside [`no_panic`]: the shared hook
    /// swallows the backtrace spray for exactly those panics.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Installs the suppressing panic hook exactly once, process-wide.
static INSTALL_HOOK: Once = Once::new();

/// Runs `f` under `catch_unwind`, turning a panic into a test-friendly
/// `Err(message)`.  The harness asserts entry points *return* errors
/// rather than unwinding.
///
/// The default panic hook is suppressed for the duration of the call:
/// a trap-census or siege run probes thousands of failure paths, and a
/// backtrace per *expected* panic would drown the real output.  The
/// suppression is implemented as a process-wide wrapper hook (installed
/// once) consulting a thread-local flag, **not** as a
/// `take_hook`/`set_hook` swap around the call — tests run in parallel
/// threads, and swapping the global hook from two `no_panic` calls at
/// once would race, losing the real hook on some interleaving.  The
/// flag is restored on every path (including when `f` panics) by a
/// drop guard, and panics on *other* threads still reach the original
/// hook untouched.
///
/// # Errors
///
/// The panic payload's message, if `f` panicked.
pub fn no_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    INSTALL_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                prev(info);
            }
        }));
    });
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SUPPRESS_PANIC_OUTPUT.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true)));
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>().map(|s| (*s).to_string()).unwrap_or_else(|| {
            e.downcast_ref::<String>().cloned().unwrap_or_else(|| "panic".to_string())
        })
    })
}

/// One row of the [`trap_census`]: a hostile case, the structured
/// outcome it produced, and the governor meters at the moment the trap
/// fired (flushed as pe-trace gauges by the engine's `run_with`).
#[derive(Debug, Clone)]
pub struct TrapRecord {
    /// Which hostile scenario ran, as `input/engine` .
    pub case: &'static str,
    /// The structured outcome (the trap or degradation reason).
    pub outcome: String,
    /// Fuel steps consumed when the trap fired.
    pub fuel_steps: u64,
    /// Heap cells allocated when the trap fired.
    pub heap_cells: u64,
    /// Peak call depth reached (host-stack engines; 0 for flat ones).
    pub peak_depth: u64,
}

/// Runs every divergence scenario against the engine whose governor
/// should cut it off and collects the trap-time meter snapshots — the
/// observability half of the fault-injection story: not just *that*
/// hostile inputs come back as structured errors, but *what the meters
/// read* when they did.
///
/// # Errors
///
/// A message naming the case, if an engine returned success (or the
/// wrong error class) on input that must trap.
pub fn trap_census() -> Result<Vec<TrapRecord>, String> {
    use pe_trace::{CollectingSink, Gauge, NullSink};
    use realistic_pe::{CompileOptions, Datum, Limits, Pipeline, RobustExec};

    let tight =
        Limits::builder().with_fuel(100_000).with_depth(256).with_heap(100_000).build();
    let gauges = |sink: &CollectingSink| {
        (
            sink.gauge_last(Gauge::FuelUsed).unwrap_or(0),
            sink.gauge_last(Gauge::HeapUsed).unwrap_or(0),
            sink.gauge_last(Gauge::CallDepth).unwrap_or(0),
        )
    };
    let record = |case: &'static str,
                  sink: &CollectingSink,
                  r: Result<(), String>|
     -> Result<TrapRecord, String> {
        let outcome = r.err().ok_or_else(|| format!("{case}: expected a trap, got success"))?;
        let (fuel_steps, heap_cells, peak_depth) = gauges(sink);
        Ok(TrapRecord { case, outcome, fuel_steps, heap_cells, peak_depth })
    };
    let mut rows = Vec::new();

    // Ω on the flat tail machine: fuel fires, the host stack never grows.
    let omega = pe_frontend::parse_source(omega_src()).map_err(|e| e.to_string())?;
    let domega = pe_frontend::desugar(&omega).map_err(|e| e.to_string())?;
    let mut sink = CollectingSink::new();
    let r = pe_interp::tail::run_with(&domega, "omega", &[], tight, &mut sink);
    rows.push(record("omega/tail", &sink, r.map(|_| ()).map_err(|e| e.to_string()))?);

    // Mutual divergence on the host-stack engine: the depth cap fires.
    let mutual = pe_frontend::parse_source(mutual_divergence_src()).map_err(|e| e.to_string())?;
    let mut sink = CollectingSink::new();
    let r = pe_interp::standard::run_with(&mutual, "main", &[Datum::Int(0)], tight, &mut sink);
    rows.push(record("mutual/standard", &sink, r.map(|_| ()).map_err(|e| e.to_string()))?);

    // Unbounded consing: the heap meter fires on the flat machine.
    let grow = pe_frontend::parse_source(
        "(define (grow l) (grow (cons 1 l))) (define (main) (grow '()))",
    )
    .map_err(|e| e.to_string())?;
    let dgrow = pe_frontend::desugar(&grow).map_err(|e| e.to_string())?;
    let heap_lim = Limits { max_heap: 100, ..tight };
    let mut sink = CollectingSink::new();
    let r = pe_interp::tail::run_with(&dgrow, "main", &[], heap_lim, &mut sink);
    rows.push(record("heap-growth/tail", &sink, r.map(|_| ()).map_err(|e| e.to_string()))?);

    // A compilable divergent program on the VM: fuel fires at run time.
    let spin = Pipeline::new("(define (spin n) (if (zero? n) (spin 1) (spin 2)))")
        .map_err(|e| e.to_string())?;
    let (vm, _) = spin
        .compile_vm("spin", &CompileOptions::default(), &mut NullSink)
        .map_err(|e| e.to_string())?;
    let mut sink = CollectingSink::new();
    let r = vm.run_with(&[Datum::Int(0)], tight, &mut sink);
    rows.push(record("spin/vm", &sink, r.map(|_| ()).map_err(|e| e.to_string()))?);

    // Ω against the specializing compiler: the size-change analysis
    // rejects it statically — zero fuel, zero heap, zero unfolding.
    let mut sink = CollectingSink::new();
    let r = pe_core::run(
        &domega,
        "omega",
        None,
        &CompileOptions::default(),
        None,
        false,
        &mut sink,
    );
    rows.push(TrapRecord {
        case: "omega/sct",
        outcome: r.err().map_or_else(
            || "expected a static reject, got success".to_string(),
            |e| e.to_string(),
        ),
        fuel_steps: sink.counter_total(pe_trace::Counter::UnfoldSteps),
        heap_cells: 0,
        peak_depth: 0,
    });

    // Mutual divergence on the Hobbit baseline: native recursion, depth
    // cap fires.
    let hob = pe_hobbit::Hobbit::compile(&mutual).map_err(|e| e.to_string())?;
    let mut sink = CollectingSink::new();
    let r = hob.run_with("main", &[Datum::Int(0)], tight, &mut sink);
    rows.push(record("mutual/hobbit", &sink, r.map(|_| ()).map_err(|e| e.to_string()))?);

    // Graceful degradation: a hostile residual budget on a benign
    // program.  No governor gauges here — the snapshot is the
    // specializer's own work counter at cut-off.
    let pipe = Pipeline::new(
        "(define (main n) (even-p n))
         (define (even-p n) (if (zero? n) 1 (odd-p (- n 1))))
         (define (odd-p n) (if (zero? n) 0 (even-p (- n 1))))",
    )
    .map_err(|e| e.to_string())?;
    let opts = CompileOptions {
        limits: Limits::builder().with_residual(1).build(),
        ..CompileOptions::default()
    };
    let mut sink = CollectingSink::new();
    match pipe.compile_robust("main", &opts, &mut sink) {
        Ok(RobustExec::Degraded { reason }) => rows.push(TrapRecord {
            case: "budget/robust",
            outcome: format!("degraded: {reason}"),
            fuel_steps: sink.counter_total(pe_trace::Counter::MemoLookups),
            heap_cells: 0,
            peak_depth: 0,
        }),
        other => return Err(format!("budget/robust: expected Degraded, got {other:?}")),
    }

    Ok(rows)
}

/// Renders the census as an aligned table.
#[must_use]
pub fn render_census(rows: &[TrapRecord]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<18} {:>10} {:>10} {:>10}  outcome\n",
        "case", "fuel", "heap", "depth"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<18} {:>10} {:>10} {:>10}  {}\n",
            r.case, r.fuel_steps, r.heap_cells, r.peak_depth, r.outcome
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::{CompileOptions, Limits, SpecError, Trap};
    use pe_interp::{closconv, standard, tail, Datum, InterpError};
    use pe_unmix::{specialize, UnmixError, UnmixOptions};
    use realistic_pe::{NullSink, Pipeline, PipelineError};

    type R = Result<(), Box<dyn std::error::Error>>;

    /// Limits small enough that every divergence test finishes in
    /// milliseconds.
    fn tight() -> Limits {
        Limits::builder().with_fuel(100_000).with_depth(256).with_heap(100_000).build()
    }

    // ---- reader ----------------------------------------------------

    #[test]
    fn reader_survives_hostile_syntax() -> R {
        for src in hostile_inputs() {
            let r = no_panic(|| pe_sexpr::read(src))?;
            // The reader is lenient about atom spelling (control
            // characters read as symbols — the parser rejects them);
            // everything structurally malformed must error.
            if src.chars().any(char::is_control) {
                continue;
            }
            assert!(r.is_err(), "reader accepted hostile input {src:?}");
        }
        Ok(())
    }

    #[test]
    fn reader_bounds_nesting_and_size() -> R {
        // 1M-deep nesting: a structured TooDeep error, no stack overflow.
        let deep = deep_nest(1_000_000);
        let r = no_panic(|| pe_sexpr::read(&deep))?;
        assert!(
            matches!(r, Err(ref e) if matches!(e.kind, pe_sexpr::ReadErrorKind::TooDeep { .. })),
            "got {r:?}"
        );
        // Huge quoted data against a small node budget: TooLarge.
        let big = huge_quoted(100_000);
        let lim = Limits::builder().with_heap(1_000).build();
        let r = no_panic(|| pe_sexpr::read_with(&big, &lim))?;
        assert!(
            matches!(r, Err(ref e) if matches!(e.kind, pe_sexpr::ReadErrorKind::TooLarge { .. })),
            "got {r:?}"
        );
        Ok(())
    }

    // ---- frontend --------------------------------------------------

    #[test]
    fn parser_survives_hostile_syntax() -> R {
        for src in hostile_inputs() {
            let r = no_panic(|| pe_frontend::parse_source(src))?;
            assert!(r.is_err(), "parser accepted hostile input {src:?}");
        }
        // Deep nesting is cut off by the reader's syntax-depth cap
        // *before* it can reach the recursive parser and desugarer —
        // that cap is what protects the recursive layers' host stack,
        // so it must fire under default limits.
        let deep = deep_program(50_000);
        let r = no_panic(|| pe_frontend::parse_source(&deep))?;
        assert!(
            matches!(r, Err(pe_frontend::ParseError::Read(ref e))
                if matches!(e.kind, pe_sexpr::ReadErrorKind::TooDeep { .. })),
            "expected the syntax-depth cap, got {r:?}"
        );
        // Within the cap, deep programs still parse.
        let ok = deep_program(200);
        assert!(no_panic(|| pe_frontend::parse_source(&ok))?.is_ok());
        Ok(())
    }

    // ---- the interpreter family ------------------------------------

    #[test]
    fn interpreters_trap_divergence() -> R {
        let omega = pe_frontend::parse_source(omega_src())?;
        let mutual = pe_frontend::parse_source(mutual_divergence_src())?;
        let lim = tight();

        // Host-stack engines: the depth cap fires before the native
        // stack can overflow.
        for run in [standard::run, closconv::run] {
            let r = no_panic(|| run(&omega, "omega", &[], lim))?;
            assert_eq!(r, Err(InterpError::Trap(Trap::CallDepth { limit: 256 })));
            let r = no_panic(|| run(&mutual, "main", &[Datum::Int(0)], lim))?;
            assert_eq!(r, Err(InterpError::Trap(Trap::CallDepth { limit: 256 })));
        }

        // The flat tail machine burns fuel instead.
        let domega = pe_frontend::desugar(&omega)?;
        let r = no_panic(|| tail::run(&domega, "omega", &[], lim))?;
        assert_eq!(r, Err(InterpError::FuelExhausted));
        let dmutual = pe_frontend::desugar(&mutual)?;
        let r = no_panic(|| tail::run(&dmutual, "main", &[Datum::Int(0)], lim))?;
        assert_eq!(r, Err(InterpError::FuelExhausted));
        Ok(())
    }

    #[test]
    fn interpreters_trap_heap_growth() -> R {
        // Unbounded consing against a small heap budget.
        // The heap budget stays small so the host-stack engine traps
        // long before its (debug-profile) thread stack fills up.
        let src = "(define (grow l) (grow (cons 1 l)))
                   (define (main) (grow '()))";
        let p = pe_frontend::parse_source(src)?;
        let lim = Limits::builder().with_heap(100).with_depth(1_000_000).build();
        let r = no_panic(|| standard::run(&p, "main", &[], lim))?;
        assert_eq!(r, Err(InterpError::Trap(Trap::Heap { limit: 100 })));
        let d = pe_frontend::desugar(&p)?;
        let r = no_panic(|| tail::run(&d, "main", &[], lim))?;
        assert_eq!(r, Err(InterpError::Trap(Trap::Heap { limit: 100 })));
        Ok(())
    }

    // ---- the specializing compiler + S₀ engines --------------------

    #[test]
    fn compiler_rejects_static_divergence_before_burning_fuel() -> R {
        // Ω and the ping/pong loop: size-change analysis proves both
        // divergent at BTA time, so the compiler refuses them with a
        // structured trap *before* the specializer unfolds a single
        // call — the budget is never touched.
        for (src, entry) in
            [(omega_src(), "omega"), (mutual_divergence_src(), "main")]
        {
            let p = pe_frontend::parse_source(src)?;
            let d = pe_frontend::desugar(&p)?;
            let mut sink = pe_trace::CollectingSink::new();
            let r = no_panic(|| {
                let opts = CompileOptions::default();
                pe_core::run(&d, entry, None, &opts, None, false, &mut sink)
            })?;
            assert!(
                matches!(r, Err(SpecError::SctDiverges(Trap::StaticDivergence { .. }))),
                "{entry}: expected the static early reject, got {r:?}"
            );
            assert_eq!(
                sink.counter_total(pe_trace::Counter::UnfoldSteps),
                0,
                "{entry}: the reject must fire before any unfolding"
            );
            assert_eq!(
                sink.counter_total(pe_trace::Counter::SctEarlyRejects),
                1,
                "{entry}: the reject must be counted"
            );
        }
        Ok(())
    }

    #[test]
    fn compiler_traps_static_divergence() -> R {
        // With the analysis off, the dynamic fuel path still works: Ω
        // burns its unfolding budget instead of hanging the compiler.
        let omega = pe_frontend::parse_source(omega_src())?;
        let d = pe_frontend::desugar(&omega)?;
        let opts = CompileOptions { sct: false, ..CompileOptions::default() };
        let r = no_panic(|| pe_core::compile(&d, "omega", &opts))?;
        assert!(
            matches!(r, Err(ref e) if e.is_budget_exhaustion()),
            "expected budget exhaustion, got {r:?}"
        );
        Ok(())
    }

    #[test]
    fn s0_engines_trap_divergence() -> R {
        // A compilable divergent program (dynamic condition, so the
        // specializer terminates but the residual program loops).
        let src = "(define (spin n) (if (zero? n) (spin 1) (spin 2)))";
        let p = pe_frontend::parse_source(src)?;
        let d = pe_frontend::desugar(&p)?;
        let s0 = pe_core::compile(&d, "spin", &CompileOptions::default())
            .map_err(|e| e.to_string())?;
        let lim = tight();
        let r = no_panic(|| pe_core::eval::run(&s0, &[Datum::Int(0)], lim))?;
        assert_eq!(r, Err(InterpError::FuelExhausted));
        let vm = pe_vm::Vm::compile(&s0).map_err(|e| e.to_string())?;
        let r = no_panic(|| vm.run(&[Datum::Int(0)], lim))?;
        assert_eq!(r, Err(InterpError::FuelExhausted));
        Ok(())
    }

    // ---- flow optimizer --------------------------------------------

    #[test]
    fn flow_optimizer_respects_the_governor() -> R {
        // A real residual (closures, dispatch, prunable slots) as the
        // optimization subject.
        let src = "(define (append x y) (cps-append x y (lambda (v) v)))
                   (define (cps-append x y c)
                     (if (null? x) (c y)
                         (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";
        let p = pe_frontend::parse_source(src)?;
        let d = pe_frontend::desugar(&p)?;
        let opts = CompileOptions { flow: false, ..CompileOptions::default() };
        let s0 = pe_core::compile(&d, "append", &opts).map_err(|e| e.to_string())?;

        // A starved budget is a structured trap — no panic, no hang,
        // and never a silently wrong program.
        let r = no_panic(|| {
            let mut fuel = pe_governor::Fuel::new(&Limits::builder().with_fuel(1).build());
            pe_flow::optimize(s0.clone(), &mut fuel)
        })?;
        assert!(
            matches!(r, Err(pe_governor::Trap::OutOfFuel { .. })),
            "expected OutOfFuel, got {r:?}"
        );

        // The pipeline never *fails* because the flow budget trapped:
        // `compile` degrades to the unoptimized residual instead, and
        // the result still runs and verifies.  (With the default budget
        // the optimizer simply finishes; either way compile succeeds.)
        let compiled =
            no_panic(|| pe_core::compile(&d, "append", &CompileOptions::default()))?;
        let s0_opt = compiled.map_err(|e| e.to_string())?;
        assert!(pe_verify::verify(&s0_opt).is_clean());
        let args = [Datum::parse("(1 2)").unwrap(), Datum::parse("(3)").unwrap()];
        let base = pe_core::eval::run(&s0, &args, Limits::default());
        let flow = pe_core::eval::run(&s0_opt, &args, Limits::default());
        assert_eq!(base, flow, "flow changed the program's meaning");
        Ok(())
    }

    /// `main` calls `(f x x)`, and `f` is defined twice: `(f a b)` and
    /// `(f a)`, the wider one first when `wide_first`.  Calls resolve
    /// to the first definition.
    fn duplicate_definitions(wide_first: bool) -> pe_core::S0Program {
        use pe_core::{S0Proc, S0Simple, S0Tail};
        let f = |params: &[&str]| S0Proc {
            name: "f".into(),
            params: params.iter().map(|&v| v.to_string()).collect(),
            body: S0Tail::Return(S0Simple::Var("a".into())),
        };
        let (first, second) =
            if wide_first { (f(&["a", "b"]), f(&["a"])) } else { (f(&["a"]), f(&["a", "b"])) };
        let x = || S0Simple::Var("x".into());
        let main = S0Proc {
            name: "main".into(),
            params: vec!["x".into()],
            body: S0Tail::TailCall("f".into(), vec![x(), x()]),
        };
        pe_core::S0Program { entry: "main".into(), procs: vec![main, first, second] }
    }

    #[test]
    fn verify_survives_duplicate_definitions() -> R {
        for wide_first in [true, false] {
            let p = duplicate_definitions(wide_first);
            let report = no_panic(|| pe_verify::verify(&p))?;
            let text = report.to_string();
            assert!(text.contains("f: duplicate procedure definition"), "{text}");
        }
        Ok(())
    }

    #[test]
    fn optimize_survives_duplicate_definitions() -> R {
        for wide_first in [true, false] {
            let p = duplicate_definitions(wide_first);
            let r = no_panic(|| {
                pe_flow::optimize(p, &mut pe_governor::Fuel::new(&Limits::default()))
            })?;
            assert!(r.is_ok(), "{r:?}");
        }
        Ok(())
    }

    // ---- unmix -----------------------------------------------------

    #[test]
    fn unmix_traps_static_divergence() -> R {
        let p = pe_frontend::parse_source(static_divergence_src())?;
        let r = no_panic(|| {
            specialize(&p, "f", &[None, Some(Datum::Int(1))], &UnmixOptions::default())
        })?;
        assert!(
            matches!(r, Err(UnmixError::Budget { .. }) | Err(UnmixError::DepthExceeded)),
            "expected a budget error, got {r:?}"
        );
        Ok(())
    }

    // ---- hobbit ----------------------------------------------------

    #[test]
    fn hobbit_traps_divergence() -> R {
        let p = pe_frontend::parse_source(mutual_divergence_src())?;
        let h = pe_hobbit::Hobbit::compile(&p)?;
        let r = no_panic(|| h.run("main", &[Datum::Int(0)], tight()))?;
        assert_eq!(r, Err(InterpError::Trap(Trap::CallDepth { limit: 256 })));
        Ok(())
    }

    // ---- printer ---------------------------------------------------

    #[test]
    fn printer_is_total_on_deep_values() {
        // The reader refuses deep structure (its syntax-depth cap), but
        // nothing stops the *pipeline* from building deep residuals in
        // memory — printing them must not be the recursive layer that
        // overflows.  A 150k-deep value on a 512 KiB stack proves the
        // printer, `Display`, and the drop glue are all iterative.
        std::thread::Builder::new()
            .name("small-stack-printer".into())
            .stack_size(512 * 1024)
            .spawn(|| {
                let n = 150_000;
                let mut e = pe_sexpr::Sexpr::sym_of("x");
                for _ in 0..n {
                    e = pe_sexpr::Sexpr::List(vec![e]);
                }
                let flat = e.to_string();
                assert_eq!(flat.len(), 2 * n + 1);
                let p = pe_sexpr::pretty(&e);
                assert_eq!(p.len(), 2 * n + 1, "single-child lists print flat");
                let narrow = pe_sexpr::pretty_width(&e, 4);
                assert!(narrow.len() > 2 * n);
            })
            .expect("spawn")
            .join()
            .expect("deep printing must not overflow a small stack");
    }

    #[test]
    fn residual_pretty_roundtrips_through_the_reader() -> R {
        // read ∘ pretty = id over every residual the Gabriel suite
        // produces, at several widths: breaking lines and indenting must
        // never change what the reader sees.
        realistic_pe::with_big_stack(|| -> Result<(), String> {
            for b in realistic_pe::SUITE {
                let pipe = Pipeline::new(b.source).map_err(|e| e.to_string())?;
                let s0 = pipe
                    .compile(b.entry, &CompileOptions::default())
                    .map_err(|e| e.to_string())?;
                for p in &s0.procs {
                    let e = p.to_sexpr();
                    for width in [10, 40, 80] {
                        let printed = pe_sexpr::pretty_width(&e, width);
                        let back = pe_sexpr::read_one(&printed)
                            .map_err(|err| format!("{} / {}: {err}", b.name, p.name))?;
                        assert_eq!(back, e, "width {width}, proc {} of {}", p.name, b.name);
                    }
                }
            }
            Ok(())
        })?;
        Ok(())
    }

    // ---- the whole pipeline ----------------------------------------

    #[test]
    fn pipeline_survives_hostile_syntax() -> R {
        for src in hostile_inputs() {
            let r = no_panic(|| Pipeline::new(src).map(|_| ()))?;
            assert!(r.is_err(), "pipeline accepted hostile input {src:?}");
        }
        Ok(())
    }

    #[test]
    fn pipeline_degrades_instead_of_failing_on_budget() -> R {
        // A specialization-hostile budget on a benign program: the
        // robust path must degrade to interpreted execution, not error.
        let pipe = Pipeline::new(
            "(define (main n) (even-p n))
             (define (even-p n) (if (zero? n) 1 (odd-p (- n 1))))
             (define (odd-p n) (if (zero? n) 0 (even-p (- n 1))))",
        )?;
        let opts = CompileOptions {
            limits: Limits::builder().with_residual(1).build(),
            ..CompileOptions::default()
        };
        let (v, why) = no_panic(|| {
            pipe.run_robust("main", &[Datum::Int(4)], &opts, Limits::default(), &mut NullSink)
        })??;
        assert_eq!(v, Datum::Int(1));
        assert!(why.is_some_and(|e| e.is_budget_exhaustion()));
        Ok(())
    }

    #[test]
    fn pipeline_robust_run_bounds_runtime_divergence() -> R {
        // Ω through the robust path: the compile stage degrades (the
        // size-change analysis rejects the program statically) and the
        // interpreted fallback then traps on fuel — a structured error,
        // not a hang.
        let pipe = Pipeline::new(omega_src())?;
        let r = no_panic(|| {
            pipe.run_robust("omega", &[], &CompileOptions::default(), tight(), &mut NullSink)
        })?;
        assert!(
            matches!(r, Err(PipelineError::Run(InterpError::FuelExhausted))),
            "got {r:?}"
        );
        Ok(())
    }

    // ---- trap census -----------------------------------------------

    #[test]
    fn trap_census_snapshots_the_meters() -> R {
        let rows = trap_census()?;
        let by_case = |c: &str| {
            rows.iter().find(|r| r.case == c).unwrap_or_else(|| panic!("missing case {c}"))
        };
        // Fuel traps read the exhausted meter exactly.
        assert_eq!(by_case("omega/tail").fuel_steps, 100_000);
        assert_eq!(by_case("spin/vm").fuel_steps, 100_000);
        // Depth traps report the peak depth — the cap itself.
        assert_eq!(by_case("mutual/standard").peak_depth, 256);
        assert_eq!(by_case("mutual/hobbit").peak_depth, 256);
        // The heap trap fired at (or just past) its budget.
        assert!(by_case("heap-growth/tail").heap_cells >= 100);
        // The static reject burns nothing: zero unfolding at cut-off.
        let sct = by_case("omega/sct");
        assert_eq!(sct.fuel_steps, 0, "static reject consumed fuel");
        assert!(sct.outcome.contains("diverges"), "{}", sct.outcome);
        // Degradation reports the specializer's work at cut-off.
        let deg = by_case("budget/robust");
        assert!(deg.outcome.starts_with("degraded:"), "{}", deg.outcome);
        assert!(deg.fuel_steps > 0, "no memo work recorded");
        // Every row rendered; the table mentions every case.
        let table = render_census(&rows);
        for r in &rows {
            assert!(table.contains(r.case));
        }
        Ok(())
    }

    // ---- degradation policy ----------------------------------------

    /// Every [`Trap`] variant maps to a *conscious* degradation
    /// decision.  The match below is exhaustive on purpose: adding a
    /// variant to `Trap` fails compilation here, forcing the author to
    /// decide — and record — whether the new class degrades to
    /// interpretation in the robust pipeline or surfaces as an error.
    #[test]
    fn every_trap_variant_has_a_degradation_decision() {
        fn degrades_to_interpretation(t: &Trap) -> bool {
            match t {
                // Budget classes: the *input* outgrew a configured
                // bound.  The subject program may still run fine under
                // an interpreter whose own fuel bounds a doomed run.
                Trap::OutOfFuel { .. }
                | Trap::CallDepth { .. }
                | Trap::SyntaxDepth { .. }
                | Trap::UnfoldDepth { .. }
                | Trap::Heap { .. }
                | Trap::Residual { .. }
                | Trap::StaticDivergence { .. } => true,
                // Machine classes: compiled code broke an
                // execution-model invariant.  Degrading would mask a
                // miscompile — these must surface as errors.
                Trap::UnboundLabel { .. } | Trap::BadDispatch { .. } => false,
            }
        }
        let exemplars = [
            Trap::OutOfFuel { budget: 1 },
            Trap::CallDepth { limit: 1 },
            Trap::SyntaxDepth { limit: 1 },
            Trap::UnfoldDepth { limit: 1 },
            Trap::Heap { limit: 1 },
            Trap::Residual { limit: 1 },
            Trap::StaticDivergence { witness: "ω".into() },
            Trap::UnboundLabel { label: "f".into(), pc: 0 },
            Trap::BadDispatch { pc: 0, detail: "int 5".into() },
        ];
        for t in &exemplars {
            // The policy the pipeline actually consults must agree
            // with the recorded decision.
            assert_eq!(
                t.is_budget(),
                degrades_to_interpretation(t),
                "degradation policy drifted for {t}"
            );
            // The SpecError wrapper for statically-detected traps must
            // agree as well.
            if matches!(t, Trap::StaticDivergence { .. }) {
                assert!(SpecError::SctDiverges(t.clone()).is_degradable());
            }
        }
        // Every exemplar class appears in the census vocabulary.
        for t in &exemplars {
            assert!(
                pe_governor::TrapClass::ALL.contains(&t.class()),
                "class {} missing from TrapClass::ALL",
                t.class()
            );
        }
        // And the exemplar list itself is exhaustive: one per class
        // arm above, so variant count changes are caught even if the
        // match is edited carelessly.
        assert_eq!(exemplars.len(), 9);
    }

    #[test]
    fn no_panic_restores_suppression_on_all_paths() {
        // A panicking closure comes back as Err with its message…
        let r = no_panic(|| -> i32 { panic!("boom {}", 41 + 1) });
        assert_eq!(r, Err("boom 42".to_string()));
        // …and the harness stays usable afterwards (the thread-local
        // suppression flag was restored by the drop guard).
        assert_eq!(no_panic(|| 7), Ok(7));
        // Nested calls restore the *outer* state, not just `false`.
        let r = no_panic(|| {
            let inner = no_panic(|| -> i32 { panic!("inner") });
            assert!(inner.is_err());
            3
        });
        assert_eq!(r, Ok(3));
    }

    #[test]
    fn genuine_errors_are_not_masked() -> R {
        // The harness must not be so lenient that real errors vanish:
        // a missing entry point is an error on every path.
        let pipe = Pipeline::new("(define (f x) x)")?;
        let r = no_panic(|| {
            pipe.compile_robust("ghost", &CompileOptions::default(), &mut NullSink)
        })?;
        assert!(matches!(r, Err(PipelineError::Spec(SpecError::NoSuchProc(_)))));
        Ok(())
    }
}
