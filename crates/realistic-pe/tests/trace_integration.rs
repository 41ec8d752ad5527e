//! End-to-end tests for the pe-trace observability layer: span balance
//! and nesting across the whole pipeline, counter invariants, replay
//! determinism, and the JSONL schema.

use pe_trace::{jsonl, CollectingSink, Counter, Event, JsonlSink, Phase};
use realistic_pe::{benchmark, CompileOptions, Datum, Limits, Pipeline, SUITE};

type R = Result<(), Box<dyn std::error::Error>>;

/// Traces a full new → compile-vm → run round for `name` into a fresh
/// [`CollectingSink`], returning the sink.
fn trace_bench(name: &str) -> Result<CollectingSink, Box<dyn std::error::Error>> {
    let b = benchmark(name).expect("known benchmark");
    let mut sink = CollectingSink::new();
    let pipe = Pipeline::new_traced(b.source, &mut sink)?;
    let (vm, _) = pipe.compile_vm(b.entry, &CompileOptions::default(), &mut sink)?;
    vm.run_with(&b.test_inputs(), Limits::default(), &mut sink)?;
    Ok(sink)
}

#[test]
fn suite_spans_balance_on_every_benchmark() -> R {
    for b in SUITE {
        let sink = trace_bench(b.name)?;
        sink.check_balanced().map_err(|e| format!("{}: {e}", b.name))?;
        // Every phase of the full path appears exactly once, in order.
        let opens: Vec<Phase> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanOpen { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        let expect = [
            Phase::Read,
            Phase::Parse,
            Phase::Desugar,
            Phase::Cfa,
            Phase::Sct,
            Phase::Specialize,
            Phase::Post,
            Phase::Flow,
            Phase::Verify,
            Phase::VmLoad,
            Phase::VmRun,
        ];
        assert_eq!(opens, expect, "{}", b.name);
        Ok::<(), Box<dyn std::error::Error>>(())?;
    }
    Ok(())
}

#[test]
fn memo_counter_invariant_holds() -> R {
    // The specializer's memo table: every lookup is either a hit or a
    // miss, and every miss creates at most one residual procedure.
    for b in SUITE {
        let sink = trace_bench(b.name)?;
        let lookups = sink.counter_total(Counter::MemoLookups);
        let hits = sink.counter_total(Counter::MemoHits);
        let misses = sink.counter_total(Counter::MemoMisses);
        assert_eq!(hits + misses, lookups, "{}", b.name);
        assert!(lookups > 0, "{}: no memo activity", b.name);
        assert!(
            sink.counter_total(Counter::ResidualProcs) <= misses + 1,
            "{}: more residual procedures than memo misses",
            b.name
        );
    }
    Ok(())
}

#[test]
fn residual_procs_counter_matches_program() -> R {
    let b = benchmark("tak").expect("known benchmark");
    let pipe = Pipeline::new(b.source)?;
    let mut sink = CollectingSink::new();
    let report =
        pipe.compile_report(b.entry, &CompileOptions::default(), None, false, &mut sink)?;
    assert_eq!(report.counter(Counter::ResidualProcs), report.s0.procs.len() as u64);
    assert_eq!(report.counter(Counter::ResidualNodes), report.s0.size() as u64);
    // The aggregated report and the raw event stream agree.
    assert_eq!(
        report.counter(Counter::MemoLookups),
        sink.counter_total(Counter::MemoLookups)
    );
    Ok(())
}

#[test]
fn compile_report_covers_compile_phases() -> R {
    let b = benchmark("cps-append").expect("known benchmark");
    let pipe = Pipeline::new(b.source)?;
    let (_, report) =
        pipe.compile_vm(b.entry, &CompileOptions::default(), &mut CollectingSink::new())?;
    let phases: Vec<Phase> = report.phases.iter().map(|&(p, _)| p).collect();
    assert_eq!(
        phases,
        [
            Phase::Cfa,
            Phase::Sct,
            Phase::Specialize,
            Phase::Post,
            Phase::Flow,
            Phase::Verify,
            Phase::VmLoad
        ]
    );
    // Phase times are genuine measurements summing to the total.
    assert_eq!(report.total_ns(), report.phases.iter().map(|&(_, ns)| ns).sum::<u64>());
    Ok(())
}

#[test]
fn tracing_is_deterministic_modulo_time() -> R {
    // Two traced compilations of the same program produce the same
    // event stream once durations are redacted.
    for name in ["tak", "fibclos", "queens"] {
        let a = trace_bench(name)?;
        let b = trace_bench(name)?;
        assert_eq!(a.redacted_events(), b.redacted_events(), "{name}");
    }
    Ok(())
}

#[test]
fn traced_and_untraced_compilation_agree() -> R {
    let b = benchmark("deriv").expect("known benchmark");
    let pipe = Pipeline::new(b.source)?;
    let plain = pipe.compile(b.entry, &CompileOptions::default())?;
    let report = pipe.compile_report(
        b.entry,
        &CompileOptions::default(),
        None,
        false,
        &mut CollectingSink::new(),
    )?;
    assert_eq!(plain.to_source(), report.s0.to_source());
    Ok(())
}

#[test]
fn jsonl_stream_validates_against_schema() -> R {
    let b = benchmark("takl").expect("known benchmark");
    let mut sink = JsonlSink::new(Vec::new());
    let pipe = Pipeline::new_traced(b.source, &mut sink)?;
    let (vm, _) = pipe.compile_vm(b.entry, &CompileOptions::default(), &mut sink)?;
    vm.run_with(&b.test_inputs(), Limits::default(), &mut sink)?;
    let text = String::from_utf8(sink.finish()?)?;
    let summary = jsonl::validate(&text).map_err(|e| format!("schema: {e}"))?;
    assert_eq!(summary.spans_opened, summary.spans_closed);
    assert_eq!(summary.spans_closed, 11);
    assert_eq!(summary.max_depth, 1);
    assert!(summary.counter("vm_steps") > 0);
    Ok(())
}

#[test]
fn golden_jsonl_shape_for_a_tiny_program() -> R {
    // A golden test pinning the JSONL schema: field names, field order,
    // and event sequence for a fixed program (durations vary, so close
    // lines are matched by prefix).
    let pipe = Pipeline::new("(define (id x) x)")?;
    let mut sink = JsonlSink::new(Vec::new());
    let report = pipe.compile_report("id", &CompileOptions::default(), None, false, &mut sink)?;
    let text = String::from_utf8(sink.finish()?)?;
    let golden: &[&str] = &[
        r#"{"type":"span_open","phase":"cfa","depth":0}"#,
        r#"{"type":"span_close","phase":"cfa","depth":0,"dur_ns":"#,
        r#"{"type":"span_open","phase":"sct","depth":0}"#,
        r#"{"type":"span_close","phase":"sct","depth":0,"dur_ns":"#,
        r#"{"type":"counter","name":"sct_bounded","delta":1}"#,
        r#"{"type":"span_open","phase":"specialize","depth":0}"#,
        r#"{"type":"counter","name":"memo_lookups","delta":1}"#,
        r#"{"type":"counter","name":"memo_misses","delta":1}"#,
        r#"{"type":"counter","name":"unfold_steps","delta":1}"#,
        r#"{"type":"attr","phase":"specialize","label":"id","ns":"#,
        r#"{"type":"attr","phase":"specialize","label":"sl-eval-$1","ns":"#,
        r#"{"type":"span_close","phase":"specialize","depth":0,"dur_ns":"#,
        r#"{"type":"span_open","phase":"post","depth":0}"#,
        r#"{"type":"attr","phase":"post","label":"id","ns":"#,
        r#"{"type":"span_close","phase":"post","depth":0,"dur_ns":"#,
        r#"{"type":"span_open","phase":"flow","depth":0}"#,
        r#"{"type":"attr","phase":"flow","label":"id","ns":"#,
        r#"{"type":"span_close","phase":"flow","depth":0,"dur_ns":"#,
        r#"{"type":"counter","name":"cfg_nodes","delta":2}"#,
        r#"{"type":"counter","name":"cfg_edges","delta":1}"#,
        r#"{"type":"counter","name":"residual_procs","delta":1}"#,
        r#"{"type":"counter","name":"residual_nodes","delta":"#,
        r#"{"type":"span_open","phase":"verify","depth":0}"#,
        r#"{"type":"attr","phase":"verify","label":"id","ns":"#,
        r#"{"type":"attr","phase":"verify","label":"<audit>","ns":"#,
        r#"{"type":"span_close","phase":"verify","depth":0,"dur_ns":"#,
    ];
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), golden.len(), "{text}");
    for (line, want) in lines.iter().zip(golden) {
        assert!(line.starts_with(want), "line {line:?} does not match {want:?}");
    }
    // One reduction step: the entry body itself (no call unfolding).
    assert_eq!(report.counter(Counter::UnfoldSteps), 1);
    Ok(())
}

#[test]
fn unmix_specialize_with_emits_bta_span_and_counters() -> R {
    let p = realistic_pe::parse_source(
        "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))",
    )?;
    let mut sink = CollectingSink::new();
    let r = pe_unmix::specialize_with(
        &p,
        "power",
        &[None, Some(Datum::Int(5))],
        &pe_unmix::UnmixOptions::default(),
        &mut sink,
    )?;
    assert!(!r.to_source().contains("(if"));
    sink.check_balanced().map_err(|e| format!("unbalanced: {e}"))?;
    let opens: Vec<Phase> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::SpanOpen { phase, .. } => Some(*phase),
            _ => None,
        })
        .collect();
    assert_eq!(opens, [Phase::Bta, Phase::Specialize, Phase::Post]);
    // Power recurses on its static exponent: the division residualizes
    // it and memoization specializes one variant per exponent value
    // (post-unfolding then collapses them — hence no `(if` above).
    let lookups = sink.counter_total(Counter::MemoLookups);
    let hits = sink.counter_total(Counter::MemoHits);
    let misses = sink.counter_total(Counter::MemoMisses);
    assert_eq!(hits + misses, lookups);
    assert!(misses >= 5, "one memo miss per static exponent value, got {misses}");
    Ok(())
}

#[test]
fn trap_carries_gauge_snapshot() -> R {
    // A fuel-exhausted VM run flushes its meters as gauges so the trap
    // can be explained post mortem.
    let b = benchmark("tak").expect("known benchmark");
    let pipe = Pipeline::new(b.source)?;
    let (vm, _) =
        pipe.compile_vm(b.entry, &CompileOptions::default(), &mut pe_trace::NullSink)?;
    let mut sink = CollectingSink::new();
    let tight = Limits { fuel: 100, ..Limits::default() };
    let r = vm.run_with(&b.test_inputs(), tight, &mut sink);
    assert!(r.is_err(), "expected a fuel trap");
    sink.check_balanced().map_err(|e| format!("unbalanced: {e}"))?;
    assert_eq!(sink.gauge_last(pe_trace::Gauge::FuelUsed), Some(100));
    Ok(())
}

/// A disabled sink that counts every event it is handed anyway.
#[derive(Default)]
struct DisabledProbe {
    calls: usize,
}

impl pe_trace::Sink for DisabledProbe {
    fn enabled(&self) -> bool {
        false
    }

    fn span_open(&mut self, _: Phase) {
        self.calls += 1;
    }

    fn span_close(&mut self, _: Phase, _: u64) {
        self.calls += 1;
    }

    fn counter(&mut self, _: Counter, _: u64) {
        self.calls += 1;
    }

    fn gauge(&mut self, _: pe_trace::Gauge, _: u64) {
        self.calls += 1;
    }

    fn attr(&mut self, _: Phase, _: &str, _: u64, _: u64) {
        self.calls += 1;
    }

    fn hist(&mut self, _: pe_trace::Hist, _: &[u64; pe_trace::HIST_BUCKETS]) {
        self.calls += 1;
    }
}

#[test]
fn a_disabled_sink_hears_nothing_from_any_pipeline_entry_point() -> R {
    // A call made without a sink must not trace: no span, counter,
    // gauge or attribution row may reach a disabled sink, and the
    // report aggregates nothing — on the compiled and the degraded
    // path, cold and warm.
    let b = benchmark("cps-append").expect("known benchmark");
    let args = b.test_inputs();
    let opts = CompileOptions::default();
    let starved = CompileOptions {
        limits: Limits::builder().with_residual(1).build(),
        ..CompileOptions::default()
    };
    let mut probe = DisabledProbe::default();
    let pipe = Pipeline::new_traced(b.source, &mut probe)?;
    let cold = pipe.compile_report(b.entry, &opts, None, true, &mut probe)?;
    assert!(cold.phases.is_empty() && cold.counters.is_empty());
    let warm = pipe.compile_report(b.entry, &opts, cold.snapshot.as_ref(), true, &mut probe)?;
    assert_eq!(cold.s0.to_source(), warm.s0.to_source());
    let (vm, report) = pipe.compile_vm(b.entry, &opts, &mut probe)?;
    assert!(report.phases.is_empty() && report.counters.is_empty());
    vm.run_with(&args, Limits::default(), &mut probe)?;
    vm.run_profiled_with(&args, Limits::default(), &mut probe)?;
    assert!(!pipe.compile_robust(b.entry, &opts, &mut probe)?.is_degraded());
    assert!(pipe.compile_robust(b.entry, &starved, &mut probe)?.is_degraded());
    for o in [&opts, &starved] {
        pipe.run_robust(b.entry, &args, o, Limits::default(), &mut probe)?;
    }
    pipe.emit_c(b.entry, &args, &opts, &mut probe)?;
    assert_eq!(probe.calls, 0, "a disabled sink received events");
    Ok(())
}
