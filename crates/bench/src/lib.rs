//! The offline benchmark harness regenerating the paper's §8 evaluation.
//!
//! The previous harness depended on criterion from the registry, so it
//! was excluded from the workspace and never ran in offline CI.  This
//! one is dependency-free: a `std::time::Instant` min-of-N timer, a
//! parallel compile phase over `std::thread::scope`, and a hand-rolled
//! deterministic JSON writer.  Every PR leaves a bench data point.
//!
//! Per [`SUITE`] benchmark (in the fixed Fig. 8 row order) it measures:
//!
//! * `vm` — "ours": the specializing compiler's S₀ residual on the
//!   goto-machine (the §5.1 execution model);
//! * `tail` — the Fig. 6 tail-recursive interpreter, the engine the
//!   compiler is a specializer-projection of (the interpretive
//!   overhead the paper's §2 speedup claim is measured against);
//! * `hobbit` — the §6 Hobbit-like native-stack baseline.
//!
//! Use `cargo run --release -p pe-bench` (full mode: `bench_args`) or
//! `-- --quick` (test-sized inputs, for CI).  The output schema is
//! documented in the workspace README ("Benchmark harness").

use realistic_pe::{
    with_big_stack, Benchmark, COptions, CompileOptions, Datum, Fuel, Limits, NullSink, Pipeline,
    SUITE,
};
use std::time::Instant;

pub mod check;
pub mod serve;

pub use check::{check_regressions, Tolerances};
pub use serve::{run_serve, serve_mix, ServeBench, ServeRow};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Quick mode uses the fast `test_args` inputs; full mode uses the
    /// measured `bench_args` configuration.
    pub quick: bool,
    /// Timing runs per engine; the minimum is reported.
    pub reps: u32,
}

impl BenchConfig {
    /// CI-sized configuration: test inputs, min of 3.
    #[must_use]
    pub fn quick() -> BenchConfig {
        BenchConfig { quick: true, reps: 3 }
    }

    /// The measured configuration: bench inputs, min of 5.
    #[must_use]
    pub fn full() -> BenchConfig {
        BenchConfig { quick: false, reps: 5 }
    }

    fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// Residual-size measurements with and without the pe-flow optimizer
/// (the §8 code-size axis, extended with the flow delta).
#[derive(Debug, Clone, Copy)]
pub struct ResidualSizes {
    /// Residual S₀ procedures, flow optimizer disabled.
    pub procs_base: usize,
    /// Residual S₀ nodes, flow optimizer disabled.
    pub nodes_base: usize,
    /// Emitted C bytes (`CProgram::size_bytes`), flow and move elision
    /// disabled.
    pub c_bytes_base: usize,
    /// Residual S₀ procedures after pe-flow optimization.
    pub procs_flow: usize,
    /// Residual S₀ nodes after pe-flow optimization.
    pub nodes_flow: usize,
    /// Emitted C bytes after pe-flow optimization and move elision.
    pub c_bytes_flow: usize,
    /// Global-parameter moves/prologue copies the C emitter elided.
    pub moves_elided: usize,
}

/// Size-change termination measurements: the verdict census from the
/// traced compilation plus the dynamic-control comparison against a
/// compile with the analysis off (the §8 axis the pe-sct control adds:
/// how much widening became statically anticipated generalization).
#[derive(Debug, Clone, Copy)]
pub struct SctNumbers {
    /// Procedures classified bounded.
    pub bounded: u64,
    /// Size-change graph compositions the closure performed.
    pub compositions: u64,
    /// Procedures classified unbounded.
    pub unbounded: u64,
    /// Procedures the analysis could not classify.
    pub unknown: u64,
    /// Eager generalizations performed under static control.
    pub eager_generalizations: u64,
    /// Dynamic widenings with the analysis on (should be ~0).
    pub widenings_on: u64,
    /// Dynamic widenings with the analysis off (the baseline).
    pub widenings_off: u64,
}

/// Exact work counts of one benchmark, deterministic like the sizes.
#[derive(Debug, Clone, Copy)]
pub struct WorkCounts {
    /// Rounds `pe_flow::optimize` runs over the flow-off residual (the
    /// call the pipeline makes).
    pub flow_rounds: usize,
    /// VM heap allocations on the timed inputs.
    pub vm_allocs: u64,
    /// VM tail calls on the timed inputs.
    pub vm_calls: u64,
    /// VM machine transitions on the timed inputs.
    pub vm_steps: u64,
}

/// One engine's timing on one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct EngineTiming {
    /// Best wall-clock time over `runs` repetitions, in milliseconds.
    pub min_ms: f64,
    /// How many repetitions were timed.
    pub runs: u32,
}

/// One row of the output: a benchmark measured on every engine.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// The Fig. 8 row name.
    pub name: &'static str,
    /// True if the source program is higher-order (the paper's axis).
    pub higher_order: bool,
    /// The inputs that were timed (printed form).
    pub args: Vec<String>,
    /// Best wall-clock time of `compile_vm` (specialize + verify +
    /// load) over the same number of repetitions as the runs.
    pub compile_ms: f64,
    /// The S₀ VM ("ours").
    pub vm: EngineTiming,
    /// The Fig. 6 tail interpreter.
    pub tail: EngineTiming,
    /// The Hobbit-like baseline.
    pub hobbit: EngineTiming,
    /// The paper's Fig. 8 "ours" timing (ms on a PowerPC/250).
    pub paper_ours_ms: u32,
    /// The paper's Fig. 8 Hobbit timing (ms).
    pub paper_hobbit_ms: u32,
    /// Per-phase compile durations (phase name → ms) from one traced
    /// compilation, alphabetically sorted.  Not a min-of-N: a single
    /// instrumented run breaking `compile_ms` down by phase.
    pub phases: Vec<(String, f64)>,
    /// Specializer/size counters from the same traced compilation,
    /// alphabetically sorted.  These are exact and deterministic.
    pub counters: Vec<(String, u64)>,
    /// The most expensive residual procedures from the traced
    /// compilation (label → attributed ms summed across phases), the
    /// top 5 by cost, alphabetically sorted for a deterministic shape.
    pub attribution: Vec<(String, f64)>,
    /// Residual sizes before/after pe-flow optimization.
    pub residual: ResidualSizes,
    /// Size-change termination verdicts and widening comparison.
    pub sct: SctNumbers,
    /// The optimizer's rounds and the VM's work on the timed inputs.
    pub work: WorkCounts,
}

/// Best-of-`reps` wall-clock time of `f`, in milliseconds.
pub fn time_min_ms(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// Runs the whole suite: a parallel compile-and-check phase followed by
/// a sequential timing phase (timing is serialized so runs never compete
/// for cores).
///
/// # Errors
///
/// Returns a message naming the benchmark if compilation fails or any
/// engine disagrees with the expected result — a benchmark that computes
/// the wrong answer must never be timed.
pub fn run_suite(cfg: &BenchConfig) -> Result<Vec<BenchRow>, String> {
    // Phase 1 — compile every benchmark in parallel and gate on
    // correctness (each engine must reproduce `test_expect`).  No
    // timing happens here — parallel workers compete for cores, so
    // anything measured in this phase would be contention noise.
    std::thread::scope(|scope| {
        let workers: Vec<_> = SUITE
            .iter()
            .map(|b| {
                std::thread::Builder::new()
                    .name(format!("pe-bench-compile-{}", b.name))
                    // Host-stack engines (Hobbit) recurse by design.
                    .stack_size(1 << 28)
                    .spawn_scoped(scope, move || compile_and_check(b))
                    .expect("spawn compile worker")
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("compile worker panicked"))
            .collect::<Result<Vec<()>, String>>()
    })?;

    // Phase 2 — every timed number (compile and run) is measured
    // sequentially on one big-stack worker, min of `reps`.
    let cfg = cfg.clone();
    with_big_stack(move || SUITE.iter().map(|b| time_benchmark(b, &cfg)).collect())
}

/// Phase 1 body: compile for every engine and check every engine
/// against `test_expect`.
fn compile_and_check(b: &Benchmark) -> Result<(), String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage}: {e}", b.name);
    let pipe = Pipeline::new(b.source).map_err(|e| fail("parse", &e))?;
    let opts = CompileOptions::default();
    let (vm, _) = pipe
        .compile_vm(b.entry, &opts, &mut NullSink)
        .map_err(|e| fail("compile", &e))?;
    let hob = pipe.compile_hobbit().map_err(|e| fail("hobbit", &e))?;

    let args = b.test_inputs();
    let expect = Datum::parse(b.test_expect).expect("parseable expectation");
    let lim = Limits::default();
    let check = |engine: &str, got: Datum| {
        if got == expect {
            Ok(())
        } else {
            Err(format!("{}: {engine} computed {got}, expected {expect}", b.name))
        }
    };
    check("vm", vm.run(&args, lim).map_err(|e| fail("vm run", &e))?.0)?;
    check("tail", pipe.run_tail(b.entry, &args, lim).map_err(|e| fail("tail run", &e))?)?;
    check("hobbit", hob.run(b.entry, &args, lim).map_err(|e| fail("hobbit run", &e))?)?;
    Ok(())
}

/// Phase 2 body: min-of-N timing of every engine on one benchmark.
fn time_benchmark(b: &Benchmark, cfg: &BenchConfig) -> Result<BenchRow, String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage}: {e}", b.name);
    let pipe = Pipeline::new(b.source).map_err(|e| fail("parse", &e))?;
    let opts = CompileOptions::default();
    // Compile time (specialize + verify + VM load) is as much a
    // measured quantity as the runs: min of `reps`, sequential.
    let compile_ms = time_min_ms(cfg.reps, || {
        pipe.compile_vm(b.entry, &opts, &mut NullSink).expect("compile rep");
    });
    // One traced compilation (after the timed reps, so the tracing
    // can't perturb them) supplies the per-phase breakdown, the
    // specializer counters, and the per-procedure cost attribution.
    let mut events = pe_trace::CollectingSink::new();
    let (vm, report) = pipe
        .compile_vm(b.entry, &opts, &mut events)
        .map_err(|e| fail("compile", &e))?;
    let table = pe_prof::Attribution::from_events(events.events());
    let mut by_label: Vec<(String, u64)> = Vec::new();
    for row in table.rows() {
        match by_label.iter_mut().find(|(l, _)| *l == row.label) {
            Some((_, ns)) => *ns = ns.saturating_add(row.ns),
            None => by_label.push((row.label.clone(), row.ns)),
        }
    }
    by_label.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    by_label.truncate(5);
    let mut attribution: Vec<(String, f64)> =
        by_label.into_iter().map(|(l, ns)| (l, ns as f64 / 1e6)).collect();
    attribution.sort_by(|a, b| a.0.cmp(&b.0));
    let mut phases: Vec<(String, f64)> = report
        .phases
        .iter()
        .map(|&(p, ns)| (p.name().to_string(), ns as f64 / 1e6))
        .collect();
    phases.sort_by(|a, b| a.0.cmp(&b.0));
    let mut counters: Vec<(String, u64)> =
        report.counters.iter().map(|&(c, n)| (c.name().to_string(), n)).collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    // Residual sizes with the flow optimizer off vs. on — exact,
    // deterministic quantities, measured once.
    let base_opts = CompileOptions { flow: false, ..CompileOptions::default() };
    let s0_base = pipe.compile(b.entry, &base_opts).map_err(|e| fail("compile", &e))?;
    let s0_flow = pipe.compile(b.entry, &opts).map_err(|e| fail("compile", &e))?;
    let size_inputs = b.test_inputs();
    let c_base = realistic_pe::emit_c(
        &s0_base,
        &size_inputs,
        &COptions { elide_moves: false },
    );
    let c_flow = realistic_pe::emit_c(&s0_flow, &size_inputs, &COptions::default());
    let residual = ResidualSizes {
        procs_base: s0_base.procs.len(),
        nodes_base: s0_base.size(),
        c_bytes_base: c_base.size_bytes(),
        procs_flow: s0_flow.procs.len(),
        nodes_flow: s0_flow.size(),
        c_bytes_flow: c_flow.size_bytes(),
        moves_elided: c_flow.moves_elided,
    };
    // The size-change verdict census comes from the traced compile's
    // counters; the widening baseline from one compile with the
    // analysis off.  Exact, deterministic quantities.
    let sct_off = CompileOptions { sct: false, ..CompileOptions::default() };
    let off_report = pipe
        .compile_report(b.entry, &sct_off, None, false, &mut pe_trace::CollectingSink::new())
        .map_err(|e| fail("compile", &e))?;
    use realistic_pe::Counter;
    let sct = SctNumbers {
        bounded: report.counter(Counter::SctBounded),
        compositions: report.counter(Counter::SctCompositions),
        unbounded: report.counter(Counter::SctUnbounded),
        unknown: report.counter(Counter::SctUnknown),
        eager_generalizations: report.counter(Counter::EagerGeneralizations),
        widenings_on: report.counter(Counter::Widenings),
        widenings_off: off_report.counter(Counter::Widenings),
    };
    let (_, flow_stats, _) = pe_flow::optimize(s0_base.clone(), &mut Fuel::new(&opts.limits))
        .map_err(|e| fail("optimize", &format!("{e:?}")))?;
    let hob = pipe.compile_hobbit().map_err(|e| fail("hobbit", &e))?;
    let (arg_texts, args) = if cfg.quick {
        (b.test_args, b.test_inputs())
    } else {
        (b.bench_args, b.bench_inputs())
    };
    let lim = Limits::default();

    // Warm-up runs double as an engine-agreement check on the timed
    // input size; the VM's supplies its exact work counts.
    let (expect, vm_stats) = vm.run(&args, lim).map_err(|e| fail("vm run", &e))?;
    let tail0 = pipe.run_tail(b.entry, &args, lim).map_err(|e| fail("tail run", &e))?;
    let hob0 = hob.run(b.entry, &args, lim).map_err(|e| fail("hobbit run", &e))?;
    if tail0 != expect || hob0 != expect {
        return Err(format!("{}: engines disagree on timed inputs", b.name));
    }

    let reps = cfg.reps;
    let vm_t = time_min_ms(reps, || {
        vm.run(&args, lim).expect("vm rep");
    });
    let tail_t = time_min_ms(reps, || {
        pipe.run_tail(b.entry, &args, lim).expect("tail rep");
    });
    let hob_t = time_min_ms(reps, || {
        hob.run(b.entry, &args, lim).expect("hobbit rep");
    });

    Ok(BenchRow {
        name: b.name,
        higher_order: b.higher_order,
        args: arg_texts.iter().map(|s| (*s).to_string()).collect(),
        compile_ms,
        vm: EngineTiming { min_ms: vm_t, runs: reps },
        tail: EngineTiming { min_ms: tail_t, runs: reps },
        hobbit: EngineTiming { min_ms: hob_t, runs: reps },
        paper_ours_ms: b.paper_ours_ms,
        paper_hobbit_ms: b.paper_hobbit_ms,
        phases,
        counters,
        attribution,
        residual,
        sct,
        work: WorkCounts {
            flow_rounds: flow_stats.rounds,
            vm_allocs: vm_stats.allocs,
            vm_calls: vm_stats.calls,
            vm_steps: vm_stats.steps,
        },
    })
}

// ----------------------------------------------------------------------
// Deterministic JSON
// ----------------------------------------------------------------------

/// Renders the result as JSON with a deterministic shape: object keys
/// are alphabetically sorted at every level, benchmarks appear in the
/// fixed Fig. 8 order, and floats use a fixed precision — so two runs
/// differ only in the measured digits and diffs stay reviewable.
#[must_use]
pub fn to_json(cfg: &BenchConfig, rows: &[BenchRow]) -> String {
    to_json_with_serve(cfg, rows, None)
}

/// [`to_json`] with the optional compile-service workload section
/// (`"serve"`, sorted after `"schema"`).
#[must_use]
pub fn to_json_with_serve(
    cfg: &BenchConfig,
    rows: &[BenchRow],
    serve: Option<&ServeBench>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str("      \"args\": [");
        for (j, a) in r.args.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(a));
        }
        s.push_str("],\n");
        s.push_str("      \"attribution\": {");
        for (j, (name, ms)) in r.attribution.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}: {ms:.3}", json_str(name)));
        }
        s.push_str("},\n");
        s.push_str(&format!("      \"compile_ms\": {:.3},\n", r.compile_ms));
        s.push_str("      \"counters\": {");
        for (j, (name, n)) in r.counters.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{name}\": {n}"));
        }
        s.push_str("},\n");
        s.push_str("      \"engines\": {\n");
        let engines = [("hobbit", r.hobbit), ("tail", r.tail), ("vm", r.vm)];
        for (j, (name, t)) in engines.iter().enumerate() {
            s.push_str(&format!(
                "        \"{name}\": {{\"min_ms\": {:.3}, \"runs\": {}}}{}\n",
                t.min_ms,
                t.runs,
                if j + 1 < engines.len() { "," } else { "" }
            ));
        }
        s.push_str("      },\n");
        s.push_str(&format!("      \"higher_order\": {},\n", r.higher_order));
        s.push_str(&format!("      \"name\": {},\n", json_str(r.name)));
        s.push_str(&format!("      \"paper_hobbit_ms\": {},\n", r.paper_hobbit_ms));
        s.push_str(&format!("      \"paper_ours_ms\": {},\n", r.paper_ours_ms));
        s.push_str("      \"phases\": {");
        for (j, (name, ms)) in r.phases.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{name}\": {ms:.3}"));
        }
        s.push_str("},\n");
        let z = &r.residual;
        s.push_str(&format!(
            "      \"residual\": {{\"c_bytes_base\": {}, \"c_bytes_flow\": {}, \
             \"moves_elided\": {}, \"nodes_base\": {}, \"nodes_flow\": {}, \
             \"procs_base\": {}, \"procs_flow\": {}}},\n",
            z.c_bytes_base,
            z.c_bytes_flow,
            z.moves_elided,
            z.nodes_base,
            z.nodes_flow,
            z.procs_base,
            z.procs_flow
        ));
        let t = &r.sct;
        s.push_str(&format!(
            "      \"sct\": {{\"bounded\": {}, \"compositions\": {}, \
             \"eager_generalizations\": {}, \"unbounded\": {}, \"unknown\": {}, \
             \"widenings_off\": {}, \"widenings_on\": {}}},\n",
            t.bounded,
            t.compositions,
            t.eager_generalizations,
            t.unbounded,
            t.unknown,
            t.widenings_off,
            t.widenings_on
        ));
        let w = &r.work;
        s.push_str(&format!(
            "      \"work\": {{\"flow_rounds\": {}, \"vm_allocs\": {}, \"vm_calls\": {}, \
             \"vm_steps\": {}}}\n",
            w.flow_rounds, w.vm_allocs, w.vm_calls, w.vm_steps
        ));
        s.push_str(if i + 1 < rows.len() { "    },\n" } else { "    }\n" });
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"mode\": \"{}\",\n", cfg.mode()));
    s.push_str(&format!("  \"reps\": {},\n", cfg.reps));
    match serve {
        None => s.push_str("  \"schema\": \"pe-bench/5\"\n}\n"),
        Some(sv) => {
            s.push_str("  \"schema\": \"pe-bench/5\",\n");
            s.push_str("  \"serve\": {\n");
            s.push_str(&format!("    \"cold_compile_ms\": {:.3},\n", sv.cold_compile_ms));
            s.push_str(&format!("    \"distinct\": {},\n", sv.distinct));
            s.push_str("    \"latency\": {\n");
            let classes = [
                ("cold_miss", &sv.metrics.cold_miss),
                ("hit", &sv.metrics.hit),
                ("queue_wait", &sv.metrics.queue_wait),
                ("warm_miss", &sv.metrics.warm_miss),
            ];
            for (j, (name, h)) in classes.iter().enumerate() {
                s.push_str(&format!(
                    "      \"{name}\": {{\"count\": {}, \"p50_ms\": {:.3}, \
                     \"p90_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
                    h.count(),
                    h.p50() as f64 / 1e6,
                    h.p90() as f64 / 1e6,
                    h.p99() as f64 / 1e6,
                    if j + 1 < classes.len() { "," } else { "" }
                ));
            }
            s.push_str("    },\n");
            s.push_str(&format!("    \"requests\": {},\n", sv.requests));
            s.push_str("    \"rows\": [\n");
            for (i, r) in sv.rows.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"cold_ms\": {:.3}, \"evictions\": {}, \"hits\": {}, \
                     \"misses\": {}, \"threads\": {}, \"throughput_cold_rps\": {:.1}, \
                     \"throughput_warm_rps\": {:.1}, \"warm_ms\": {:.3}, \
                     \"warm_starts\": {}}}{}\n",
                    r.cold_ms,
                    r.evictions,
                    r.hits,
                    r.misses,
                    r.threads,
                    r.throughput_cold_rps,
                    r.throughput_warm_rps,
                    r.warm_ms,
                    r.warm_starts,
                    if i + 1 < sv.rows.len() { "," } else { "" }
                ));
            }
            s.push_str("    ],\n");
            s.push_str(&format!("    \"warm_compile_ms\": {:.3}\n", sv.warm_compile_ms));
            s.push_str("  }\n}\n");
        }
    }
    s
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_row(name: &'static str) -> BenchRow {
        BenchRow {
            name,
            higher_order: false,
            args: vec!["(a \"b\")".to_string(), "3".to_string()],
            compile_ms: 1.5,
            vm: EngineTiming { min_ms: 0.25, runs: 3 },
            tail: EngineTiming { min_ms: 0.75, runs: 3 },
            hobbit: EngineTiming { min_ms: 0.5, runs: 3 },
            paper_ours_ms: 100,
            paper_hobbit_ms: 200,
            phases: vec![("cfa".to_string(), 0.1), ("specialize".to_string(), 0.4)],
            counters: vec![("memo_hits".to_string(), 2), ("memo_lookups".to_string(), 5)],
            attribution: vec![("main_1".to_string(), 0.3), ("loop_2".to_string(), 0.1)],
            residual: ResidualSizes {
                procs_base: 4,
                nodes_base: 40,
                c_bytes_base: 900,
                procs_flow: 3,
                nodes_flow: 30,
                c_bytes_flow: 800,
                moves_elided: 2,
            },
            sct: SctNumbers {
                bounded: 2,
                compositions: 284,
                unbounded: 0,
                unknown: 1,
                eager_generalizations: 4,
                widenings_on: 0,
                widenings_off: 4,
            },
            work: WorkCounts { flow_rounds: 1, vm_allocs: 12, vm_calls: 40, vm_steps: 95 },
        }
    }

    #[test]
    fn json_shape_is_deterministic_and_sorted() {
        let cfg = BenchConfig::quick();
        let rows = vec![fake_row("tak"), fake_row("queens")];
        let a = to_json(&cfg, &rows);
        let b = to_json(&cfg, &rows);
        assert_eq!(a, b, "identical inputs must render identically");
        // Keys appear in alphabetical order at every level.
        for keys in [
            vec!["\"benchmarks\"", "\"mode\"", "\"reps\"", "\"schema\""],
            vec![
                "\"args\"",
                "\"attribution\"",
                "\"compile_ms\"",
                "\"counters\"",
                "\"engines\"",
                "\"higher_order\"",
                "\"name\"",
                "\"paper_hobbit_ms\"",
                "\"paper_ours_ms\"",
                "\"phases\"",
                "\"residual\"",
                "\"sct\"",
                "\"work\"",
            ],
            vec!["\"hobbit\"", "\"tail\"", "\"vm\""],
            vec!["\"memo_hits\"", "\"memo_lookups\""],
            vec![
                "\"c_bytes_base\"",
                "\"c_bytes_flow\"",
                "\"moves_elided\"",
                "\"nodes_base\"",
                "\"nodes_flow\"",
                "\"procs_base\"",
                "\"procs_flow\"",
            ],
            vec![
                "\"bounded\"",
                "\"compositions\"",
                "\"eager_generalizations\"",
                "\"unbounded\"",
                "\"unknown\"",
                "\"widenings_off\"",
                "\"widenings_on\"",
            ],
            vec!["\"flow_rounds\"", "\"vm_allocs\"", "\"vm_calls\"", "\"vm_steps\""],
        ] {
            let idx: Vec<usize> =
                keys.iter().map(|k| a.find(k).unwrap_or_else(|| panic!("missing {k}"))).collect();
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "keys out of order: {keys:?}");
        }
        // Rows keep their given order (callers pass SUITE order).
        assert!(a.find("\"tak\"").unwrap() < a.find("\"queens\"").unwrap());
        // Strings are escaped.
        assert!(a.contains(r#""(a \"b\")""#));
    }

    #[test]
    fn serve_section_renders_sorted_and_deterministic() {
        let cfg = BenchConfig::quick();
        let sv = ServeBench {
            requests: 36,
            distinct: 12,
            rows: vec![
                ServeRow {
                    threads: 1,
                    cold_ms: 10.0,
                    warm_ms: 0.5,
                    throughput_cold_rps: 3600.0,
                    throughput_warm_rps: 72000.0,
                    hits: 48,
                    misses: 24,
                    evictions: 0,
                    warm_starts: 0,
                },
                ServeRow {
                    threads: 4,
                    cold_ms: 4.0,
                    warm_ms: 0.3,
                    throughput_cold_rps: 9000.0,
                    throughput_warm_rps: 120000.0,
                    hits: 48,
                    misses: 24,
                    evictions: 0,
                    warm_starts: 0,
                },
            ],
            cold_compile_ms: 30.0,
            warm_compile_ms: 3.0,
            metrics: {
                let mut m = pe_prof::MetricsRegistry::new();
                m.record_latency(pe_prof::LatencyClass::Hit, 250_000);
                m.record_latency(pe_prof::LatencyClass::ColdMiss, 9_000_000);
                m.record_queue_wait(10_000);
                m
            },
        };
        let rows = vec![fake_row("tak")];
        let a = to_json_with_serve(&cfg, &rows, Some(&sv));
        assert_eq!(a, to_json_with_serve(&cfg, &rows, Some(&sv)));
        for keys in [
            vec!["\"schema\"", "\"serve\""],
            vec![
                "\"cold_compile_ms\"",
                "\"distinct\"",
                "\"latency\"",
                "\"requests\"",
                "\"rows\"",
                "\"warm_compile_ms\"",
            ],
            vec!["\"cold_miss\"", "\"hit\"", "\"queue_wait\"", "\"warm_miss\""],
            vec!["\"count\"", "\"p50_ms\"", "\"p90_ms\"", "\"p99_ms\""],
            vec![
                "\"cold_ms\"",
                "\"evictions\"",
                "\"hits\"",
                "\"misses\"",
                "\"threads\"",
                "\"throughput_cold_rps\"",
                "\"throughput_warm_rps\"",
                "\"warm_ms\"",
                "\"warm_starts\"",
            ],
        ] {
            let idx: Vec<usize> =
                keys.iter().map(|k| a.find(k).unwrap_or_else(|| panic!("missing {k}"))).collect();
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "keys out of order: {keys:?}");
        }
        assert!(a.contains("\"schema\": \"pe-bench/5\""));
        // Without the section the schema still reads pe-bench/5.
        assert!(to_json(&cfg, &rows).contains("\"schema\": \"pe-bench/5\""));
    }

    #[test]
    fn time_min_ms_takes_the_minimum() {
        let mut calls = 0;
        let t = time_min_ms(4, || calls += 1);
        assert_eq!(calls, 4);
        assert!(t >= 0.0 && t.is_finite());
    }

    #[test]
    fn quick_suite_measures_every_benchmark_on_three_engines() {
        let cfg = BenchConfig { quick: true, reps: 1 };
        let rows = run_suite(&cfg).expect("quick suite runs");
        assert_eq!(rows.len(), SUITE.len());
        for (row, b) in rows.iter().zip(SUITE) {
            assert_eq!(row.name, b.name, "fixed Fig. 8 order");
            for t in [row.vm, row.tail, row.hobbit] {
                assert!(t.min_ms.is_finite() && t.min_ms >= 0.0, "{}", row.name);
                assert_eq!(t.runs, 1);
            }
            assert!(row.compile_ms > 0.0, "{}", row.name);
            // The traced compilation populated the breakdown.
            assert!(!row.phases.is_empty(), "{}", row.name);
            assert!(
                row.counters.iter().any(|(n, v)| n == "memo_lookups" && *v > 0),
                "{}: no memo counters",
                row.name
            );
            assert!(row.phases.windows(2).all(|w| w[0].0 < w[1].0), "phases sorted");
            assert!(row.counters.windows(2).all(|w| w[0].0 < w[1].0), "counters sorted");
            assert!(!row.attribution.is_empty(), "{}: no cost attribution", row.name);
            assert!(
                row.attribution.windows(2).all(|w| w[0].0 < w[1].0),
                "attribution sorted"
            );
            // The flow optimizer never grows a residual.
            let z = row.residual;
            assert!(z.nodes_flow <= z.nodes_base, "{}: flow grew S0", row.name);
            assert!(z.procs_flow <= z.procs_base, "{}: flow grew procs", row.name);
            assert!(z.c_bytes_flow <= z.c_bytes_base, "{}: flow grew C", row.name);
            assert!(z.procs_base > 0 && z.nodes_base > 0 && z.c_bytes_base > 0);
            let w = row.work;
            assert!(w.flow_rounds > 0 && w.vm_steps > 0 && w.vm_calls > 0, "{}: {w:?}", row.name);
        }
        // The ISSUE's acceptance bar: at least one benchmark records a
        // measured residual-size reduction.
        assert!(
            rows.iter().any(|r| r.residual.nodes_flow < r.residual.nodes_base
                || r.residual.c_bytes_flow < r.residual.c_bytes_base),
            "no benchmark shrank under pe-flow"
        );
        // Every benchmark is classified, and static control never adds
        // dynamic widenings; suite-wide they must drop.
        for row in &rows {
            let t = row.sct;
            assert!(t.bounded + t.unbounded + t.unknown > 0, "{}: unclassified", row.name);
            assert!(t.widenings_on <= t.widenings_off, "{}: sct added widenings", row.name);
        }
        let on: u64 = rows.iter().map(|r| r.sct.widenings_on).sum();
        let off: u64 = rows.iter().map(|r| r.sct.widenings_off).sum();
        assert!(on < off, "suite-wide widenings did not drop ({off} → {on})");
    }
}
