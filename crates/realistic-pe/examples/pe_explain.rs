//! `pe-explain` — per-phase, per-counter observability report for the
//! whole pipeline.
//!
//! For each requested benchmark (default: the whole Fig. 8 suite) the
//! program is read, parsed, desugared, compiled for the VM, and run on
//! its test inputs with a tracing sink attached, then a human-readable
//! report is printed: a span tree with wall-clock durations and the
//! specializer/VM counters.
//!
//! ```text
//! cargo run --release -p realistic-pe --example pe-explain            # all, human
//! cargo run --release -p realistic-pe --example pe-explain -- tak     # one benchmark
//! cargo run --release -p realistic-pe --example pe-explain -- --json  # JSONL stream
//! cargo run --release -p realistic-pe --example pe-explain -- --flow  # flow counters
//! cargo run --release -p realistic-pe --example pe-explain -- --sct   # termination verdicts
//! ```
//!
//! With `--json`, the full event stream is emitted as JSON Lines —
//! one `{"type":"run","benchmark":...}` header per benchmark followed
//! by its `span_open`/`span_close`/`counter`/`gauge` events — after
//! being validated against the pe-trace schema.
//!
//! With `--flow`, a per-benchmark section reports the `pe-flow`
//! optimizer's counters (copies propagated, dead bindings removed,
//! dispatch arms folded, global-parameter moves elided by the C
//! emitter, and residual CFG size).  The underlying
//! event stream is validated against the JSONL schema before the
//! section is rendered.
//!
//! With `--sct`, a per-benchmark section reports the size-change
//! termination analysis: the verdict for every procedure, the graph and
//! composition counts, and the dynamic widenings the static control
//! avoided (compiled once with the analysis on and once off).  The
//! traced stream is schema-validated the same way.
//!
//! With `--prof`, a per-benchmark section reports the per-residual-
//! procedure cost attribution: the top 5 most expensive procedures in
//! every phase that attributes cost (specialize, post, flow, verify,
//! vm-run, the latter from a hot-label profiled run).  The books are
//! audited — per-phase attributed time must sum to the phase's span
//! total within 5% — and the event stream is schema-validated; either
//! failure exits non-zero.

use pe_trace::{jsonl, report, CollectingSink, Counter, JsonlSink, Sink};
use realistic_pe::{benchmark, Benchmark, CompileOptions, Limits, Pipeline, SUITE};
use std::process::ExitCode;

/// Traces one benchmark end to end into `sink`.
fn trace_one(b: &Benchmark, sink: &mut dyn Sink) -> Result<(), String> {
    let pipe = Pipeline::new_traced(b.source, sink).map_err(|e| format!("{}: {e}", b.name))?;
    let (vm, _report) = pipe
        .compile_vm(b.entry, &CompileOptions::default(), sink)
        .map_err(|e| format!("{}: {e}", b.name))?;
    vm.run_with(&b.test_inputs(), Limits::default(), sink)
        .map_err(|e| format!("{}: {e}", b.name))?;
    Ok(())
}

fn human(benches: &[&Benchmark]) -> Result<(), String> {
    for b in benches {
        let mut sink = CollectingSink::new();
        trace_one(b, &mut sink)?;
        sink.check_balanced().map_err(|e| format!("{}: unbalanced spans: {e}", b.name))?;
        println!("== {} ==", b.name);
        println!("{}", report::render(sink.events()));
    }
    Ok(())
}

fn json(benches: &[&Benchmark]) -> Result<(), String> {
    let mut stream = String::new();
    for b in benches {
        stream.push_str(&format!("{{\"type\":\"run\",\"benchmark\":\"{}\"}}\n", b.name));
        let mut sink = JsonlSink::new(Vec::new());
        trace_one(b, &mut sink)?;
        let bytes = sink.finish().map_err(|e| format!("{}: {e}", b.name))?;
        stream.push_str(&String::from_utf8(bytes).expect("jsonl is ascii"));
    }
    // Self-check the stream against the schema before emitting it.
    let summary = jsonl::validate(&stream)?;
    print!("{stream}");
    eprintln!(
        "pe-explain: {} lines, {} spans, max depth {}",
        summary.lines, summary.spans_closed, summary.max_depth
    );
    Ok(())
}

/// The `--flow` section: compile each benchmark with tracing, validate
/// the JSONL event stream against the schema, then render the flow
/// counters.
fn flow(benches: &[&Benchmark]) -> Result<(), String> {
    const FLOW_COUNTERS: [Counter; 5] = [
        Counter::CopiesPropagated,
        Counter::DeadBindings,
        Counter::ArmsFolded,
        Counter::CfgNodes,
        Counter::CfgEdges,
    ];
    for b in benches {
        // Stream to a JSONL sink so the run is schema-checkable, and
        // aggregate counters on top of the same stream.
        let mut sink = JsonlSink::new(Vec::new());
        let pipe =
            Pipeline::new_traced(b.source, &mut sink).map_err(|e| format!("{}: {e}", b.name))?;
        let rep = pipe
            .compile_report(b.entry, &CompileOptions::default(), None, false, &mut sink)
            .map_err(|e| format!("{}: {e}", b.name))?;
        let c = pipe
            .emit_c(b.entry, &b.test_inputs(), &CompileOptions::default(), &mut sink)
            .map_err(|e| format!("{}: {e}", b.name))?;
        let bytes = sink.finish().map_err(|e| format!("{}: {e}", b.name))?;
        let stream = String::from_utf8(bytes).expect("jsonl is ascii");
        jsonl::validate(&stream).map_err(|e| format!("{}: schema: {e}", b.name))?;

        println!("== {} [flow] ==", b.name);
        for k in FLOW_COUNTERS {
            let total: u64 =
                rep.counters.iter().filter(|&&(c, _)| c == k).map(|&(_, v)| v).sum();
            println!("  {:<20} {total}", k.name());
        }
        println!("  {:<20} {}", "moves-elided", c.moves_elided);
        println!("  {:<20} {}", "c-bytes", c.size_bytes());
    }
    Ok(())
}

/// The `--sct` section: size-change verdicts per procedure plus the
/// dynamic widenings the static control avoided, against a
/// schema-validated trace stream.
fn sct(benches: &[&Benchmark]) -> Result<(), String> {
    for b in benches {
        let mut sink = JsonlSink::new(Vec::new());
        let pipe =
            Pipeline::new_traced(b.source, &mut sink).map_err(|e| format!("{}: {e}", b.name))?;
        let on = pipe
            .compile_report(b.entry, &CompileOptions::default(), None, false, &mut sink)
            .map_err(|e| format!("{}: {e}", b.name))?;
        let off_opts = CompileOptions { sct: false, ..CompileOptions::default() };
        let off = pipe
            .compile_report(b.entry, &off_opts, None, false, &mut sink)
            .map_err(|e| format!("{}: {e}", b.name))?;
        let bytes = sink.finish().map_err(|e| format!("{}: {e}", b.name))?;
        let stream = String::from_utf8(bytes).expect("jsonl is ascii");
        jsonl::validate(&stream).map_err(|e| format!("{}: schema: {e}", b.name))?;

        let flow = pe_frontend::flow::FlowAnalysis::analyze(&pipe.dprog);
        let a = pe_sct::analyze(&pipe.dprog, &flow, b.entry);
        println!("== {} [sct] ==", b.name);
        for (name, v) in a.named_verdicts(&pipe.dprog) {
            println!("  {:<24} {}", name, v.name());
        }
        println!("  {:<24} {}", "size-change-graphs", a.stats.graphs);
        println!("  {:<24} {}", "compositions", a.stats.compositions);
        println!(
            "  {:<24} {}",
            "eager-generalizations",
            on.counter(Counter::EagerGeneralizations)
        );
        println!(
            "  {:<24} {} (analysis off: {})",
            "dynamic-widenings",
            on.counter(Counter::Widenings),
            off.counter(Counter::Widenings)
        );
    }
    Ok(())
}

/// The `--prof` section: one traced compile plus one hot-label
/// profiled run per benchmark, rendered as a top-5 cost-attribution
/// table per phase.  Before anything is printed the books are audited
/// (per-phase attributed time must sum to the phase's span total
/// within 5%, with half a millisecond of absolute slack for phases
/// that are pure jitter) and the stream is replayed through the JSONL
/// schema validator.
fn prof(benches: &[&Benchmark]) -> Result<(), String> {
    for b in benches {
        let mut sink = CollectingSink::new();
        let pipe =
            Pipeline::new_traced(b.source, &mut sink).map_err(|e| format!("{}: {e}", b.name))?;
        let (vm, _report) = pipe
            .compile_vm(b.entry, &CompileOptions::default(), &mut sink)
            .map_err(|e| format!("{}: {e}", b.name))?;
        vm.run_profiled_with(&b.test_inputs(), Limits::default(), &mut sink)
            .map_err(|e| format!("{}: {e}", b.name))?;
        sink.check_balanced().map_err(|e| format!("{}: unbalanced spans: {e}", b.name))?;

        let table = pe_prof::Attribution::from_events(sink.events());
        if table.is_empty() {
            return Err(format!("{}: the traced compile attributed nothing", b.name));
        }
        table
            .check_sums(sink.events(), 5, 500_000)
            .map_err(|e| format!("{}: attribution books don't balance: {e}", b.name))?;

        // The same stream must survive the JSONL schema, attr and hist
        // lines included.
        let mut jsink = JsonlSink::new(Vec::new());
        pe_trace::replay(&mut jsink, sink.events());
        let bytes = jsink.finish().map_err(|e| format!("{}: {e}", b.name))?;
        let stream = String::from_utf8(bytes).expect("jsonl is ascii");
        jsonl::validate(&stream).map_err(|e| format!("{}: schema: {e}", b.name))?;

        println!("== {} [prof] ==", b.name);
        print!("{}", table.render_top_k(5));
    }
    Ok(())
}

/// One report mode over the selected benchmarks.
type Mode = fn(&[&Benchmark]) -> Result<(), String>;

/// Every flag pe-explain accepts: `(flag, what it selects, runner)`.
/// The default (no flag) is the human-readable span report.
const MODES: [(&str, &str, Mode); 4] = [
    ("--json", "validated JSONL event stream", json),
    ("--flow", "flow-optimizer counters", flow),
    ("--sct", "size-change termination verdicts", sct),
    ("--prof", "per-procedure cost attribution", prof),
];

fn usage() {
    eprintln!("usage: pe-explain [FLAG] [BENCHMARK...]");
    for (flag, what, _) in MODES {
        eprintln!("  {flag:<8} {what}");
    }
    eprintln!(
        "  benchmarks: {} (default: all)",
        SUITE.iter().map(|b| b.name).collect::<Vec<_>>().join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<(&str, Mode)> = None;
    let mut benches: Vec<&Benchmark> = Vec::new();
    for arg in &args {
        if arg.starts_with('-') {
            let Some(&(flag, _, run)) = MODES.iter().find(|(f, _, _)| f == arg) else {
                eprintln!("pe-explain: unknown flag {arg:?}");
                usage();
                return ExitCode::FAILURE;
            };
            if let Some((prev, _)) = mode.replace((flag, run)) {
                eprintln!("pe-explain: {prev} and {flag} are exclusive — pick one mode");
                usage();
                return ExitCode::FAILURE;
            }
        } else {
            match benchmark(arg) {
                Some(b) => benches.push(b),
                None => {
                    eprintln!("pe-explain: no benchmark named {arg:?}");
                    usage();
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if benches.is_empty() {
        benches.extend(SUITE);
    }
    let run = mode.map_or(human as Mode, |(_, run)| run);
    match run(&benches) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pe-explain: {e}");
            ExitCode::FAILURE
        }
    }
}
