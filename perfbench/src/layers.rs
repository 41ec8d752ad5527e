//! The traced compile: the pipeline's layers called one by one, in the
//! order `pe_core::compile_audited_with` uses, followed by `Vm::compile`
//! and `emit_c`.  Each call is a span; its time and the layer's work
//! counters go into the run's per-round table.  The composed residual
//! must be byte-identical to `Pipeline::compile`, or the numbers would
//! describe a different program.

use crate::progs::{compile_pass, Prog, Tally};
use crate::stats::Rounds;
use crate::trace::Tracer;
use pe_backend_c::{emit_c, COptions};
use pe_core::{CompileAudit, CompileOptions, Spec};
use pe_flow::{FlowOptions, FlowStats};
use pe_frontend::{desugar, parse_program_positioned, FlowAnalysis, GenAnalysis};
use pe_governor::{Fuel, Limits};
use pe_trace::{CollectingSink, Counter};
use pe_vm::Vm;

/// Times `f` as span `name` and adds its milliseconds to the round.
fn layer<R>(
    tr: &mut Tracer,
    rounds: &mut Rounds,
    name: &'static str,
    label: &str,
    f: impl FnOnce() -> R,
) -> R {
    let id = tr.open(name, label);
    let r = f();
    rounds.add(name, tr.close(id));
    r
}

/// Compiles `p` layer by layer under spans and checks the residual
/// against `p.residual`.
pub fn compile_traced(tr: &mut Tracer, rounds: &mut Rounds, p: &Prog) -> Result<(), String> {
    let opts = CompileOptions::default();
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage}: {e}", p.name);
    let l = p.name.as_str();
    let top = tr.open("pipeline.compile", l);

    let forms = layer(tr, rounds, "sexpr.read_ms", l, || {
        pe_sexpr::read_positioned(&p.source)
    })
    .map_err(|e| fail("read", &e))?;
    let (exprs, poss): (Vec<_>, Vec<_>) = forms.into_iter().unzip();
    let program = layer(tr, rounds, "frontend.parse_ms", l, || {
        parse_program_positioned(&exprs, &poss)
    })
    .map_err(|e| fail("parse", &e))?;
    let dprog = layer(tr, rounds, "frontend.desugar_ms", l, || desugar(&program))
        .map_err(|e| fail("desugar", &e))?;
    let flow = layer(tr, rounds, "frontend.cfa_ms", l, || {
        FlowAnalysis::analyze(&dprog)
    });
    let gen = layer(tr, rounds, "frontend.gen_analysis_ms", l, || {
        GenAnalysis::analyze(&dprog, &flow)
    });

    let sct = if opts.sct {
        let a = layer(tr, rounds, "sct.analyze_ms", l, || {
            pe_sct::analyze(&dprog, &flow, &p.entry)
        });
        rounds.add("sct.graphs", a.stats.graphs as f64);
        rounds.add("sct.compositions", a.stats.compositions as f64);
        if let Some(trap) = &a.divergence {
            return Err(fail("sct", trap));
        }
        Some(a)
    } else {
        None
    };

    let mut sink = CollectingSink::new();
    let (raw, events) = layer(tr, rounds, "core.specialize_ms", l, || {
        let mut spec = Spec::new(&dprog, &flow, &gen, opts.clone());
        if let Some(a) = &sct {
            spec = spec.with_sct(a.verdicts.clone());
        }
        spec.compile_audited_with(&p.entry, &mut sink)
    })
    .map_err(|e| fail("specialize", &e))?;
    let lookups = sink.counter_total(Counter::MemoLookups) as f64;
    rounds.add("core.memo_lookups", lookups);
    rounds.add(
        "core.memo_hits",
        sink.counter_total(Counter::MemoHits) as f64,
    );
    rounds.add(
        "core.unfold_steps",
        sink.counter_total(Counter::UnfoldSteps) as f64,
    );
    rounds.add(
        "core.generalizations",
        sink.counter_total(Counter::Generalizations) as f64,
    );
    rounds.add("core.nodes_raw", raw.size() as f64);

    let posted = if opts.postprocess {
        layer(tr, rounds, "flow.post_ms", l, || pe_flow::postprocess(raw))
    } else {
        raw
    };
    rounds.add("flow.nodes_after_post", posted.size() as f64);
    let s0 = if opts.flow {
        // As in the pipeline: an exhausted optimizer budget keeps the
        // unoptimized (correct) program.
        let fallback = posted.clone();
        let (q, stats) = layer(tr, rounds, "flow.optimize_ms", l, || {
            let mut fuel = Fuel::new(&opts.limits);
            pe_flow::optimize_with(posted, &FlowOptions::default(), &mut fuel)
        })
        .unwrap_or_else(|_| (fallback, FlowStats::default()));
        rounds.add("flow.cfg_nodes", stats.cfg_nodes as f64);
        rounds.add("flow.copies_propagated", stats.copies_propagated as f64);
        rounds.add("flow.arms_folded", stats.arms_folded as f64);
        rounds.add("flow.slots_pruned", stats.slots_pruned as f64);
        q
    } else {
        posted
    };
    rounds.add("flow.nodes_after_optimize", s0.size() as f64);

    let audit = match sct {
        Some(a) => CompileAudit {
            enabled: true,
            verdicts: a.verdicts,
            stats: a.stats,
            events,
        },
        None => CompileAudit {
            events,
            ..CompileAudit::default()
        },
    };
    let report = layer(tr, rounds, "verify.ms", l, || {
        let mut r = pe_verify::verify(&s0);
        r.merge(pe_verify::verify_audit(&audit));
        r
    });
    if report.has_errors() {
        return Err(fail("verify", &report.error_messages().join("; ")));
    }
    let vm =
        layer(tr, rounds, "vm.load_ms", l, || Vm::compile(&s0)).map_err(|e| fail("vm load", &e))?;
    std::hint::black_box(&vm);
    let c = layer(tr, rounds, "backend-c.emit_ms", l, || {
        emit_c(&s0, &p.args, &COptions::default())
    });
    rounds.add("backend-c.moves_elided", c.moves_elided as f64);
    tr.close(top);

    if s0.to_source() != p.residual {
        return Err(format!(
            "{}: the composed layers produced a different residual than Pipeline::compile",
            p.name
        ));
    }
    if c.size_bytes() != p.c.size_bytes() {
        return Err(format!(
            "{}: the composed layers emitted different C",
            p.name
        ));
    }
    Ok(())
}

/// Layer time summed over the spans [`compile_traced`] records (the
/// numerator of `harness.trace_overhead`).
pub const LAYER_MS: [&str; 12] = [
    "sexpr.read_ms",
    "frontend.parse_ms",
    "frontend.desugar_ms",
    "frontend.cfa_ms",
    "frontend.gen_analysis_ms",
    "sct.analyze_ms",
    "core.specialize_ms",
    "flow.post_ms",
    "flow.optimize_ms",
    "verify.ms",
    "vm.load_ms",
    "backend-c.emit_ms",
];

/// One round of a traced run: an untraced compile pass (the overhead
/// baseline and the per-program compile rows), then for each program the
/// composed compile and one VM run, each answer checked.
pub fn traced_round(
    tr: &mut Tracer,
    rounds: &mut Rounds,
    progs: &[Prog],
    tally: &mut Tally,
) -> Result<(), String> {
    if let (Some(ms), per) = compile_pass(progs, tally) {
        rounds.add("harness.compile_untraced_ms", ms);
        for (p, ms) in progs.iter().zip(per) {
            rounds.add(&format!("pipeline.compile_ms.{}", p.name), ms);
        }
    }
    for p in progs {
        compile_traced(tr, rounds, p)?;
        let (ms, ok) = tr.time("vm.run", &p.name, || p.run_vm().1);
        if tally.record(ok) {
            rounds.add(&format!("vm.run_ms.{}", p.name), ms);
            rounds.add("vm.run_total_ms", ms);
        }
    }
    Ok(())
}

/// Records the VM's work counters over `progs`, from one profiled run
/// each (they are deterministic).
pub fn record_vm_counts(progs: &[Prog], rounds: &mut Rounds) -> Result<(), String> {
    let (mut steps, mut allocs, mut calls) = (0, 0, 0);
    for p in progs {
        let (_, s, _) =
            p.vm.run_profiled_with(&p.args, Limits::default(), &mut pe_trace::NullSink)
                .map_err(|e| format!("{}: vm: {e}", p.name))?;
        steps += s.steps;
        allocs += s.allocs;
        calls += s.calls;
    }
    rounds.set("vm.steps", steps as f64);
    rounds.set("vm.allocs", allocs as f64);
    rounds.set("vm.calls", calls as f64);
    Ok(())
}
