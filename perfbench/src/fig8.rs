//! `fig8`: the seven Fig. 8 programs at their `bench_args`, compiled
//! from source to verified S₀, loaded on the VM and emitted as C, then
//! run on the VM and as `cc -O2` binaries.  This is the paper's claim,
//! and where the VM run loop, the emitted C and the residual optimizer
//! do their work.

use crate::genlarge::shuffled;
use crate::layers::{record_vm_counts, traced_round};
use crate::metrics::{measure, pass_metrics, per_layer, print_fig8_rows, Mix};
use crate::progs::{Prog, Tally, WorkDir};
use crate::stats::Rounds;
use crate::trace::Tracer;
use crate::{deadline, setups, Args, Outcome};
use pe_interp::Limits;
use realistic_pe::SUITE;
use std::path::Path;
use std::time::Instant;

/// Builds the seven programs in a seed-chosen order (the order of every
/// pass): reference answers, compiles, `cc` builds, one checked run of
/// each engine.  Returns the programs and the summed `cc` seconds.
fn setup(dir: &Path, seed: u64) -> Result<(Vec<Prog>, f64), String> {
    let mut progs = Vec::with_capacity(SUITE.len());
    let mut cc_s = 0.0;
    for i in shuffled(SUITE.len(), seed) {
        let b = &SUITE[i];
        let mut p = Prog::new(
            b.name,
            b.source,
            b.entry,
            b.bench_inputs(),
            Limits::default(),
        )?;
        cc_s += p.build_c(dir)?;
        progs.push(p);
    }
    Ok((progs, cc_s))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create("fig8")?;
    let ((progs, cc_s), setup_s) = setups(args, || setup(&work.0, args.seed))?;
    let mut tally = Tally::default();
    if args.trace {
        let rounds = traced(args, &progs, cc_s, &mut tally)?;
        return Ok(Outcome {
            tally,
            checks_passed: true,
            metrics: per_layer(&rounds, tally),
        });
    }
    // Five compile passes per run pass keep at least ten samples beyond
    // compile_ms.p90 and latency_p99_ms in a 20-second run.
    let mix = Mix {
        compiles: 5,
        vm_runs: 1,
        c_runs: 1,
    };
    let t = measure(&progs, deadline(args, 1.0), mix, &mut tally);
    let metrics = pass_metrics(setup_s, &t, &progs)?;
    Ok(Outcome {
        tally,
        checks_passed: true,
        metrics,
    })
}

/// The traced run: rounds of the shared traced round (untraced compile
/// pass, composed compile and VM run of every program) plus one run of
/// every program as C, on the tail interpreter and on Hobbit, with the
/// Fig. 3 answer checked every time.
fn traced(args: &Args, progs: &[Prog], cc_s: f64, tally: &mut Tally) -> Result<Rounds, String> {
    let mut rounds = Rounds::default();
    rounds.set("backend-c.cc_s", cc_s);
    record_vm_counts(progs, &mut rounds)?;
    let hobbits = progs
        .iter()
        .map(|p| {
            p.pipe
                .compile_hobbit()
                .map_err(|e| format!("{}: hobbit: {e}", p.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let lim = Limits::default();
    let mut tr = Tracer::new(Instant::now());
    let until = deadline(args, 1.0);
    while Instant::now() < until {
        traced_round(&mut tr, &mut rounds, progs, tally)?;
        for (p, hob) in progs.iter().zip(&hobbits) {
            let runs: [(&'static str, &str, &dyn Fn() -> bool); 3] = [
                ("backend-c.run", "backend-c.run_ms", &|| p.run_c().1),
                ("interp.run_tail", "interp.tail_ms", &|| {
                    p.pipe
                        .run_tail(&p.entry, &p.args, lim)
                        .is_ok_and(|d| d == p.expect)
                }),
                ("hobbit.run", "hobbit.run_ms", &|| {
                    hob.run(&p.entry, &p.args, lim).is_ok_and(|d| d == p.expect)
                }),
            ];
            for (span, metric, run) in runs {
                let (ms, ok) = tr.time(span, &p.name, run);
                if tally.record(ok) {
                    rounds.add(&format!("{metric}.{}", p.name), ms);
                }
            }
        }
        rounds.end_round();
    }
    crate::write_spans(args, &tr)?;
    print_fig8_rows(&rounds);
    Ok(rounds)
}
