//! `gen-large`: one seeded program of about 200 source procedures
//! composed from pe-siege generated cases, compiled repeatedly.  A large
//! source with a small residual: the front-end analyses (cfa, sct) do
//! almost all the work and the VM and optimizer almost none, so it is
//! the bypass side for VM and optimizer changes and the scaling side for
//! analysis changes.

use crate::genlarge::{composed_limits, large_program};
use crate::layers::{record_vm_counts, traced_round};
use crate::metrics::{measure, pass_metrics, per_layer, Mix};
use crate::progs::{Prog, Tally, WorkDir};
use crate::stats::Rounds;
use crate::trace::Tracer;
use crate::{deadline, setups, Args, Outcome};
use std::path::Path;
use std::time::Instant;

/// Source procedures in the composed program (at least).
pub const TARGET_PROCS: usize = 200;

fn setup(dir: &Path, seed: u64) -> Result<(Vec<Prog>, f64), String> {
    let large = large_program(seed, TARGET_PROCS)?;
    let mut p = Prog::new(
        "gen-large",
        &large.source,
        "main",
        Vec::new(),
        composed_limits(large.cases),
    )?;
    let cc_s = p.build_c(dir)?;
    Ok((vec![p], cc_s))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create("gen-large")?;
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
    // The residual runs in microseconds: many VM runs per compile keep
    // its median steady without taking time from the compiles.
    let mix = Mix {
        compiles: 1,
        vm_runs: 50,
        c_runs: 2,
    };
    let t = measure(&progs, deadline(args, 1.0), mix, &mut tally);
    let metrics = pass_metrics(setup_s, &t, &progs)?;
    Ok(Outcome {
        tally,
        checks_passed: true,
        metrics,
    })
}

fn traced(args: &Args, progs: &[Prog], cc_s: f64, tally: &mut Tally) -> Result<Rounds, String> {
    let mut rounds = Rounds::default();
    rounds.set("backend-c.cc_s", cc_s);
    record_vm_counts(progs, &mut rounds)?;
    let mut tr = Tracer::new(Instant::now());
    let until = deadline(args, 1.0);
    while Instant::now() < until {
        traced_round(&mut tr, &mut rounds, progs, tally)?;
        rounds.end_round();
    }
    crate::write_spans(args, &tr)?;
    Ok(rounds)
}
