//! The realistic-pe benchmark: three workloads over the whole pipeline,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! separate traced run.
//!
//! ```text
//! perfbench --workload <fig8|gen-large|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` beside this crate for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.

mod fig8;
mod genlarge;
mod large;
mod layers;
mod metrics;
mod progs;
mod serve;
mod stats;
mod trace;

use progs::Tally;
use stats::Metrics;
use std::time::{Duration, Instant};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run reports.
pub struct Outcome {
    pub tally: Tally,
    /// Checks other than per-operation answers (e.g. serve-mix must see
    /// every cache outcome); `false` marks the run incorrect.
    pub checks_passed: bool,
    pub metrics: Metrics,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The instant `args.seconds` after now.
pub fn deadline(args: &Args, share: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(args.seconds * share)
}

/// Runs `setup` once when traced, otherwise three times, returning the
/// last result and the median set-up time in seconds.
pub fn setups<T>(
    args: &Args,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let n = if args.trace { 1 } else { 3 };
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    let median = stats::median(&secs).expect("at least one set-up");
    Ok((last.expect("at least one set-up"), median))
}

/// Writes the traced run's spans to
/// `.bench_build/perfbench/spans-<workload>-<seed>.jsonl`.
pub fn write_spans(args: &Args, tr: &trace::Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_build").join("perfbench");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", tr.len(), path.display());
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "fig8" => fig8::run(args),
        "gen-large" => large::run(args),
        "serve-mix" => serve::run(args),
        w => Err(format!("unknown workload {w} (fig8, gen-large, serve-mix)")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The host-stack engines (Fig. 3 interpreter, Hobbit) recurse by
    // design; everything runs on one big-stack thread.
    let result = realistic_pe::with_big_stack(|| run(&args));
    match result {
        Ok(o) => {
            let correct = o.checks_passed && o.tally.failed == 0;
            println!(
                "{}",
                stats::result_json(
                    correct,
                    o.tally.attempted.max(1),
                    o.tally.failed,
                    &o.metrics
                )
            );
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
