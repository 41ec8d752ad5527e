//! `pe-siege` — drive the robustness harness from the command line.
//!
//! ```text
//! pe-siege --quick              # fixed-seed CI smoke: corpus + 400 programs
//! pe-siege --soak               # sustained attack: corpus + 2000 programs
//! pe-siege --replay             # corpus only
//! pe-siege --seed N --cases N   # custom campaign
//! ```
//!
//! Exit status: 0 on a clean run, 1 when any finding survived, 2 on
//! usage or I/O errors.  Every mode but `--replay` writes a report
//! (validated against the pe-trace stream schema) to `--out`, by
//! default `SIEGE_pe.json` in the working directory.

use pe_siege::{report, run_siege, SiegeConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: pe-siege [--quick | --soak | --replay] [--seed N] [--cases N] \
         [--rungs N] [--corpus DIR] [--out FILE] [--no-shrink]"
    );
    std::process::exit(2);
}

/// The corpus directory baked into the source tree, used unless
/// `--corpus` overrides it.
fn default_corpus() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

fn parse_args() -> (SiegeConfig, PathBuf, bool) {
    let mut cfg = SiegeConfig::quick();
    let mut out = PathBuf::from("SIEGE_pe.json");
    let mut corpus = Some(default_corpus());
    let mut replay_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cfg = SiegeConfig::quick(),
            "--soak" => cfg = SiegeConfig::soak(),
            "--replay" => replay_only = true,
            "--no-shrink" => cfg.shrink = false,
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => usage(),
            },
            "--cases" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.cases = v,
                None => usage(),
            },
            "--rungs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.ladder_rungs = v,
                None => usage(),
            },
            "--corpus" => match args.next() {
                Some(v) => corpus = Some(PathBuf::from(v)),
                None => usage(),
            },
            "--out" => match args.next() {
                Some(v) => out = PathBuf::from(v),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if replay_only {
        cfg.cases = 0;
        cfg.persist_findings = false;
    }
    cfg.corpus_dir = corpus;
    (cfg, out, replay_only)
}

fn main() -> ExitCode {
    let (cfg, out, replay_only) = parse_args();
    let t0 = Instant::now();
    let totals = run_siege(&cfg); // runs on a big-stack worker
    let elapsed_ns = t0.elapsed().as_nanos() as u64;

    print!("{}", report::summarize(&totals, elapsed_ns));

    if !replay_only {
        // Replay mode is a gate, not a campaign; only full runs leave
        // a report behind.
        match report::render(&totals, &cfg, elapsed_ns) {
            Ok(text) => {
                if let Err(e) = std::fs::write(&out, text) {
                    eprintln!("pe-siege: cannot write {}: {e}", out.display());
                    return ExitCode::from(2);
                }
                println!("report: {}", out.display());
            }
            Err(e) => {
                eprintln!("pe-siege: {e}");
                return ExitCode::from(2);
            }
        }
    }

    ExitCode::from(u8::from(!totals.findings.is_empty()))
}
