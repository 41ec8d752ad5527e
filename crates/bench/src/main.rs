//! `pe-bench` — offline benchmark runner.
//!
//! ```text
//! cargo run --release -p pe-bench                # full mode, bench_args
//! cargo run --release -p pe-bench -- --quick     # CI mode, test_args
//! cargo run --release -p pe-bench -- --out x.json --reps 7
//! cargo run --release -p pe-bench -- --no-serve  # skip the service workload
//! ```
//!
//! Writes `BENCH_pe.json` (deterministic shape: sorted keys, fixed
//! Fig. 8 benchmark order) and prints a Fig. 8-style table.  The
//! compile-service workload (pe-serve, cold vs warm on 1/2/4 threads)
//! runs by default and lands in the `"serve"` section.

use pe_bench::{check_regressions, run_serve, run_suite, to_json_with_serve, BenchConfig, Tolerances};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg: Option<BenchConfig> = None;
    let mut out = String::from("BENCH_pe.json");
    let mut reps: Option<u32> = None;
    let mut with_serve = true;
    let mut check: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg = Some(BenchConfig::quick()),
            "--full" => cfg = Some(BenchConfig::full()),
            "--no-serve" => with_serve = false,
            "--out" => match args.next() {
                Some(p) => out = p,
                None => return usage("--out needs a path"),
            },
            "--check" => match args.next() {
                Some(p) => check = Some(p),
                None => return usage("--check needs a baseline path"),
            },
            "--reps" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => reps = Some(n),
                _ => return usage("--reps needs a positive integer"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: pe-bench [--quick | --full] [--reps N] [--out PATH] [--no-serve] [--check BASELINE]\n\
                     Times every Fig. 8 benchmark on the S0 VM, the tail\n\
                     interpreter, the Hobbit baseline and the emitted C\n\
                     (cc -O2), plus the pe-serve\n\
                     many-request workload; writes PATH (default BENCH_pe.json).\n\
                     With --check, compares the fresh run against BASELINE\n\
                     and exits non-zero on any perf or size regression."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let mut cfg = cfg.unwrap_or_else(BenchConfig::full);
    if let Some(n) = reps {
        cfg.reps = n;
    }

    let rows = match run_suite(&cfg) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("pe-bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:<11} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>12}",
        "benchmark", "compile", "vm ms", "tail ms", "hobbit ms", "c ms", "tail/vm", "s0 nodes"
    );
    for r in &rows {
        let c = r.c.as_ref().map_or_else(|_| "-".to_string(), |t| format!("{:.3}", t.min_ms));
        println!(
            "{:<11} {:>10.2} {:>10.3} {:>10.3} {:>10.3} {:>10} {:>9.2} {:>12}",
            r.name,
            r.compile_ms,
            r.vm.min_ms,
            r.tail.min_ms,
            r.hobbit.min_ms,
            c,
            r.tail.min_ms / r.vm.min_ms,
            format!("{}→{}", r.residual.nodes_base, r.residual.nodes_flow)
        );
    }
    if let Some(Err(why)) = rows.first().map(|r| &r.c) {
        println!("(no C column: {why})");
    }

    let serve = if with_serve {
        match run_serve(&cfg, &[1, 2, 4]) {
            Ok(sv) => {
                println!(
                    "\n{:<8} {:>10} {:>10} {:>12} {:>12}",
                    "threads", "cold ms", "warm ms", "cold rps", "warm rps"
                );
                for r in &sv.rows {
                    println!(
                        "{:<8} {:>10.2} {:>10.3} {:>12.0} {:>12.0}",
                        r.threads,
                        r.cold_ms,
                        r.warm_ms,
                        r.throughput_cold_rps,
                        r.throughput_warm_rps
                    );
                }
                println!(
                    "serve: {} requests ({} distinct); capacity-0 recompile {:.2} ms cold vs {:.2} ms warm",
                    sv.requests, sv.distinct, sv.cold_compile_ms, sv.warm_compile_ms
                );
                Some(sv)
            }
            Err(e) => {
                eprintln!("pe-bench: serve workload: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let json = to_json_with_serve(&cfg, &rows, serve.as_ref());
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("pe-bench: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out} ({} mode, min of {} runs)", if cfg.quick { "quick" } else { "full" }, cfg.reps);

    if let Some(baseline_path) = check {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("pe-bench: reading baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check_regressions(&baseline, &json, &Tolerances::default()) {
            Ok(regressions) if regressions.is_empty() => {
                println!("regression gate: OK against {baseline_path}");
            }
            Ok(regressions) => {
                eprintln!("regression gate: FAIL against {baseline_path}:");
                for r in &regressions {
                    eprintln!("  {r}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("regression gate: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("pe-bench: {msg} (try --help)");
    ExitCode::FAILURE
}
