//! The metric tables: the untraced measurement loop behind the
//! end-to-end metrics, and the full per-layer list the traced run
//! reports.

use crate::layers::LAYER_MS;
use crate::progs::{c_pass, compile_pass, vm_pass, Prog, Tally};
use crate::stats::{peak_rss_mb, put, quantile, Metrics, Rounds};
use realistic_pe::SUITE;
use std::time::Instant;

/// Samples from the untraced loop.
#[derive(Debug, Default)]
pub struct Timings {
    /// One compile of every program (ms).
    pub compile_passes: Vec<f64>,
    /// One compile of one program (ms).
    pub per_compile: Vec<f64>,
    /// Summed `Vm::run` over every program (ms).
    pub vm_passes: Vec<f64>,
    /// Summed spawn-to-exit over every built binary (ms).
    pub c_passes: Vec<f64>,
}

/// How many of each pass one round of the untraced loop makes.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub compiles: usize,
    pub vm_runs: usize,
    pub c_runs: usize,
}

/// Repeats rounds of `mix` over `progs` until `until`.  Passes with a
/// failed operation are counted in `tally` and never timed.
pub fn measure(progs: &[Prog], until: Instant, mix: Mix, tally: &mut Tally) -> Timings {
    let mut t = Timings::default();
    while Instant::now() < until {
        for _ in 0..mix.compiles {
            if let (Some(ms), per) = compile_pass(progs, tally) {
                t.compile_passes.push(ms);
                t.per_compile.extend(per);
            }
        }
        for _ in 0..mix.vm_runs {
            t.vm_passes.extend(vm_pass(progs, tally));
        }
        for _ in 0..mix.c_runs {
            t.c_passes.extend(c_pass(progs, tally));
        }
    }
    t
}

/// The inputs of the end-to-end table.
pub struct EndToEnd<'a> {
    pub setup_s: f64,
    /// Compile samples (ms): passes on fig8 and gen-large, compiling
    /// requests on serve-mix.
    pub compile: &'a [f64],
    pub run_vm: &'a [f64],
    pub run_c: &'a [f64],
    pub c_bytes: usize,
    /// Operation latencies (ms): one program's compile on fig8 and
    /// gen-large, one request on serve-mix.
    pub latency: &'a [f64],
    pub throughput_rps: f64,
}

/// Every end-to-end metric.  Fails when a sample set is empty: an
/// operation that never succeeded has no time.
pub fn end_to_end(e: &EndToEnd) -> Result<Metrics, String> {
    let need = |name: &str, xs: &[f64], q: f64| {
        quantile(xs, q).ok_or_else(|| format!("no successful samples for {name}"))
    };
    let mut m = Metrics::new();
    put(&mut m, "setup_s", e.setup_s, "s");
    put(
        &mut m,
        "compile_ms",
        need("compile_ms", e.compile, 0.5)?,
        "ms",
    );
    put(
        &mut m,
        "compile_ms.p90",
        need("compile_ms.p90", e.compile, 0.9)?,
        "ms",
    );
    put(&mut m, "run_vm_ms", need("run_vm_ms", e.run_vm, 0.5)?, "ms");
    put(&mut m, "run_c_ms", need("run_c_ms", e.run_c, 0.5)?, "ms");
    put(&mut m, "c_bytes", e.c_bytes as f64, "bytes");
    put(&mut m, "peak_rss_mb", peak_rss_mb(), "MiB");
    put(
        &mut m,
        "latency_p50_ms",
        need("latency_p50_ms", e.latency, 0.5)?,
        "ms",
    );
    put(
        &mut m,
        "latency_p99_ms",
        need("latency_p99_ms", e.latency, 0.99)?,
        "ms",
    );
    put(&mut m, "throughput_rps", e.throughput_rps, "req/s");
    eprintln!(
        "samples: compile {} run_vm {} run_c {} latency {}",
        e.compile.len(),
        e.run_vm.len(),
        e.run_c.len(),
        e.latency.len()
    );
    Ok(m)
}

/// The end-to-end table of a workload measured in passes (`fig8`,
/// `gen-large`): compile samples are passes over every program, latency
/// samples single-program compiles.
pub fn pass_metrics(setup_s: f64, t: &Timings, progs: &[Prog]) -> Result<Metrics, String> {
    end_to_end(&EndToEnd {
        setup_s,
        compile: &t.compile_passes,
        run_vm: &t.vm_passes,
        run_c: &t.c_passes,
        c_bytes: progs.iter().map(|p| p.c.size_bytes()).sum(),
        latency: &t.per_compile,
        throughput_rps: rate(&t.per_compile),
    })
}

/// Operations per second over the summed operation time.
fn rate(samples_ms: &[f64]) -> f64 {
    let total: f64 = samples_ms.iter().sum();
    if total > 0.0 {
        samples_ms.len() as f64 * 1e3 / total
    } else {
        0.0
    }
}

/// Per-program metric families (one metric per Fig. 8 program each).
pub const PER_PROGRAM: [&str; 5] = [
    "vm.run_ms",
    "backend-c.run_ms",
    "pipeline.compile_ms",
    "interp.tail_ms",
    "hobbit.run_ms",
];

/// Per-layer metrics read straight from the rounds table.
const DIRECT: [&str; 21] = [
    "sct.graphs",
    "sct.compositions",
    "core.memo_lookups",
    "core.unfold_steps",
    "core.generalizations",
    "core.nodes_raw",
    "flow.nodes_after_post",
    "flow.nodes_after_optimize",
    "flow.cfg_nodes",
    "flow.copies_propagated",
    "flow.arms_folded",
    "flow.slots_pruned",
    "vm.steps",
    "vm.allocs",
    "vm.calls",
    "backend-c.moves_elided",
    "serve.evictions",
    "serve.warm_starts",
    "serve.hit_ratio",
    "serve.fingerprint_us",
    "backend-c.cc_s",
];

/// Serve latencies by outcome, also read straight from the table.
const SERVE_MS: [&str; 3] = [
    "serve.hit_p50_ms",
    "serve.warm_miss_p50_ms",
    "serve.cold_miss_p50_ms",
];

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.contains("_ms.") || name == "verify.ms" {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("ratio") || name.ends_with("overhead") || name == "fail_rate" {
        "ratio"
    } else if name == "vm.ns_per_step" {
        "ns"
    } else {
        "count"
    }
}

/// Every per-layer metric name, in report order.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = LAYER_MS.iter().map(|s| (*s).to_string()).collect();
    names.extend(DIRECT.iter().map(|s| (*s).to_string()));
    names.extend(SERVE_MS.iter().map(|s| (*s).to_string()));
    for fam in PER_PROGRAM {
        names.extend(SUITE.iter().map(|b| format!("{fam}.{}", b.name)));
    }
    names.extend(
        [
            "core.memo_hit_ratio",
            "vm.ns_per_step",
            "harness.trace_overhead",
            "fail_rate",
        ]
        .map(str::to_string),
    );
    names
}

/// Every per-layer metric from a traced run.  Layers a workload does not
/// exercise read 0 (e.g. `serve.*` on fig8, per-program rows off fig8).
pub fn per_layer(rounds: &Rounds, tally: Tally) -> Metrics {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = Metrics::new();
    for name in per_layer_names() {
        let v = match name.as_str() {
            "core.memo_hit_ratio" => ratio(
                rounds.median("core.memo_hits"),
                rounds.median("core.memo_lookups"),
            ),
            "vm.ns_per_step" => ratio(
                rounds.median("vm.run_total_ms") * 1e6,
                rounds.median("vm.steps"),
            ),
            "harness.trace_overhead" => ratio(
                LAYER_MS.iter().map(|n| rounds.median(n)).sum(),
                rounds.median("harness.compile_untraced_ms"),
            ),
            "fail_rate" => ratio(tally.failed as f64, tally.attempted as f64),
            n => rounds.median(n),
        };
        put(&mut m, &name, v, unit_of(&name));
    }
    m
}

/// Prints the Fig. 8 rows (per-program medians) of a traced run.
pub fn print_fig8_rows(rounds: &Rounds) {
    println!(
        "{:<11} {:>10} {:>10} {:>10} {:>10} {:>11}",
        "program", "vm_ms", "c_ms", "tail_ms", "hobbit_ms", "compile_ms"
    );
    for b in SUITE {
        let v = |fam: &str| rounds.median(&format!("{fam}.{}", b.name));
        println!(
            "{:<11} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>11.3}",
            b.name,
            v("vm.run_ms"),
            v("backend-c.run_ms"),
            v("interp.tail_ms"),
            v("hobbit.run_ms"),
            v("pipeline.compile_ms")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names the code reports are exactly the names BENCHMARK.json
    /// declares.
    #[test]
    fn benchmark_json_names_match() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..]
                .find(']')
                .map(|e| start + e)
                .expect("section closes");
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or_default().to_string())
                .collect()
        };
        let mut declared = section("per_layer");
        declared.sort();
        let mut reported = per_layer_names();
        reported.sort();
        assert_eq!(declared, reported);
        let e2e = EndToEnd {
            setup_s: 1.0,
            compile: &[1.0],
            run_vm: &[1.0],
            run_c: &[1.0],
            c_bytes: 1,
            latency: &[1.0],
            throughput_rps: 1.0,
        };
        let reported: Vec<String> = end_to_end(&e2e).expect("samples").into_keys().collect();
        let mut declared = section("end_to_end");
        declared.sort();
        assert_eq!(declared, reported);
    }
}
