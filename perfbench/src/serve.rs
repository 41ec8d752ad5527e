//! `serve-mix`: two closed-loop clients (each sends its next request
//! only after the reply to the last) against one shared
//! `pe_serve::Server` that runs one worker per call.
//!
//! Requests are drawn from a seeded, skewed (1/rank) popularity over the
//! Fig. 8 programs and generated programs, each in several layout
//! variants that share one fingerprint.  The artifact cache holds fewer
//! programs than the working set, and the warm-snapshot tier (four times
//! the capacity) fewer still, so hits (reads) run beside warm misses,
//! cold misses and evictions (writes) in steady state: a cache or
//! compile change that speeds one path and slows the other shows here.

use crate::genlarge::pool;
use crate::layers::{record_vm_counts, traced_round};
use crate::metrics::{end_to_end, measure, per_layer, EndToEnd, Mix};
use crate::progs::{Prog, Tally, WorkDir};
use crate::stats::{median, ms_since, Rounds};
use crate::trace::Tracer;
use crate::{deadline, setups, Args, Outcome};
use pe_core::CompileOptions;
use pe_interp::Limits;
use pe_serve::{
    canonical_source, fingerprint, CompileRequest, Outcome as Served, Server, ServerConfig,
};
use pe_siege::oracle::oracle_limits;
use pe_siege::rng::Rng;
use realistic_pe::SUITE;
use std::path::Path;
use std::time::Instant;

/// Generated programs in the working set (beside the seven Fig. 8 ones).
const GENERATED: usize = 25;
/// Artifact-cache capacity: well below the working set.
const CAPACITY: usize = 4;
/// Closed-loop client threads.
const CLIENTS: u32 = 2;
/// Layout variants per program.
const VARIANTS: usize = 3;

/// The working set: programs in popularity order and what the clients
/// send.
struct WorkingSet {
    progs: Vec<Prog>,
    catalog: Catalog,
}

/// What the client threads share: each program's request variants and
/// reference residual.
struct Catalog {
    requests: Vec<Vec<CompileRequest>>,
    /// `Pipeline::compile(..).to_source()` per program.
    residuals: Vec<String>,
    /// Cumulative 1/rank popularity weights, parallel to `requests`.
    cumulative: Vec<f64>,
}

/// The same program in other layouts: the reader's canonical form, and
/// a commented, re-indented copy.
fn variants(source: &str) -> Result<Vec<String>, String> {
    let canon = canonical_source(source).map_err(|e| e.to_string())?;
    let spaced = format!(";; layout variant\n{}\n", source.replace('\n', "\n\n    "));
    Ok(vec![source.to_string(), canon, spaced])
}

fn setup(dir: &Path) -> Result<(WorkingSet, f64), String> {
    let mut generated = pool(|cs| cs.len() >= GENERATED)?
        .into_iter()
        .enumerate()
        .peekable();
    let mut fig8 = SUITE.iter().peekable();
    let mut progs = Vec::with_capacity(SUITE.len() + GENERATED);
    let mut cc_s = 0.0;
    // Fig. 8 programs sit at every third rank from rank 1 and generated
    // programs fill the rest.  The ranks are fixed, so the cost of the
    // mix does not depend on the seed, which drives the request streams.
    while fig8.peek().is_some() || generated.peek().is_some() {
        let fig8_turn = progs.len() % 3 == 1 || generated.peek().is_none();
        let p = match fig8.next_if(|_| fig8_turn) {
            Some(b) => Prog::new(
                b.name,
                b.source,
                b.entry,
                b.test_inputs(),
                Limits::default(),
            )?,
            None => {
                let (i, a) = generated.next().expect("one of the two is left");
                let case = a.case;
                let mut p = Prog::new(
                    &format!("gen{i}"),
                    &case.source,
                    &case.entry,
                    case.args,
                    oracle_limits(),
                )?;
                cc_s += p.build_c(dir)?;
                p
            }
        };
        progs.push(p);
    }
    let opts = CompileOptions::default();
    let mut requests = Vec::with_capacity(progs.len());
    for p in &progs {
        let texts = variants(&p.source)?;
        let fps: Vec<_> = texts
            .iter()
            .map(|t| fingerprint(t, &p.entry, &opts).map_err(|e| format!("{}: {e}", p.name)))
            .collect::<Result<_, _>>()?;
        if fps.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!(
                "{}: layout variants do not share a fingerprint",
                p.name
            ));
        }
        requests.push(
            texts
                .iter()
                .enumerate()
                .map(|(v, t)| CompileRequest::new(&format!("{}#{v}", p.name), t, &p.entry))
                .collect(),
        );
    }
    let mut total = 0.0;
    let cumulative = (0..progs.len())
        .map(|r| {
            total += 1.0 / (r + 1) as f64;
            total
        })
        .collect();
    let residuals = progs.iter().map(|p| p.residual.clone()).collect();
    Ok((
        WorkingSet {
            progs,
            catalog: Catalog {
                requests,
                residuals,
                cumulative,
            },
        },
        cc_s,
    ))
}

/// How a request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    WarmMiss,
    ColdMiss,
    Rejected,
}

/// One client-measured request.
struct Sample {
    ms: f64,
    kind: Kind,
    /// The residual is byte-identical to a direct `Pipeline::compile`.
    ok: bool,
    variant: usize,
}

impl Catalog {
    fn pick(&self, rng: &mut Rng) -> (usize, usize) {
        let total = *self.cumulative.last().expect("non-empty working set");
        let u = rng.below(1 << 53) as f64 / (1u64 << 53) as f64 * total;
        let key = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.requests.len() - 1);
        (key, rng.below(VARIANTS as u64) as usize)
    }

    /// Sends one request and classifies the reply.
    fn request(
        &self,
        server: &Server,
        key: usize,
        variant: usize,
        tr: Option<(&mut Tracer, u64, u32)>,
    ) -> (Sample, f64) {
        let req = &self.requests[key][variant];
        let mut fp_us = 0.0;
        let mut spans = None;
        if let Some((tr, id, client)) = tr {
            let top = tr.open("serve.request", &req.name);
            tr.tag_request(top, id, client);
            let f = tr.open("serve.fingerprint", &req.name);
            std::hint::black_box(fingerprint(&req.source, &req.entry, &req.opts).ok());
            fp_us = tr.close(f) * 1e3;
            let s = tr.open("serve.serve", &req.name);
            spans = Some((tr, top, s));
        }
        let t0 = Instant::now();
        let resp = server.serve(std::slice::from_ref(req));
        let ms = ms_since(t0);
        if let Some((tr, top, s)) = spans {
            tr.close(s);
            tr.close(top);
        }
        let resp = resp.first();
        let kind = match resp.map(|r| &r.outcome) {
            Some(Served::Hit(_)) => Kind::Hit,
            Some(Served::Compiled {
                warm_started: true, ..
            }) => Kind::WarmMiss,
            Some(Served::Compiled {
                warm_started: false,
                ..
            }) => Kind::ColdMiss,
            _ => Kind::Rejected,
        };
        let ok = resp.and_then(|r| r.residual_source()) == Some(self.residuals[key].as_str());
        (
            Sample {
                ms,
                kind,
                ok,
                variant,
            },
            fp_us,
        )
    }

    /// Closed-loop clients until `until`; spans when `traced`.  Returns
    /// every client's samples, fingerprint times and (when traced) spans.
    fn clients(
        &self,
        server: &Server,
        seed: u64,
        until: Instant,
        traced: bool,
    ) -> (Vec<Sample>, Vec<f64>, Vec<Tracer>) {
        let origin = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut rng = Rng::new(seed ^ (0x5e57e_u64 << 8) ^ u64::from(c));
                        let mut tr = traced.then(|| Tracer::new(origin));
                        let (mut samples, mut fps) = (Vec::new(), Vec::new());
                        let mut id = 0u64;
                        while Instant::now() < until {
                            let (key, variant) = self.pick(&mut rng);
                            let (s, fp_us) =
                                self.request(server, key, variant, tr.as_mut().map(|t| (t, id, c)));
                            samples.push(s);
                            fps.push(fp_us);
                            id += 1;
                        }
                        (samples, fps, tr)
                    })
                })
                .collect();
            let (mut samples, mut fps, mut tracers) = (Vec::new(), Vec::new(), Vec::new());
            for h in handles {
                let (s, f, t) = h.join().expect("client thread panicked");
                samples.extend(s);
                fps.extend(f);
                tracers.extend(t);
            }
            (samples, fps, tracers)
        })
    }
}

fn new_server() -> Server {
    Server::new(ServerConfig {
        threads: 1,
        capacity: CAPACITY,
        limits: Limits::default(),
    })
}

/// Fills the cache to its steady state with one client before timing.
fn warm_up(cat: &Catalog, server: &Server, seed: u64, tally: &mut Tally) {
    let mut rng = Rng::new(seed ^ 0xa11);
    for _ in 0..2 * cat.requests.len() {
        let (key, variant) = cat.pick(&mut rng);
        let (s, _) = cat.request(server, key, variant, None);
        tally.record(s.ok);
    }
}

/// Checks that the measured phase saw every cache outcome.
fn coverage(samples: &[Sample], evictions: u64) -> bool {
    let count = |k: Kind| samples.iter().filter(|s| s.kind == k).count();
    let variant_hits = samples
        .iter()
        .filter(|s| s.kind == Kind::Hit && s.variant != 0)
        .count();
    let (hits, warm, cold) = (
        count(Kind::Hit),
        count(Kind::WarmMiss),
        count(Kind::ColdMiss),
    );
    eprintln!(
        "serve-mix: {} requests: {hits} hits ({variant_hits} on layout variants), {warm} warm misses, {cold} cold misses, {evictions} evictions",
        samples.len()
    );
    let ok = hits > 0 && variant_hits > 0 && warm > 0 && cold > 0 && evictions > 0;
    if !ok {
        eprintln!("serve-mix: an outcome class is missing");
    }
    ok
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create("serve-mix")?;
    let ((ws, cc_s), setup_s) = setups(args, || setup(&work.0))?;
    let mut tally = Tally::default();
    if args.trace {
        let (rounds, checks_passed) = traced(args, &ws, cc_s, &mut tally)?;
        return Ok(Outcome {
            tally,
            checks_passed,
            metrics: per_layer(&rounds, tally),
        });
    }
    let server = new_server();
    warm_up(&ws.catalog, &server, args.seed, &mut tally);
    let before = server.stats();
    let t0 = Instant::now();
    let (samples, _, _) = ws
        .catalog
        .clients(&server, args.seed, deadline(args, 0.75), false);
    let wall_s = t0.elapsed().as_secs_f64();
    let evictions = server.stats().evictions - before.evictions;
    let checks_passed = coverage(&samples, evictions);
    let good: Vec<&Sample> = samples.iter().filter(|s| tally.record(s.ok)).collect();
    let latency: Vec<f64> = good.iter().map(|s| s.ms).collect();
    let compiles: Vec<f64> = good
        .iter()
        .filter(|s| matches!(s.kind, Kind::WarmMiss | Kind::ColdMiss))
        .map(|s| s.ms)
        .collect();
    // The residuals a client would run: every program on the VM, the
    // generated ones also as C.
    let runs = measure(
        &ws.progs,
        deadline(args, 0.25),
        Mix {
            compiles: 0,
            vm_runs: 1,
            c_runs: 1,
        },
        &mut tally,
    );
    let metrics = end_to_end(&EndToEnd {
        setup_s,
        compile: &compiles,
        run_vm: &runs.vm_passes,
        run_c: &runs.c_passes,
        c_bytes: ws.progs.iter().map(|p| p.c.size_bytes()).sum(),
        latency: &latency,
        throughput_rps: latency.len() as f64 / wall_s,
    })?;
    Ok(Outcome {
        tally,
        checks_passed,
        metrics,
    })
}

/// The traced run: half the time in rounds of the composed layer-by-layer
/// compile of the working set (beside an untraced pass, for the overhead
/// ratio) and a VM pass; half in traced client loops whose request spans
/// carry the request and client ids, with fingerprint and serve children.
fn traced(
    args: &Args,
    ws: &WorkingSet,
    cc_s: f64,
    tally: &mut Tally,
) -> Result<(Rounds, bool), String> {
    let mut rounds = Rounds::default();
    rounds.set("backend-c.cc_s", cc_s);
    record_vm_counts(&ws.progs, &mut rounds)?;
    let mut tr = Tracer::new(Instant::now());
    let until = deadline(args, 0.5);
    while Instant::now() < until {
        traced_round(&mut tr, &mut rounds, &ws.progs, tally)?;
        rounds.end_round();
    }

    let server = new_server();
    warm_up(&ws.catalog, &server, args.seed, tally);
    let before = server.stats();
    let (samples, fps, tracers) = ws
        .catalog
        .clients(&server, args.seed, deadline(args, 0.5), true);
    let after = server.stats();
    for t in tracers {
        tr.absorb(t);
    }
    let checks_passed = coverage(&samples, after.evictions - before.evictions);
    for s in &samples {
        tally.record(s.ok);
    }
    let p50 = |k: Kind| {
        let xs: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == k && s.ok)
            .map(|s| s.ms)
            .collect();
        median(&xs).unwrap_or(0.0)
    };
    rounds.set("serve.hit_p50_ms", p50(Kind::Hit));
    rounds.set("serve.warm_miss_p50_ms", p50(Kind::WarmMiss));
    rounds.set("serve.cold_miss_p50_ms", p50(Kind::ColdMiss));
    rounds.set("serve.fingerprint_us", median(&fps).unwrap_or(0.0));
    let lookups = (after.lookups - before.lookups).max(1);
    rounds.set(
        "serve.hit_ratio",
        (after.hits - before.hits) as f64 / lookups as f64,
    );
    rounds.set(
        "serve.evictions",
        (after.evictions - before.evictions) as f64,
    );
    rounds.set(
        "serve.warm_starts",
        (after.warm_starts - before.warm_starts) as f64,
    );
    crate::write_spans(args, &tr)?;
    Ok((rounds, checks_passed))
}
