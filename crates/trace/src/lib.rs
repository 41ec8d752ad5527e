//! pe-trace: the pipeline's observability layer.
//!
//! The paper's claims are quantitative-behavioral — memoization bounds
//! specialization, The Trick bounds code duplication, unfolding does
//! the constant propagation — so the pipeline emits three kinds of
//! telemetry through one [`Sink`] trait:
//!
//! * **Spans** ([`Phase`]): one open/close pair per pipeline phase
//!   (read, parse, desugar, cfa, bta, specialize, post, flow, verify,
//!   vm-load, emit-c, vm-run) with monotonic nanosecond durations and
//!   parent nesting by depth.
//! * **Counters** ([`Counter`]): monotone event totals from the
//!   specializers (memo lookups/hits/misses, unfold steps,
//!   generalizations, widenings, Trick dispatches/arms, residual
//!   procedure and node counts), the pe-flow optimizer (copies
//!   propagated, dead bindings, arms folded, moves elided, CFG
//!   nodes/edges) and the run-time engines (dispatch
//!   steps, allocations, calls).
//! * **Gauges** ([`Gauge`]): point-in-time snapshots of governor
//!   meters (fuel, heap, peak call depth), emitted when an engine
//!   traps so every `Trap` carries the metrics at trap time.
//!
//! The default sink is [`NullSink`]: every method is an inlined no-op
//! and [`Sink::enabled`] returns `false`, so instrumented code can
//! skip even the cost of assembling event data.  Hot loops never call
//! the sink per event — engines accumulate into plain integers (their
//! existing fuel/stats counters) and flush totals once per run.
//!
//! The crate is dependency-free and std-only by design: it sits below
//! every other crate in the workspace.

use std::fmt;
use std::io::Write;
use std::time::Instant;

pub mod jsonl;
pub mod report;

/// A pipeline phase, the unit of span attribution.
///
/// Phases are coarse on purpose: one span per phase per compile, so a
/// report's per-phase durations sum to ≈ the end-to-end wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reading source text into S-expressions.
    Read,
    /// Parsing S-expressions into the surface AST (Fig. 2).
    Parse,
    /// Desugaring into the tail form (Fig. 5).
    Desugar,
    /// Control-flow + generalization pre-analyses of the specializer.
    Cfa,
    /// Size-change termination analysis (pe-sct).
    Sct,
    /// Binding-time analysis (the Unmix offline path).
    Bta,
    /// The specialization loop proper.
    Specialize,
    /// Residual post-processing (inlining, renaming).
    Post,
    /// Dataflow optimization of the residual program (pe-flow).
    Flow,
    /// Static verification of the residual program.
    Verify,
    /// Loading S₀ into the VM (resolver + code layout).
    VmLoad,
    /// Emitting the §5.1 C translation.
    EmitC,
    /// Executing on the VM.
    VmRun,
    /// One pe-siege robustness case: generation, differential oracle,
    /// and chaos ladder for a single subject program.
    Siege,
    /// One pe-serve compile request: fingerprinting, cache lookup, and
    /// (on a miss) the full compile pipeline.
    Serve,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 15] = [
        Phase::Read,
        Phase::Parse,
        Phase::Desugar,
        Phase::Cfa,
        Phase::Sct,
        Phase::Bta,
        Phase::Specialize,
        Phase::Post,
        Phase::Flow,
        Phase::Verify,
        Phase::VmLoad,
        Phase::EmitC,
        Phase::VmRun,
        Phase::Siege,
        Phase::Serve,
    ];

    /// The stable snake/kebab-case name used in JSONL and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Read => "read",
            Phase::Parse => "parse",
            Phase::Desugar => "desugar",
            Phase::Cfa => "cfa",
            Phase::Sct => "sct",
            Phase::Bta => "bta",
            Phase::Specialize => "specialize",
            Phase::Post => "post",
            Phase::Flow => "flow",
            Phase::Verify => "verify",
            Phase::VmLoad => "vm-load",
            Phase::EmitC => "emit-c",
            Phase::VmRun => "vm-run",
            Phase::Siege => "siege",
            Phase::Serve => "serve",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A monotone event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Specialization-point memo-table lookups (§4.2).
    MemoLookups,
    /// Lookups answered from the memo table.
    MemoHits,
    /// Lookups that seeded a new pending specialization.
    MemoMisses,
    /// Call unfoldings performed in place of residual calls.
    UnfoldSteps,
    /// Generalization firings (§4.5): a description replaced by a
    /// strictly less static one.
    Generalizations,
    /// Widening firings: bounded-static-variation caps, prefix caps,
    /// and context-stack flushes that keep descriptions finite —
    /// discovered dynamically, at points pe-sct did not flag.
    Widenings,
    /// Generalizations pre-annotated by the termination analysis:
    /// unbounded slots generalized on sight and stack flushes at
    /// statically anticipated labels.
    EagerGeneralizations,
    /// Size-change graphs built from syntactic call edges (pe-sct).
    SctGraphs,
    /// Graph compositions performed closing the size-change set.
    SctCompositions,
    /// Procedures classified `bounded` by pe-sct.
    SctBounded,
    /// Procedures classified `unbounded` by pe-sct.
    SctUnbounded,
    /// Procedures classified `unknown` by pe-sct.
    SctUnknown,
    /// Programs refused before specialization because pe-sct proved
    /// divergence on every input (0 or 1 per compile).
    SctEarlyRejects,
    /// The-Trick dispatch expansions (one per dispatched call site).
    TrickDispatches,
    /// Total arms materialized across all Trick dispatches.
    TrickArms,
    /// Procedures in the residual S₀ program.
    ResidualProcs,
    /// Syntax nodes in the residual S₀ program.
    ResidualNodes,
    /// Variable occurrences replaced by known constants (pe-flow
    /// copy/constant propagation).
    CopiesPropagated,
    /// Dead parameter bindings eliminated by interprocedural liveness.
    DeadBindings,
    /// Dispatch arms folded away by closure-label reachability.
    ArmsFolded,
    /// Identity global-parameter moves elided by the C backend.
    MovesElided,
    /// Control-flow-graph nodes of the final residual program, counted
    /// from its body trees: one entry per procedure plus one per tail
    /// expression.
    CfgNodes,
    /// Control-flow-graph edges of the final residual program: one
    /// fewer than each procedure's nodes.
    CfgEdges,
    /// VM dispatch steps.
    VmSteps,
    /// VM heap cells allocated.
    VmAllocs,
    /// VM procedure calls.
    VmCalls,
    /// Interpreter/`core::eval` evaluation steps.
    EvalSteps,
    /// Interpreter/`core::eval` heap cells allocated.
    EvalAllocs,
    /// pe-siege: subject programs put through the oracle (generated,
    /// mutated, and corpus cases alike).
    SiegeCases,
    /// pe-siege: hostile mutants grafted onto generated programs.
    SiegeMutants,
    /// pe-siege: individual engine executions across all cases.
    SiegeEngineRuns,
    /// pe-siege: structured traps observed across all engine runs.
    SiegeTraps,
    /// pe-siege: oracle disagreements (value mismatches, class
    /// mismatches, panics) — each one is a finding.
    SiegeDisagreements,
    /// pe-siege: chaos budget-ladder executions.
    SiegeLadderRuns,
    /// pe-siege: accepted shrink steps while minimizing a finding.
    SiegeShrinkSteps,
    /// pe-serve: compile requests handled (cached and compiled alike).
    ServeRequests,
    /// pe-serve: residual-cache lookups answered from the cache.
    CacheHits,
    /// pe-serve: residual-cache lookups that required a compile.
    CacheMisses,
    /// pe-serve: cache entries evicted to stay within capacity.
    CacheEvictions,
    /// pe-serve: compiles seeded from a prior memo-table snapshot
    /// instead of starting cold.
    WarmStarts,
}

impl Counter {
    /// All counters, in report order.
    pub const ALL: [Counter; 40] = [
        Counter::MemoLookups,
        Counter::MemoHits,
        Counter::MemoMisses,
        Counter::UnfoldSteps,
        Counter::Generalizations,
        Counter::Widenings,
        Counter::EagerGeneralizations,
        Counter::SctGraphs,
        Counter::SctCompositions,
        Counter::SctBounded,
        Counter::SctUnbounded,
        Counter::SctUnknown,
        Counter::SctEarlyRejects,
        Counter::TrickDispatches,
        Counter::TrickArms,
        Counter::ResidualProcs,
        Counter::ResidualNodes,
        Counter::CopiesPropagated,
        Counter::DeadBindings,
        Counter::ArmsFolded,
        Counter::MovesElided,
        Counter::CfgNodes,
        Counter::CfgEdges,
        Counter::VmSteps,
        Counter::VmAllocs,
        Counter::VmCalls,
        Counter::EvalSteps,
        Counter::EvalAllocs,
        Counter::SiegeCases,
        Counter::SiegeMutants,
        Counter::SiegeEngineRuns,
        Counter::SiegeTraps,
        Counter::SiegeDisagreements,
        Counter::SiegeLadderRuns,
        Counter::SiegeShrinkSteps,
        Counter::ServeRequests,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheEvictions,
        Counter::WarmStarts,
    ];

    /// The stable snake_case name used in JSONL and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::MemoLookups => "memo_lookups",
            Counter::MemoHits => "memo_hits",
            Counter::MemoMisses => "memo_misses",
            Counter::UnfoldSteps => "unfold_steps",
            Counter::Generalizations => "generalizations",
            Counter::Widenings => "widenings",
            Counter::EagerGeneralizations => "eager_generalizations",
            Counter::SctGraphs => "sct_graphs",
            Counter::SctCompositions => "sct_compositions",
            Counter::SctBounded => "sct_bounded",
            Counter::SctUnbounded => "sct_unbounded",
            Counter::SctUnknown => "sct_unknown",
            Counter::SctEarlyRejects => "sct_early_rejects",
            Counter::TrickDispatches => "trick_dispatches",
            Counter::TrickArms => "trick_arms",
            Counter::ResidualProcs => "residual_procs",
            Counter::ResidualNodes => "residual_nodes",
            Counter::CopiesPropagated => "copies_propagated",
            Counter::DeadBindings => "dead_bindings",
            Counter::ArmsFolded => "arms_folded",
            Counter::MovesElided => "moves_elided",
            Counter::CfgNodes => "cfg_nodes",
            Counter::CfgEdges => "cfg_edges",
            Counter::VmSteps => "vm_steps",
            Counter::VmAllocs => "vm_allocs",
            Counter::VmCalls => "vm_calls",
            Counter::EvalSteps => "eval_steps",
            Counter::EvalAllocs => "eval_allocs",
            Counter::SiegeCases => "siege_cases",
            Counter::SiegeMutants => "siege_mutants",
            Counter::SiegeEngineRuns => "siege_engine_runs",
            Counter::SiegeTraps => "siege_traps",
            Counter::SiegeDisagreements => "siege_disagreements",
            Counter::SiegeLadderRuns => "siege_ladder_runs",
            Counter::SiegeShrinkSteps => "siege_shrink_steps",
            Counter::ServeRequests => "serve_requests",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheEvictions => "cache_evictions",
            Counter::WarmStarts => "warm_starts",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A point-in-time governor meter snapshot, emitted at trap time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Fuel (evaluation steps) consumed so far.
    FuelUsed,
    /// Heap cells accounted so far.
    HeapUsed,
    /// High-water call depth reached.
    CallDepth,
    /// Requests currently being handled by the compile service.
    InFlight,
    /// High-water in-flight request count over a service batch.
    InFlightPeak,
}

impl Gauge {
    /// All gauges, in report order.
    pub const ALL: [Gauge; 5] = [
        Gauge::FuelUsed,
        Gauge::HeapUsed,
        Gauge::CallDepth,
        Gauge::InFlight,
        Gauge::InFlightPeak,
    ];

    /// The stable snake_case name used in JSONL and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::FuelUsed => "fuel_used",
            Gauge::HeapUsed => "heap_used",
            Gauge::CallDepth => "call_depth",
            Gauge::InFlight => "in_flight",
            Gauge::InFlightPeak => "in_flight_peak",
        }
    }
}

impl fmt::Display for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The number of buckets in every published histogram.  Fixed so that
/// histograms from different workers, runs, and processes merge by
/// element-wise addition with no negotiation.
pub const HIST_BUCKETS: usize = 64;

/// A named latency/value distribution published as a log-bucketed
/// histogram (see `pe-prof`'s `Histogram` for the bucketing rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Serve latency for artifact cache hits (ns).
    ServeHitNs,
    /// Serve latency for warm-started compile misses (ns).
    ServeWarmMissNs,
    /// Serve latency for cold compile misses (ns).
    ServeColdMissNs,
    /// Time a request waited in the service queue before a worker
    /// picked it up (ns).
    ServeQueueNs,
}

impl Hist {
    /// All histogram ids, in report order.
    pub const ALL: [Hist; 4] = [
        Hist::ServeHitNs,
        Hist::ServeWarmMissNs,
        Hist::ServeColdMissNs,
        Hist::ServeQueueNs,
    ];

    /// The stable snake_case name used in JSONL and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Hist::ServeHitNs => "serve_hit_ns",
            Hist::ServeWarmMissNs => "serve_warm_miss_ns",
            Hist::ServeColdMissNs => "serve_cold_miss_ns",
            Hist::ServeQueueNs => "serve_queue_ns",
        }
    }
}

impl fmt::Display for Hist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded trace event, as captured by [`CollectingSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A phase began, at the given nesting depth (0 = top level).
    SpanOpen {
        /// The phase that opened.
        phase: Phase,
        /// Nesting depth at open time.
        depth: u32,
    },
    /// A phase ended after `dur_ns` monotonic nanoseconds.
    SpanClose {
        /// The phase that closed.
        phase: Phase,
        /// Nesting depth the span was opened at.
        depth: u32,
        /// Monotonic duration in nanoseconds.
        dur_ns: u64,
    },
    /// A counter advanced by `delta`.
    Counter {
        /// Which counter.
        counter: Counter,
        /// The (non-negative) increment.
        delta: u64,
    },
    /// A gauge snapshot.
    Gauge {
        /// Which gauge.
        gauge: Gauge,
        /// The snapshotted value.
        value: u64,
    },
    /// A cost-attribution row: within `phase`, the item named `label`
    /// (typically a residual procedure) accounted for `ns` of the
    /// phase's wall time and `units` of its deterministic work measure
    /// (AST nodes, VM block entries, …).
    Attr {
        /// The phase the cost belongs to.
        phase: Phase,
        /// What the cost is attributed to.
        label: String,
        /// Attributed wall time (ns); 0 when only units are meaningful.
        ns: u64,
        /// Deterministic work units (nodes, entries, rewrites, …).
        units: u64,
    },
    /// A published histogram snapshot: [`HIST_BUCKETS`] log-bucket
    /// counts for the named distribution.
    Hist {
        /// Which distribution.
        hist: Hist,
        /// Per-bucket sample counts.
        buckets: Box<[u64; HIST_BUCKETS]>,
    },
}

impl Event {
    /// The event with any wall-clock measurement zeroed, for comparing
    /// two runs of the same deterministic pipeline.
    #[must_use]
    pub fn redacted(&self) -> Event {
        match self {
            Event::SpanClose { phase, depth, .. } => Event::SpanClose {
                phase: *phase,
                depth: *depth,
                dur_ns: 0,
            },
            Event::Attr { phase, label, units, .. } => Event::Attr {
                phase: *phase,
                label: label.clone(),
                ns: 0,
                units: *units,
            },
            other => other.clone(),
        }
    }
}

/// Receiver for trace events.
///
/// Implementations must be cheap to call; the engines only call them
/// at phase boundaries and run boundaries, never per evaluation step.
pub trait Sink {
    /// False when events will be discarded, letting instrumented code
    /// skip assembling them.  [`NullSink`] returns false; everything
    /// else defaults to true.
    fn enabled(&self) -> bool {
        true
    }

    /// A phase began.
    fn span_open(&mut self, phase: Phase);

    /// The most recently opened phase ended after `dur_ns` monotonic
    /// nanoseconds.  Spans close strictly LIFO.
    fn span_close(&mut self, phase: Phase, dur_ns: u64);

    /// Advance `counter` by `delta` (deltas of 0 may be elided).
    fn counter(&mut self, counter: Counter, delta: u64);

    /// Record a point-in-time `gauge` snapshot.
    fn gauge(&mut self, gauge: Gauge, value: u64);

    /// Record a cost-attribution row (see [`Event::Attr`]).  Defaults
    /// to a no-op so existing sinks keep compiling; recording sinks
    /// override it.
    fn attr(&mut self, phase: Phase, label: &str, ns: u64, units: u64) {
        let _ = (phase, label, ns, units);
    }

    /// Record a histogram snapshot (see [`Event::Hist`]).  Defaults to
    /// a no-op, like [`Sink::attr`].
    fn hist(&mut self, hist: Hist, buckets: &[u64; HIST_BUCKETS]) {
        let _ = (hist, buckets);
    }
}

/// The default sink: discards everything at zero cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn span_open(&mut self, _phase: Phase) {}

    #[inline(always)]
    fn span_close(&mut self, _phase: Phase, _dur_ns: u64) {}

    #[inline(always)]
    fn counter(&mut self, _counter: Counter, _delta: u64) {}

    #[inline(always)]
    fn gauge(&mut self, _gauge: Gauge, _value: u64) {}

    #[inline(always)]
    fn attr(&mut self, _phase: Phase, _label: &str, _ns: u64, _units: u64) {}

    #[inline(always)]
    fn hist(&mut self, _hist: Hist, _buckets: &[u64; HIST_BUCKETS]) {}
}

/// A sink that records every event in order, for tests and reports.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Vec<Event>,
    depth: u32,
}

impl CollectingSink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// The recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The recorded events with durations zeroed, for determinism
    /// comparisons across runs.
    #[must_use]
    pub fn redacted_events(&self) -> Vec<Event> {
        self.events.iter().map(Event::redacted).collect()
    }

    /// Checks that spans open and close in balanced LIFO order and
    /// that recorded depths are consistent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check_balanced(&self) -> Result<(), String> {
        let mut stack: Vec<Phase> = Vec::new();
        for ev in &self.events {
            match ev {
                Event::SpanOpen { phase, depth } => {
                    if *depth as usize != stack.len() {
                        return Err(format!(
                            "span {phase} opened at depth {depth}, expected {}",
                            stack.len()
                        ));
                    }
                    stack.push(*phase);
                }
                Event::SpanClose { phase, depth, .. } => match stack.pop() {
                    Some(open) if open == *phase => {
                        if *depth as usize != stack.len() {
                            return Err(format!(
                                "span {phase} closed at depth {depth}, expected {}",
                                stack.len()
                            ));
                        }
                    }
                    Some(open) => {
                        return Err(format!("span {phase} closed while {open} was open"))
                    }
                    None => return Err(format!("span {phase} closed with no span open")),
                },
                Event::Counter { .. }
                | Event::Gauge { .. }
                | Event::Attr { .. }
                | Event::Hist { .. } => {}
            }
        }
        if let Some(open) = stack.pop() {
            return Err(format!("span {open} was never closed"));
        }
        Ok(())
    }

    /// Total recorded delta for `counter`.
    #[must_use]
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Counter { counter: c, delta } if *c == counter => Some(*delta),
                _ => None,
            })
            .sum()
    }

    /// The last recorded value for `gauge`, if any.
    #[must_use]
    pub fn gauge_last(&self, gauge: Gauge) -> Option<u64> {
        self.events.iter().rev().find_map(|e| match e {
            Event::Gauge { gauge: g, value } if *g == gauge => Some(*value),
            _ => None,
        })
    }

    /// Summed close durations for `phase` (nanoseconds).
    #[must_use]
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::SpanClose { phase: p, dur_ns, .. } if *p == phase => Some(*dur_ns),
                _ => None,
            })
            .sum()
    }

    /// Summed attributed nanoseconds for `phase` across all
    /// [`Event::Attr`] rows.
    #[must_use]
    pub fn attr_ns(&self, phase: Phase) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Attr { phase: p, ns, .. } if *p == phase => Some(*ns),
                _ => None,
            })
            .sum()
    }
}

impl Sink for CollectingSink {
    fn span_open(&mut self, phase: Phase) {
        self.events.push(Event::SpanOpen { phase, depth: self.depth });
        self.depth += 1;
    }

    fn span_close(&mut self, phase: Phase, dur_ns: u64) {
        self.depth = self.depth.saturating_sub(1);
        self.events.push(Event::SpanClose { phase, depth: self.depth, dur_ns });
    }

    fn counter(&mut self, counter: Counter, delta: u64) {
        if delta > 0 {
            self.events.push(Event::Counter { counter, delta });
        }
    }

    fn gauge(&mut self, gauge: Gauge, value: u64) {
        self.events.push(Event::Gauge { gauge, value });
    }

    fn attr(&mut self, phase: Phase, label: &str, ns: u64, units: u64) {
        self.events.push(Event::Attr { phase, label: label.to_string(), ns, units });
    }

    fn hist(&mut self, hist: Hist, buckets: &[u64; HIST_BUCKETS]) {
        self.events.push(Event::Hist { hist, buckets: Box::new(*buckets) });
    }
}

/// A sink that writes one JSON object per line to any [`Write`].
///
/// The schema is flat and stable (see [`jsonl`]):
///
/// ```json
/// {"type":"span_open","phase":"specialize","depth":1}
/// {"type":"span_close","phase":"specialize","depth":1,"dur_ns":12345}
/// {"type":"counter","name":"memo_hits","delta":17}
/// {"type":"gauge","name":"fuel_used","value":500000000}
/// {"type":"attr","phase":"specialize","label":"sl-eval-$3","ns":41000,"units":212}
/// {"type":"hist","name":"serve_hit_ns","count":12,"buckets":[0,0,3,...]}
/// ```
///
/// Write errors are sticky: the first one is kept and later events
/// are dropped, so instrumented engines never see I/O failures.
pub struct JsonlSink<W: Write> {
    out: W,
    depth: u32,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out, depth: 0, error: None }
    }

    /// Unwraps the writer, returning the first write error if any
    /// event was lost.
    ///
    /// # Errors
    ///
    /// The first sticky I/O error.
    pub fn finish(self) -> Result<W, std::io::Error> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }

    fn line(&mut self, s: &str) {
        if self.error.is_none() {
            if let Err(e) = writeln!(self.out, "{s}") {
                self.error = Some(e);
            }
        }
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn span_open(&mut self, phase: Phase) {
        let d = self.depth;
        self.line(&format!(
            "{{\"type\":\"span_open\",\"phase\":\"{}\",\"depth\":{d}}}",
            phase.name()
        ));
        self.depth += 1;
    }

    fn span_close(&mut self, phase: Phase, dur_ns: u64) {
        self.depth = self.depth.saturating_sub(1);
        let d = self.depth;
        self.line(&format!(
            "{{\"type\":\"span_close\",\"phase\":\"{}\",\"depth\":{d},\"dur_ns\":{dur_ns}}}",
            phase.name()
        ));
    }

    fn counter(&mut self, counter: Counter, delta: u64) {
        if delta > 0 {
            self.line(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"delta\":{delta}}}",
                counter.name()
            ));
        }
    }

    fn gauge(&mut self, gauge: Gauge, value: u64) {
        self.line(&format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}",
            gauge.name()
        ));
    }

    fn attr(&mut self, phase: Phase, label: &str, ns: u64, units: u64) {
        self.line(&format!(
            "{{\"type\":\"attr\",\"phase\":\"{}\",\"label\":\"{}\",\"ns\":{ns},\"units\":{units}}}",
            phase.name(),
            escape_json(label)
        ));
    }

    fn hist(&mut self, hist: Hist, buckets: &[u64; HIST_BUCKETS]) {
        let count: u64 = buckets.iter().sum();
        let mut body = String::with_capacity(HIST_BUCKETS * 3);
        for (i, b) in buckets.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&b.to_string());
        }
        self.line(&format!(
            "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{count},\"buckets\":[{body}]}}",
            hist.name()
        ));
    }
}

/// Escapes `"` and `\` for embedding in a JSON string — the only
/// escapes the flat schema (and its validator) supports.
fn escape_json(s: &str) -> String {
    if !s.contains(['"', '\\']) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// A pass-through sink that also accumulates per-phase durations,
/// counter totals, and last gauge values — the data behind
/// `CompileReport`.
pub struct Aggregator<'a> {
    inner: &'a mut dyn Sink,
    phases: Vec<(Phase, u64)>,
    counters: Vec<(Counter, u64)>,
    gauges: Vec<(Gauge, u64)>,
}

impl<'a> Aggregator<'a> {
    /// Wraps `inner`; every event is forwarded and aggregated.
    pub fn new(inner: &'a mut dyn Sink) -> Aggregator<'a> {
        Aggregator { inner, phases: Vec::new(), counters: Vec::new(), gauges: Vec::new() }
    }

    /// Per-phase summed durations (ns), in first-close order.
    #[must_use]
    pub fn phases(&self) -> &[(Phase, u64)] {
        &self.phases
    }

    /// Counter totals, in first-emission order.
    #[must_use]
    pub fn counters(&self) -> &[(Counter, u64)] {
        &self.counters
    }

    /// Last-seen gauge values, in first-emission order.
    #[must_use]
    pub fn gauges(&self) -> &[(Gauge, u64)] {
        &self.gauges
    }

    /// Consumes the aggregator, returning (phases, counters, gauges).
    #[must_use]
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (Vec<(Phase, u64)>, Vec<(Counter, u64)>, Vec<(Gauge, u64)>) {
        (self.phases, self.counters, self.gauges)
    }
}

impl Sink for Aggregator<'_> {
    /// As enabled as the sink it wraps: an aggregator over a disabled
    /// sink must not make the instrumented code pay for events.
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn span_open(&mut self, phase: Phase) {
        self.inner.span_open(phase);
    }

    fn span_close(&mut self, phase: Phase, dur_ns: u64) {
        match self.phases.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, ns)) => *ns += dur_ns,
            None => self.phases.push((phase, dur_ns)),
        }
        self.inner.span_close(phase, dur_ns);
    }

    fn counter(&mut self, counter: Counter, delta: u64) {
        if delta > 0 {
            match self.counters.iter_mut().find(|(c, _)| *c == counter) {
                Some((_, n)) => *n += delta,
                None => self.counters.push((counter, delta)),
            }
        }
        self.inner.counter(counter, delta);
    }

    fn gauge(&mut self, gauge: Gauge, value: u64) {
        match self.gauges.iter_mut().find(|(g, _)| *g == gauge) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((gauge, value)),
        }
        self.inner.gauge(gauge, value);
    }

    fn attr(&mut self, phase: Phase, label: &str, ns: u64, units: u64) {
        self.inner.attr(phase, label, ns, units);
    }

    fn hist(&mut self, hist: Hist, buckets: &[u64; HIST_BUCKETS]) {
        self.inner.hist(hist, buckets);
    }
}

/// A cloneable, thread-safe handle to one shared [`Sink`].
///
/// The compile service runs one pipeline per worker thread but reports
/// into a single stream; wrapping the stream's sink in a `SharedSink`
/// makes every event delivery atomic.  For [`JsonlSink`] specifically,
/// each event is written as one complete line *inside* the lock, so
/// concurrent workers can never interleave bytes mid-line.
///
/// Events from different workers still interleave at event granularity,
/// which would break span/depth validation if workers opened spans
/// directly on the shared stream.  Workers should instead record each
/// request into a private [`CollectingSink`] and publish the finished
/// group atomically with [`SharedSink::append`] — the published stream
/// is then a sequence of balanced per-request groups, exactly what the
/// [`jsonl`] validator accepts.
pub struct SharedSink<S: Sink>(std::sync::Arc<std::sync::Mutex<S>>);

impl<S: Sink> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(std::sync::Arc::clone(&self.0))
    }
}

impl<S: Sink> SharedSink<S> {
    /// Wraps `sink` for shared use.
    pub fn new(sink: S) -> SharedSink<S> {
        SharedSink(std::sync::Arc::new(std::sync::Mutex::new(sink)))
    }

    /// Publishes a batch of events under one lock acquisition, so the
    /// whole group lands contiguously in the shared stream.
    pub fn append(&self, events: &[Event]) {
        if let Ok(mut guard) = self.0.lock() {
            replay(&mut *guard, events);
        }
    }

    /// Runs `f` with exclusive access to the wrapped sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> Option<R> {
        self.0.lock().ok().map(|mut guard| f(&mut *guard))
    }

    /// Unwraps the sink if this is the last handle.
    pub fn try_unwrap(self) -> Option<S> {
        std::sync::Arc::try_unwrap(self.0).ok().and_then(|m| m.into_inner().ok())
    }
}

impl<S: Sink> Sink for SharedSink<S> {
    fn enabled(&self) -> bool {
        self.0.lock().map(|g| g.enabled()).unwrap_or(false)
    }

    fn span_open(&mut self, phase: Phase) {
        if let Ok(mut g) = self.0.lock() {
            g.span_open(phase);
        }
    }

    fn span_close(&mut self, phase: Phase, dur_ns: u64) {
        if let Ok(mut g) = self.0.lock() {
            g.span_close(phase, dur_ns);
        }
    }

    fn counter(&mut self, counter: Counter, delta: u64) {
        if let Ok(mut g) = self.0.lock() {
            g.counter(counter, delta);
        }
    }

    fn gauge(&mut self, gauge: Gauge, value: u64) {
        if let Ok(mut g) = self.0.lock() {
            g.gauge(gauge, value);
        }
    }

    fn attr(&mut self, phase: Phase, label: &str, ns: u64, units: u64) {
        if let Ok(mut g) = self.0.lock() {
            g.attr(phase, label, ns, units);
        }
    }

    fn hist(&mut self, hist: Hist, buckets: &[u64; HIST_BUCKETS]) {
        if let Ok(mut g) = self.0.lock() {
            g.hist(hist, buckets);
        }
    }
}

/// Replays recorded events into another sink, preserving order.  The
/// span timings are already measured, so close events carry their
/// recorded durations through unchanged.
pub fn replay(sink: &mut dyn Sink, events: &[Event]) {
    for ev in events {
        match ev {
            Event::SpanOpen { phase, .. } => sink.span_open(*phase),
            Event::SpanClose { phase, dur_ns, .. } => sink.span_close(*phase, *dur_ns),
            Event::Counter { counter, delta } => sink.counter(*counter, *delta),
            Event::Gauge { gauge, value } => sink.gauge(*gauge, *value),
            Event::Attr { phase, label, ns, units } => {
                sink.attr(*phase, label, *ns, *units);
            }
            Event::Hist { hist, buckets } => sink.hist(*hist, buckets),
        }
    }
}

/// An open span: holds the phase and its start instant.  Create with
/// [`begin`], finish with [`end`].  Dropping a timer without calling
/// [`end`] leaves the span unclosed — pair them along every path.
#[derive(Debug)]
pub struct SpanTimer {
    phase: Phase,
    start: Option<Instant>,
}

/// Opens a span for `phase` on `sink` and starts the clock.
///
/// When the sink is disabled this is a no-op returning an inert timer,
/// so the monotonic clock is never read on the NullSink path.
pub fn begin(sink: &mut dyn Sink, phase: Phase) -> SpanTimer {
    if !sink.enabled() {
        return SpanTimer { phase, start: None };
    }
    sink.span_open(phase);
    SpanTimer { phase, start: Some(Instant::now()) }
}

impl SpanTimer {
    /// Nanoseconds since [`begin`], or `None` when the sink was
    /// disabled (the clock is then never read).  Lets a phase attribute
    /// the time it measured while its span is still open.
    #[must_use]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.start.map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

/// Closes the span opened by [`begin`], reporting its duration, which
/// is also returned (`None` when the sink was disabled).
pub fn end(sink: &mut dyn Sink, timer: SpanTimer) -> Option<u64> {
    let dur = timer.elapsed_ns()?;
    sink.span_close(timer.phase, dur);
    Some(dur)
}

/// Emits the three governor gauges from raw meter readings — the
/// shared "metrics snapshot at trap time" helper for every engine.
pub fn trap_gauges(sink: &mut dyn Sink, fuel_used: u64, heap_used: u64, call_depth: u64) {
    if sink.enabled() {
        sink.gauge(Gauge::FuelUsed, fuel_used);
        sink.gauge(Gauge::HeapUsed, heap_used);
        sink.gauge(Gauge::CallDepth, call_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        let t = begin(&mut s, Phase::Specialize);
        assert!(t.start.is_none());
        end(&mut s, t);
    }

    #[test]
    fn collecting_sink_tracks_depth_and_balance() {
        let mut s = CollectingSink::new();
        let outer = begin(&mut s, Phase::Specialize);
        let inner = begin(&mut s, Phase::Post);
        s.counter(Counter::MemoHits, 3);
        end(&mut s, inner);
        end(&mut s, outer);
        assert!(s.check_balanced().is_ok());
        assert_eq!(s.counter_total(Counter::MemoHits), 3);
        assert_eq!(
            s.events()[0],
            Event::SpanOpen { phase: Phase::Specialize, depth: 0 }
        );
        assert_eq!(s.events()[1], Event::SpanOpen { phase: Phase::Post, depth: 1 });
        match s.events()[2] {
            Event::Counter { counter: Counter::MemoHits, delta: 3 } => {}
            ref e => panic!("unexpected event {e:?}"),
        }
    }

    #[test]
    fn unbalanced_spans_are_rejected() {
        let mut s = CollectingSink::new();
        s.span_open(Phase::Read);
        assert!(s.check_balanced().is_err());
        s.span_close(Phase::Parse, 1);
        assert!(s.check_balanced().is_err());
    }

    #[test]
    fn zero_deltas_are_elided() {
        let mut s = CollectingSink::new();
        s.counter(Counter::UnfoldSteps, 0);
        assert!(s.events().is_empty());
    }

    #[test]
    fn redaction_zeroes_durations_only() {
        let ev = Event::SpanClose { phase: Phase::Cfa, depth: 2, dur_ns: 99 };
        assert_eq!(
            ev.redacted(),
            Event::SpanClose { phase: Phase::Cfa, depth: 2, dur_ns: 0 }
        );
        let c = Event::Counter { counter: Counter::VmSteps, delta: 5 };
        assert_eq!(c.redacted(), c);
    }

    #[test]
    fn jsonl_sink_emits_stable_lines() {
        let mut s = JsonlSink::new(Vec::new());
        let t = begin(&mut s, Phase::Bta);
        s.counter(Counter::MemoLookups, 7);
        s.gauge(Gauge::HeapUsed, 42);
        end(&mut s, t);
        let buf = s.finish().expect("no I/O error on Vec");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"type\":\"span_open\",\"phase\":\"bta\",\"depth\":0}");
        assert_eq!(lines[1], "{\"type\":\"counter\",\"name\":\"memo_lookups\",\"delta\":7}");
        assert_eq!(lines[2], "{\"type\":\"gauge\",\"name\":\"heap_used\",\"value\":42}");
        assert!(lines[3].starts_with("{\"type\":\"span_close\",\"phase\":\"bta\",\"depth\":0,\"dur_ns\":"));
    }

    #[test]
    fn aggregator_sums_and_forwards() {
        let mut under = CollectingSink::new();
        let mut agg = Aggregator::new(&mut under);
        let t = begin(&mut agg, Phase::Specialize);
        agg.counter(Counter::UnfoldSteps, 2);
        agg.counter(Counter::UnfoldSteps, 3);
        agg.gauge(Gauge::FuelUsed, 10);
        agg.gauge(Gauge::FuelUsed, 20);
        end(&mut agg, t);
        assert_eq!(agg.counters(), &[(Counter::UnfoldSteps, 5)]);
        assert_eq!(agg.gauges(), &[(Gauge::FuelUsed, 20)]);
        assert_eq!(agg.phases().len(), 1);
        assert_eq!(agg.phases()[0].0, Phase::Specialize);
        drop(agg);
        assert!(under.check_balanced().is_ok());
        assert_eq!(under.counter_total(Counter::UnfoldSteps), 5);
    }

    #[test]
    fn shared_sink_appends_groups_atomically() {
        let shared = SharedSink::new(CollectingSink::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    let mut local = CollectingSink::new();
                    let t = begin(&mut local, Phase::Serve);
                    local.counter(Counter::CacheMisses, 1);
                    local.counter(Counter::ServeRequests, i + 1);
                    end(&mut local, t);
                    shared.append(local.events());
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let collected = shared.try_unwrap().expect("last handle");
        // Each group was published atomically, so the merged stream is
        // a sequence of balanced spans, never a cross-worker interleave.
        assert!(collected.check_balanced().is_ok());
        assert_eq!(collected.counter_total(Counter::CacheMisses), 4);
        assert_eq!(collected.counter_total(Counter::ServeRequests), 1 + 2 + 3 + 4);
    }

    #[test]
    fn shared_jsonl_lines_never_tear() {
        // Many workers hammering one JSONL stream: every line of the
        // result must still parse and validate in isolation (the
        // "concurrent reports don't interleave mid-line" guarantee).
        let shared = SharedSink::new(JsonlSink::new(Vec::new()));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let mut local = CollectingSink::new();
                        let t = begin(&mut local, Phase::Serve);
                        local.counter(Counter::CacheHits, 2);
                        end(&mut local, t);
                        shared.append(local.events());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let jsonl = shared.try_unwrap().expect("last handle");
        let buf = jsonl.finish().expect("no I/O error");
        let text = String::from_utf8(buf).expect("utf8 stream");
        let sum = jsonl::validate(&text).expect("stream validates");
        assert_eq!(sum.spans_opened, 8 * 50);
        assert_eq!(sum.counter("cache_hits"), 8 * 50 * 2);
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.name()), "duplicate phase name {}", p.name());
        }
        for c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
        }
        for g in Gauge::ALL {
            assert!(seen.insert(g.name()), "duplicate gauge name {}", g.name());
        }
        for h in Hist::ALL {
            assert!(seen.insert(h.name()), "duplicate hist name {}", h.name());
        }
    }

    #[test]
    fn attr_and_hist_round_trip_through_sinks() {
        let mut s = CollectingSink::new();
        s.attr(Phase::Specialize, "sl-eval-$3", 41_000, 212);
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[2] = 3;
        buckets[10] = 9;
        s.hist(Hist::ServeHitNs, &buckets);
        assert_eq!(s.attr_ns(Phase::Specialize), 41_000);
        assert_eq!(
            s.events()[0],
            Event::Attr {
                phase: Phase::Specialize,
                label: "sl-eval-$3".to_string(),
                ns: 41_000,
                units: 212
            }
        );
        // Redaction keeps labels and units, zeroes wall time.
        match s.events()[0].redacted() {
            Event::Attr { ns: 0, units: 212, .. } => {}
            ref e => panic!("unexpected redaction {e:?}"),
        }
        // Replay into a JSONL sink produces schema-valid lines.
        let mut j = JsonlSink::new(Vec::new());
        replay(&mut j, s.events());
        let text = String::from_utf8(j.finish().expect("vec")).expect("utf8");
        assert!(text.contains("\"type\":\"attr\""), "{text}");
        assert!(text.contains("\"type\":\"hist\""), "{text}");
        assert!(text.contains("\"count\":12"), "{text}");
        jsonl::validate(&text).expect("attr/hist lines validate");
    }
}
