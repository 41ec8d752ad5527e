//! The end-to-end compilation pipeline, tying every crate together:
//!
//! ```text
//! source ──parse──▶ surface AST ──desugar──▶ tail form (Fig. 5)
//!    ──specializing compiler (Fig. 7)──▶ S₀ ──▶ VM / C back end
//! ```
//!
//! plus the two §6 comparators: the interpreter family and the
//! Hobbit-like baseline.

use pe_core::{CompileOptions, MemoSnapshot, S0Program, SpecError};
use pe_frontend::{desugar, parse_program_positioned, DProgram, ParseError, Program};
use pe_hobbit::Hobbit;
use pe_interp::{Datum, InterpError, Limits};
use pe_trace::{Aggregator, Counter, NullSink, Phase, Sink};
use pe_vm::{Vm, VmStats};
use std::fmt;

/// Any error the pipeline can produce.
#[derive(Debug)]
pub enum PipelineError {
    /// Reading/parsing/validation failed.
    Parse(ParseError),
    /// Desugaring failed (programmatic ASTs only).
    Desugar(pe_frontend::DesugarError),
    /// Specialization failed.
    Spec(SpecError),
    /// The compiled program did not pass the S₀ well-formedness check.
    IllFormed(Vec<String>),
    /// Baseline compilation failed.
    Hobbit(pe_hobbit::HobError),
    /// VM compilation failed.
    Vm(pe_vm::VmError),
    /// Execution failed.
    Run(InterpError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
            PipelineError::Desugar(e) => write!(f, "{e}"),
            PipelineError::Spec(e) => write!(f, "{e}"),
            PipelineError::IllFormed(errs) => {
                write!(f, "ill-formed residual program: {}", errs.join("; "))
            }
            PipelineError::Hobbit(e) => write!(f, "{e}"),
            PipelineError::Vm(e) => write!(f, "{e}"),
            PipelineError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<SpecError> for PipelineError {
    fn from(e: SpecError) -> Self {
        PipelineError::Spec(e)
    }
}

impl From<InterpError> for PipelineError {
    fn from(e: InterpError) -> Self {
        PipelineError::Run(e)
    }
}

/// The outcome of [`Pipeline::compile_robust`]: either a loaded VM or a
/// marker that specialization was cut off by its resource budget and
/// the program should run interpreted instead.
#[derive(Debug)]
pub enum RobustExec {
    /// Specialization finished within budget; run compiled.
    Compiled(Box<Vm>),
    /// Specialization exhausted its budget or the termination analysis
    /// refused the program; run the tail interpreter (its fuel bounds a
    /// genuinely divergent run).
    Degraded {
        /// The error that stopped specialization.
        reason: SpecError,
    },
}

impl RobustExec {
    /// True when this outcome is the degraded (interpreted) fallback.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self, RobustExec::Degraded { .. })
    }
}

/// Everything a verified compilation produced: the residual program,
/// the verification report, the aggregated observability data, and the
/// memo snapshot when one was asked for.
///
/// Returned by [`Pipeline::compile_report`] and
/// [`Pipeline::compile_vm`].  Phase durations appear in the order the
/// phases finished; counters in the order first emitted.  Both stay
/// empty when the compile ran on a disabled sink.
#[derive(Debug)]
pub struct CompileReport {
    /// The compiled (and verified) residual S₀ program.
    pub s0: S0Program,
    /// The full verification report, warnings included.
    pub verify: pe_verify::Report,
    /// Wall-clock nanoseconds per pipeline phase.
    pub phases: Vec<(Phase, u64)>,
    /// Summed specializer/size counters.
    pub counters: Vec<(Counter, u64)>,
    /// The specializer's memo table, for warm-starting a later compile
    /// of the same program (see [`Pipeline::compile_report`]).
    pub snapshot: Option<MemoSnapshot>,
}

impl CompileReport {
    /// Total nanoseconds across all recorded phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|&(_, ns)| ns).sum()
    }

    /// The summed value of `counter`, zero if never emitted.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.iter().find(|&&(c, _)| c == counter).map_or(0, |&(_, n)| n)
    }
}

/// A parsed and desugared program, ready for any engine.
pub struct Pipeline {
    /// The surface program (Fig. 2).
    pub program: Program,
    /// The desugared tail form (Fig. 5).
    pub dprog: DProgram,
}

impl Pipeline {
    /// Parses and desugars source text.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn new(source: &str) -> Result<Pipeline, PipelineError> {
        Pipeline::new_traced(source, &mut NullSink)
    }

    /// Like [`Pipeline::new`], emitting `read`, `parse`, and `desugar`
    /// phase spans to `sink`.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn new_traced(source: &str, sink: &mut dyn Sink) -> Result<Pipeline, PipelineError> {
        let t = pe_trace::begin(sink, Phase::Read);
        let forms = pe_sexpr::read_positioned(source);
        pe_trace::end(sink, t);
        let forms = forms.map_err(|e| PipelineError::Parse(ParseError::Read(e)))?;
        let (exprs, poss): (Vec<pe_sexpr::Sexpr>, Vec<pe_sexpr::Pos>) =
            forms.into_iter().unzip();
        let t = pe_trace::begin(sink, Phase::Parse);
        let program = parse_program_positioned(&exprs, &poss);
        pe_trace::end(sink, t);
        let program = program?;
        let t = pe_trace::begin(sink, Phase::Desugar);
        let dprog = desugar(&program).map_err(PipelineError::Desugar);
        pe_trace::end(sink, t);
        Ok(Pipeline { program, dprog: dprog? })
    }

    /// Compiles `entry` to S₀ and verifies it (see
    /// [`Pipeline::compile_report`]).
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile(&self, entry: &str, opts: &CompileOptions) -> Result<S0Program, PipelineError> {
        self.compile_report(entry, opts, None, false, &mut NullSink).map(|r| r.s0)
    }

    /// Compiles `entry` to S₀ and verifies it with every
    /// [`pe_verify`] pass: well-formedness, closure-shape analysis, the
    /// language-preservation certificate, the residual-quality lints,
    /// flow, and pass 7 (termination: the specializer's widening log
    /// audited against the size-change verdicts).  Error-severity
    /// findings abort compilation; warnings come back in the report.
    ///
    /// Phase spans, specializer counters and cost attribution stream to
    /// `sink`; when it is enabled, the report also aggregates the phase
    /// times and counter totals.  A disabled sink reads no clock and
    /// aggregates nothing.
    ///
    /// `warm` seeds the specializer from a snapshot of an earlier
    /// compile of the *same* program with the same options, and
    /// `snapshot` asks for a fresh one in [`CompileReport::snapshot`]
    /// (see [`pe_core::run`]).  Callers own snapshot validity: pe-serve
    /// keys snapshots by the content fingerprint of (canonical source,
    /// options), which is the only sound cache key.  Verification runs
    /// in full either way — a warm result is held to exactly the same
    /// passes as a cold one.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile_report(
        &self,
        entry: &str,
        opts: &CompileOptions,
        warm: Option<&MemoSnapshot>,
        snapshot: bool,
        sink: &mut dyn Sink,
    ) -> Result<CompileReport, PipelineError> {
        if !sink.enabled() {
            return self.verified(entry, opts, warm, snapshot, sink);
        }
        let mut agg = Aggregator::new(sink);
        let mut report = self.verified(entry, opts, warm, snapshot, &mut agg)?;
        (report.phases, report.counters, _) = agg.into_parts();
        Ok(report)
    }

    /// The body of [`Pipeline::compile_report`], without aggregation.
    fn verified(
        &self,
        entry: &str,
        opts: &CompileOptions,
        warm: Option<&MemoSnapshot>,
        snapshot: bool,
        sink: &mut dyn Sink,
    ) -> Result<CompileReport, PipelineError> {
        let out = pe_core::run(&self.dprog, entry, None, opts, warm, snapshot, sink)?;
        let t = pe_trace::begin(sink, Phase::Verify);
        let mut report = pe_verify::verify_with(&out.program, sink);
        // Pass 7 is the one check that is not per-procedure: it gets an
        // `<audit>` attribution row of its own, so the verify phase's
        // books stay balanced.
        let t0 = sink.enabled().then(std::time::Instant::now);
        report.merge(pe_verify::verify_audit(&out.audit));
        if let Some(t0) = t0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sink.attr(Phase::Verify, "<audit>", ns, out.audit.events.len() as u64);
        }
        pe_trace::end(sink, t);
        if report.has_errors() {
            return Err(PipelineError::IllFormed(report.error_messages()));
        }
        Ok(CompileReport {
            s0: out.program,
            verify: report,
            phases: Vec::new(),
            counters: Vec::new(),
            snapshot: out.snapshot,
        })
    }

    /// Compiles and verifies `entry`, then loads it into the VM under a
    /// `vm-load` span, which the report's phases also cover.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile_vm(
        &self,
        entry: &str,
        opts: &CompileOptions,
        sink: &mut dyn Sink,
    ) -> Result<(Vm, CompileReport), PipelineError> {
        let mut report = self.compile_report(entry, opts, None, false, sink)?;
        let t = pe_trace::begin(sink, Phase::VmLoad);
        let vm = Vm::compile(&report.s0).map_err(PipelineError::Vm);
        report.phases.extend(pe_trace::end(sink, t).map(|ns| (Phase::VmLoad, ns)));
        let vm = vm?;
        // The loader and the verifier must agree on what is acceptable:
        // anything the VM takes must already have verified clean.  The
        // report is the one the compile produced — verification runs
        // once per compilation, even in debug builds.
        debug_assert!(report.verify.is_clean(), "VM accepted a program the verifier rejects");
        Ok((vm, report))
    }

    /// Compiles the whole program with the Hobbit-like baseline.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile_hobbit(&self) -> Result<Hobbit, PipelineError> {
        Hobbit::compile(&self.program).map_err(PipelineError::Hobbit)
    }

    /// Runs the standard (Fig. 3) interpreter.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_standard(
        &self,
        entry: &str,
        args: &[Datum],
        limits: Limits,
    ) -> Result<Datum, PipelineError> {
        Ok(pe_interp::standard::run(&self.program, entry, args, limits)?)
    }

    /// Runs the closure-converted (Fig. 4) interpreter.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_closconv(
        &self,
        entry: &str,
        args: &[Datum],
        limits: Limits,
    ) -> Result<Datum, PipelineError> {
        Ok(pe_interp::closconv::run(&self.program, entry, args, limits)?)
    }

    /// Runs the tail-recursive (Fig. 6) interpreter.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_tail(
        &self,
        entry: &str,
        args: &[Datum],
        limits: Limits,
    ) -> Result<Datum, PipelineError> {
        Ok(pe_interp::tail::run(&self.dprog, entry, args, limits)?)
    }

    /// Compiles and runs on the VM, returning result and counters.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_compiled(
        &self,
        entry: &str,
        args: &[Datum],
        opts: &CompileOptions,
        limits: Limits,
    ) -> Result<(Datum, VmStats), PipelineError> {
        let (vm, _) = self.compile_vm(entry, opts, &mut NullSink)?;
        Ok(vm.run(args, limits)?)
    }

    /// Compiles `entry` for the VM, degrading gracefully when the
    /// specializer cannot finish: a [`SpecError::Budget`],
    /// [`SpecError::DepthExceeded`], or [`SpecError::SctDiverges`]
    /// outcome becomes [`RobustExec::Degraded`] instead of an error,
    /// since the subject program can still be handed to an interpreter
    /// (whose own fuel bounds a genuinely divergent run).  Genuine
    /// compile-time errors (missing entry, arity, internal faults) are
    /// still reported as errors.  On the degraded path `sink` has still
    /// seen every event up to the budget cut-off (counters flush even
    /// when specialization errors).
    ///
    /// # Errors
    ///
    /// See [`PipelineError`]; budget exhaustion is *not* an error here.
    pub fn compile_robust(
        &self,
        entry: &str,
        opts: &CompileOptions,
        sink: &mut dyn Sink,
    ) -> Result<RobustExec, PipelineError> {
        match self.compile_vm(entry, opts, sink) {
            Ok((vm, _)) => Ok(RobustExec::Compiled(Box::new(vm))),
            Err(PipelineError::Spec(e)) if e.is_degradable() => {
                Ok(RobustExec::Degraded { reason: e })
            }
            Err(e) => Err(e),
        }
    }

    /// Runs `entry`, preferring compiled execution and falling back to
    /// the tail interpreter when specialization exhausts its budget.
    /// Returns the result together with the degradation reason, if any
    /// (`None` means the program ran compiled).
    ///
    /// The whole robust path is observable: compile-side spans and
    /// counters stream to `sink` as in [`Pipeline::compile_robust`], and
    /// the execution engine — the VM on the compiled path, the tail
    /// interpreter on the degraded path — flushes its run counters and,
    /// on a trap, the governor meter snapshot.  This is the hook the
    /// pe-siege chaos ladder drives: one call per budget rung, with
    /// peak meters recoverable from the gauge stream.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_robust(
        &self,
        entry: &str,
        args: &[Datum],
        opts: &CompileOptions,
        limits: Limits,
        sink: &mut dyn Sink,
    ) -> Result<(Datum, Option<SpecError>), PipelineError> {
        match self.compile_robust(entry, opts, sink)? {
            RobustExec::Compiled(vm) => Ok((vm.run_with(args, limits, sink)?.0, None)),
            RobustExec::Degraded { reason } => {
                let v = pe_interp::tail::run_with(&self.dprog, entry, args, limits, sink)?;
                Ok((v, Some(reason)))
            }
        }
    }

    /// Emits the §5.1 C translation of the compiled program, with `args`
    /// baked into `main`; phase spans (including `emit-c`) and
    /// specializer counters stream to `sink`.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn emit_c(
        &self,
        entry: &str,
        args: &[Datum],
        opts: &CompileOptions,
        sink: &mut dyn Sink,
    ) -> Result<pe_backend_c::CProgram, PipelineError> {
        let s0 = self.verified(entry, opts, None, false, sink)?.s0;
        // Re-certify the exact concrete syntax the C emitter consumes.
        debug_assert!(
            pe_verify::verify_source(&s0.to_source()).is_clean(),
            "emit_c input fails the language-preservation certificate"
        );
        let t = pe_trace::begin(sink, Phase::EmitC);
        let c = pe_backend_c::emit_c(&s0, args, &pe_backend_c::COptions::default());
        pe_trace::end(sink, t);
        if sink.enabled() {
            sink.counter(Counter::MovesElided, c.moves_elided as u64);
        }
        Ok(c)
    }
}
