//! The S₀ virtual machine — an executable model of the hand-written C
//! translation of §5.1.
//!
//! The C back end turns the whole program into a single function:
//! procedures become labels, tail calls become assignments to global
//! parameter variables followed by `goto`, and closures are flat
//! vectors.  This crate implements exactly that execution model in Rust:
//! one dispatch loop over resolved (index-based) code, so benchmark
//! numbers measured here transfer to the C code's behaviour, and the
//! instruction/allocation counters give deterministic, machine-
//! independent cost figures for the evaluation tables.
//!
//! The loop allocates only what the program allocates (pairs and
//! closures):
//!
//! * The global parameter variables are two register frames sized to
//!   the widest procedure.  A `goto` assembles its arguments in the
//!   spare frame and swaps the two.
//! * Primitives are arity-specialized nodes over borrowed operands.
//!   `car`, `cdr`, `closure-label` and `closure-freeval` read by
//!   reference; a value is cloned only when it is stored in a frame, a
//!   pair or a closure record.
//! * Frame slots, constants and jump targets are checked once, when the
//!   program is loaded ([`Vm::compile`]), so reading them cannot fail.
//! * A chain of §5.1 closure-dispatch tests
//!   `(if (eq? ℓ (closure-label c)) … (if (eq? ℓ′ (closure-label c)) …))`
//!   on one non-allocating subject `c` is resolved at load time into a
//!   single node: the loop evaluates `c` once and takes the first arm
//!   whose label matches.  It still charges one step, one unit of fuel
//!   and one [`VmProfile`] branch for every test the chain would have
//!   run, so the counters remain a cost model of the emitted C.
//!
//! ```
//! use pe_core::{compile, CompileOptions};
//! use pe_frontend::{desugar, parse_source};
//! use pe_interp::{Datum, Limits};
//! use pe_vm::Vm;
//!
//! let p = parse_source("(define (double x) (+ x x))").unwrap();
//! let s0 = compile(&desugar(&p).unwrap(), "double", &CompileOptions::default()).unwrap();
//! let vm = Vm::compile(&s0).unwrap();
//! let (result, stats) = vm.run(&[Datum::Int(21)], Limits::default()).unwrap();
//! assert_eq!(result, Datum::Int(42));
//! assert!(stats.steps >= 1);
//! ```

use pe_core::{S0Program, S0Simple, S0Tail};
use pe_frontend::ast::{Constant, Prim};
use pe_governor::Trap;
use pe_intern::{Symbol, SymbolMap, SymbolTable};
use pe_interp::value::{apply_prim1, apply_prim2, Value};
use pe_interp::{Datum, Fuel, InterpError, Limits};
use std::borrow::Cow;
use std::fmt;
use std::rc::Rc;

/// A flat runtime closure: label + captured values, the §5.1 vector
/// representation.
#[derive(Debug, Clone, PartialEq)]
pub struct VmClosure {
    /// The label stored by `make-closure`.
    pub label: u32,
    /// Captured values.
    pub freevals: Rc<[V]>,
}

type V = Value<VmClosure>;

/// Execution counters: deterministic cost figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Machine transitions (returns, branches, tail calls).
    pub steps: u64,
    /// Heap allocations (pairs and closures).
    pub allocs: u64,
    /// Tail calls (`goto`s in the C model).
    pub calls: u64,
}

/// An error while compiling S₀ to the register machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A call targets an undefined procedure.
    UndefinedProc(String),
    /// A call has the wrong number of arguments.
    Arity { name: String, expected: usize, got: usize },
    /// A primitive is applied to the wrong number of arguments.
    PrimArity { proc_name: String, prim: Prim, expected: usize, got: usize },
    /// A variable is not a parameter of its procedure.
    UnboundVar { proc_name: String, var: String },
    /// The entry procedure is missing.
    NoEntry(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UndefinedProc(p) => write!(f, "vm: call to undefined procedure {p}"),
            VmError::Arity { name, expected, got } => {
                write!(f, "vm: {name} expects {expected} argument(s), got {got}")
            }
            VmError::PrimArity { proc_name, prim, expected, got } => write!(
                f,
                "vm: primitive {prim} in {proc_name} expects {expected} argument(s), got {got}"
            ),
            VmError::UnboundVar { proc_name, var } => {
                write!(f, "vm: unbound variable {var} in {proc_name}")
            }
            VmError::NoEntry(e) => write!(f, "vm: entry {e} not defined"),
        }
    }
}

impl std::error::Error for VmError {}

/// A resolved simple expression.  Slot and constant indices were
/// checked against the procedure's arity and the constant table when
/// the program was loaded.
#[derive(Debug)]
enum RSimple {
    Slot(usize),
    /// Index into the [`Vm`]'s constant table.  Constants are stored as
    /// [`Constant`] (which is `Send`, so the compiled `Vm` can cross
    /// threads) and materialized into runtime values once per run — the
    /// dispatch loop then reads them by reference from the run's pool.
    Const(usize),
    Prim1(Prim, Box<RSimple>),
    Prim2(Prim, Box<(RSimple, RSimple)>),
    MakeClosure(u32, Box<[RSimple]>),
    ClosureLabel(Box<RSimple>),
    ClosureFreeval(Box<RSimple>, usize),
}

/// A resolved tail expression: calls are block indices.
#[derive(Debug)]
enum RTail {
    Return(RSimple),
    If(RSimple, Box<RTail>, Box<RTail>),
    Dispatch(Box<Dispatch>),
    Goto(usize, Box<[RSimple]>),
    Fail(String),
}

/// A chain of closure-dispatch tests on one subject, resolved at load
/// time: `(if (eq? ℓ₁ (closure-label c)) A₁ (if (eq? ℓ₂ …) A₂ … D))`.
#[derive(Debug)]
struct Dispatch {
    /// `c`: its evaluation never allocates, so evaluating it once
    /// observes exactly what evaluating it once per test would.
    subject: RSimple,
    /// `(ℓᵢ, Aᵢ)` in test order.
    arms: Vec<(u32, RTail)>,
    /// `D`, taken when no label matches.
    default: RTail,
}

#[derive(Debug)]
struct Block {
    arity: usize,
    body: RTail,
}

/// A compiled S₀ program, ready to run.
#[derive(Debug)]
pub struct Vm {
    blocks: Vec<Block>,
    /// Block names, parallel to `blocks` — kept for trap diagnostics.
    names: Vec<String>,
    /// The constant table `RSimple::Const` indexes into.
    consts: Vec<Constant>,
    entry: usize,
    entry_name: String,
    /// The widest block's arity: the capacity of each register frame.
    width: usize,
}

impl Vm {
    /// Resolves names to indices, checking S₀ well-formedness: every
    /// variable is a parameter of its procedure, every call names a
    /// procedure with that many parameters, and every primitive gets
    /// its arity.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] naming the first violation.
    pub fn compile(p: &S0Program) -> Result<Vm, VmError> {
        // Every name is interned exactly once; from then on, procedure
        // and parameter resolution is integer-indexed ([`SymbolMap`] /
        // [`SlotFrame`]) and never re-hashes a string.  Residual
        // programs repeat the same specialized names thousands of
        // times, so this is the resolver's hot path.
        let mut syms = SymbolTable::new();
        let mut index: SymbolMap<usize> = SymbolMap::with_capacity(p.procs.len());
        for (i, q) in p.procs.iter().enumerate() {
            index.insert(syms.intern(&q.name), i);
        }
        let entry = syms
            .get(p.entry.as_str())
            .and_then(|s| index.get(s).copied())
            .ok_or_else(|| VmError::NoEntry(p.entry.clone()))?;
        let mut r = Resolver {
            program: p,
            syms,
            index,
            slots: SlotFrame::default(),
            consts: Vec::new(),
            owner: "",
        };
        let mut blocks = Vec::with_capacity(p.procs.len());
        let mut names = Vec::with_capacity(p.procs.len());
        for q in &p.procs {
            r.slots.begin();
            for (i, v) in q.params.iter().enumerate() {
                let sym = r.syms.intern(v);
                r.slots.set(sym, i);
            }
            r.owner = &q.name;
            blocks.push(Block { arity: q.params.len(), body: r.tail(&q.body)? });
            names.push(q.name.clone());
        }
        let width = blocks.iter().map(|b| b.arity).max().unwrap_or(0);
        Ok(Vm { blocks, names, consts: r.consts, entry, entry_name: p.entry.clone(), width })
    }

    /// The name of the block at `pc`, as reported in traps.
    pub fn block_name(&self, pc: usize) -> Option<&str> {
        self.names.get(pc).map(String::as_str)
    }

    /// Runs the program on first-order inputs, returning the result and
    /// the execution counters.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] on dynamic faults, `%fail`, exhausted
    /// budgets ([`Limits::fuel`], [`Limits::max_heap`]) or a
    /// closure-valued result.  Closure misuse surfaces as
    /// [`Trap::BadDispatch`] carrying the program counter (block
    /// index) — never as a panic.
    pub fn run(&self, args: &[Datum], limits: Limits) -> Result<(Datum, VmStats), InterpError> {
        self.run_with(args, limits, &mut pe_trace::NullSink)
    }

    /// Like [`Vm::run`], under a `vm-run` span on `sink` with the
    /// execution counters flushed at the end — and the governor meter
    /// snapshot when the machine traps, so the trap carries its
    /// metrics.
    ///
    /// # Errors
    ///
    /// As [`Vm::run`].
    pub fn run_with(
        &self,
        args: &[Datum],
        limits: Limits,
        sink: &mut dyn pe_trace::Sink,
    ) -> Result<(Datum, VmStats), InterpError> {
        self.run_observed(args, limits, &mut NoProfile, sink)
    }

    /// [`Vm::run_with`] with the hot-label profiler switched on: the
    /// run additionally counts block entries and dispatch-arm takes
    /// per label and emits per-label `Event::Attr` rows under
    /// `vm-run`, with the run's measured execution time spread across
    /// labels by entry share.  The normal [`Vm::run_with`] path is
    /// monomorphized over a no-op profiler, so it pays nothing for
    /// this — profiling is opt-in per run, not a VM mode.
    ///
    /// # Errors
    ///
    /// As [`Vm::run`].
    pub fn run_profiled_with(
        &self,
        args: &[Datum],
        limits: Limits,
        sink: &mut dyn pe_trace::Sink,
    ) -> Result<(Datum, VmStats, VmProfile), InterpError> {
        let mut profile = VmProfile::sized(self.blocks.len());
        let (v, stats) = self.run_observed(args, limits, &mut profile, sink)?;
        Ok((v, stats, profile))
    }

    /// The body of [`Vm::run_with`] and [`Vm::run_profiled_with`]: one
    /// run under a `vm-run` span, then the counter flush, the meter
    /// snapshot on a trap, and the profiler's cost rows.
    fn run_observed<P: Profiler>(
        &self,
        args: &[Datum],
        limits: Limits,
        prof: &mut P,
        sink: &mut dyn pe_trace::Sink,
    ) -> Result<(Datum, VmStats), InterpError> {
        let t = pe_trace::begin(sink, pe_trace::Phase::VmRun);
        let mut stats = VmStats::default();
        let mut fuel = Fuel::new(&limits);
        let result = self.exec(args, &mut stats, &mut fuel, prof);
        if sink.enabled() {
            use pe_trace::Counter;
            sink.counter(Counter::VmSteps, stats.steps);
            sink.counter(Counter::VmAllocs, stats.allocs);
            sink.counter(Counter::VmCalls, stats.calls);
            if result.is_err() {
                let snap = fuel.snapshot();
                pe_trace::trap_gauges(sink, snap.steps, snap.cells, snap.peak_depth as u64);
            }
            prof.attribute(self, &t, sink);
        }
        pe_trace::end(sink, t);
        result.map(|v| (v, stats))
    }

    fn exec<P: Profiler>(
        &self,
        args: &[Datum],
        stats: &mut VmStats,
        fuel: &mut Fuel,
        prof: &mut P,
    ) -> Result<Datum, InterpError> {
        let mut pc = self.entry;
        let entry = &self.blocks[pc];
        if entry.arity != args.len() {
            return Err(InterpError::EntryArity {
                name: self.entry_name.clone(),
                expected: entry.arity,
                got: args.len(),
            });
        }
        // Materialize the constant pool for this run: one deep
        // conversion per constant, then every `RSimple::Const` in the
        // loop below is a borrow.
        let pool: Vec<V> = self.consts.iter().map(Value::from_constant).collect();
        // The "global parameter variables" of the C translation, and
        // the spare frame the next goto assembles its arguments in.
        let mut frame: Vec<V> = Vec::with_capacity(self.width);
        frame.extend(args.iter().map(Datum::embed));
        let mut next: Vec<V> = Vec::with_capacity(self.width);
        let mut body = &entry.body;
        prof.enter(pc);
        // The machine is a flat goto loop: fuel and the heap budget
        // apply; `max_call_depth` does not (the host stack never grows).
        loop {
            fuel.step()?;
            stats.steps += 1;
            let m = Machine { frame: &frame, pool: &pool, pc };
            match body {
                RTail::Return(s) => {
                    let v = m.eval(s, stats, fuel)?;
                    return v.to_datum().ok_or(InterpError::ResultNotFirstOrder);
                }
                RTail::If(c, t, e) => {
                    let taken = m.eval(c, stats, fuel)?.is_truthy();
                    prof.branch(pc, taken);
                    body = if taken { t } else { e };
                }
                RTail::Dispatch(d) => {
                    let label = closure_label(&*m.eval(&d.subject, stats, fuel)?, pc)?;
                    let hit = d.arms.iter().position(|&(l, _)| l == label);
                    // Charge every test the sequential chain runs; this
                    // iteration of the loop already paid for the first.
                    let tests = hit.map_or(d.arms.len(), |i| i + 1);
                    for i in 0..tests {
                        if i > 0 {
                            fuel.step()?;
                            stats.steps += 1;
                        }
                        prof.branch(pc, hit == Some(i));
                    }
                    body = hit.map_or(&d.default, |i| &d.arms[i].1);
                }
                RTail::Goto(target, args) => {
                    stats.calls += 1;
                    // Arguments are simple expressions over the *current*
                    // frame; evaluate them all, then switch frames — the
                    // C translation's assign-then-goto discipline.
                    for a in args.iter() {
                        next.push(m.eval(a, stats, fuel)?.into_owned());
                    }
                    std::mem::swap(&mut frame, &mut next);
                    next.clear();
                    pc = *target;
                    body = &self.blocks[pc].body;
                    prof.enter(pc);
                }
                RTail::Fail(msg) => return Err(InterpError::NotAProcedure(msg.clone())),
            }
        }
    }
}

/// The execution loop's profiling hook.  [`NoProfile`] monomorphizes
/// to nothing (the default path); [`VmProfile`] counts label entries
/// and dispatch arms for the hot-path ranking a native tier needs.
trait Profiler {
    fn enter(&mut self, pc: usize);
    fn branch(&mut self, pc: usize, taken: bool);
    /// Emits the run's cost rows, timed by its still-open `vm-run`
    /// span.  The no-op profiler emits none and reads no clock.
    fn attribute(&self, _vm: &Vm, _span: &pe_trace::SpanTimer, _sink: &mut dyn pe_trace::Sink) {}
}

/// The zero-cost profiler: every hook is an empty inline body.
struct NoProfile;

impl Profiler for NoProfile {
    #[inline(always)]
    fn enter(&mut self, _pc: usize) {}

    #[inline(always)]
    fn branch(&mut self, _pc: usize, _taken: bool) {}
}

/// Per-label execution counts from one profiled run
/// ([`Vm::run_profiled_with`]).  Indexes parallel the VM's block
/// table; translate with [`Vm::block_name`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmProfile {
    /// Times each block was entered (the entry block counts its
    /// initial activation).
    pub entries: Vec<u64>,
    /// Conditional dispatches per block: `(true-arm, false-arm)`
    /// takes, summed over every `if` the block executed.
    pub branches: Vec<(u64, u64)>,
}

impl VmProfile {
    fn sized(blocks: usize) -> VmProfile {
        VmProfile { entries: vec![0; blocks], branches: vec![(0, 0); blocks] }
    }

    /// Block indices ranked by entry count (descending, index as the
    /// deterministic tiebreak), hottest first, zero-entry blocks
    /// omitted.
    #[must_use]
    pub fn hottest(&self) -> Vec<usize> {
        let mut idx: Vec<usize> =
            (0..self.entries.len()).filter(|&i| self.entries[i] > 0).collect();
        idx.sort_by(|&a, &b| {
            self.entries[b].cmp(&self.entries[a]).then(a.cmp(&b))
        });
        idx
    }

    /// Total block entries across the run.
    #[must_use]
    pub fn total_entries(&self) -> u64 {
        self.entries.iter().sum()
    }
}

impl Profiler for VmProfile {
    #[inline]
    fn enter(&mut self, pc: usize) {
        if let Some(n) = self.entries.get_mut(pc) {
            *n += 1;
        }
    }

    #[inline]
    fn branch(&mut self, pc: usize, taken: bool) {
        if let Some((t, f)) = self.branches.get_mut(pc) {
            if taken {
                *t += 1;
            } else {
                *f += 1;
            }
        }
    }

    fn attribute(&self, vm: &Vm, span: &pe_trace::SpanTimer, sink: &mut dyn pe_trace::Sink) {
        let Some(exec_ns) = span.elapsed_ns() else { return };
        let parts = pe_prof::distribute_ns(exec_ns, &self.entries);
        for (pc, (&entries, ns)) in self.entries.iter().zip(parts).enumerate() {
            if entries > 0 {
                let name = vm.block_name(pc).unwrap_or("<unknown>");
                sink.attr(pe_trace::Phase::VmRun, name, ns, entries);
            }
        }
    }
}

/// What a simple expression reads: the current frame and the run's
/// constant pool, at block `pc` (for trap diagnostics).
struct Machine<'a> {
    frame: &'a [V],
    pool: &'a [V],
    pc: usize,
}

impl<'a> Machine<'a> {
    /// Evaluates `s`, borrowing from the frame and pool where the value
    /// already exists there and producing it only where it is computed.
    fn eval(
        &self,
        s: &RSimple,
        stats: &mut VmStats,
        fuel: &mut Fuel,
    ) -> Result<Cow<'a, V>, InterpError> {
        Ok(match s {
            RSimple::Slot(i) => Cow::Borrowed(&self.frame[*i]),
            RSimple::Const(i) => Cow::Borrowed(&self.pool[*i]),
            RSimple::Prim1(Prim::Car, a) => project(self.eval(a, stats, fuel)?, Value::car)?,
            RSimple::Prim1(Prim::Cdr, a) => project(self.eval(a, stats, fuel)?, Value::cdr)?,
            RSimple::Prim1(op, a) => Cow::Owned(apply_prim1(*op, &*self.eval(a, stats, fuel)?)?),
            RSimple::Prim2(op, ab) => {
                let a = self.eval(&ab.0, stats, fuel)?;
                let b = self.eval(&ab.1, stats, fuel)?;
                if *op == Prim::Cons {
                    charge_alloc(stats, fuel)?;
                    Cow::Owned(Value::Pair(Rc::new((a.into_owned(), b.into_owned()))))
                } else {
                    Cow::Owned(apply_prim2(*op, &a, &b)?)
                }
            }
            RSimple::MakeClosure(label, args) => {
                // Collecting an exact-size iterator builds the `Rc<[V]>`
                // in one allocation.  After a faulting argument the rest
                // are skipped (so they charge nothing) and the record
                // is dropped.
                let mut fault = None;
                let freevals: Rc<[V]> = args
                    .iter()
                    .map(|a| {
                        if fault.is_none() {
                            match self.eval(a, stats, fuel) {
                                Ok(v) => return v.into_owned(),
                                Err(e) => fault = Some(e),
                            }
                        }
                        Value::Nil
                    })
                    .collect();
                if let Some(e) = fault {
                    return Err(e);
                }
                charge_alloc(stats, fuel)?;
                Cow::Owned(Value::Closure(VmClosure { label: *label, freevals }))
            }
            RSimple::ClosureLabel(a) => Cow::Owned(Value::Int(i64::from(closure_label(
                &*self.eval(a, stats, fuel)?,
                self.pc,
            )?))),
            RSimple::ClosureFreeval(a, i) => {
                project(self.eval(a, stats, fuel)?, |v| closure_freeval(v, *i, self.pc))?
            }
        })
    }
}

/// Applies a by-reference accessor to an operand: a borrowed operand
/// yields a borrowed part; an owned one gives up a clone of the part.
fn project<'a, E>(v: Cow<'a, V>, part: impl FnOnce(&V) -> Result<&V, E>) -> Result<Cow<'a, V>, E> {
    match v {
        Cow::Borrowed(v) => part(v).map(Cow::Borrowed),
        Cow::Owned(v) => part(&v).map(|x| Cow::Owned(x.clone())),
    }
}

fn charge_alloc(stats: &mut VmStats, fuel: &mut Fuel) -> Result<(), InterpError> {
    stats.allocs += 1;
    fuel.alloc(1)?;
    Ok(())
}

fn closure_label(v: &V, pc: usize) -> Result<u32, InterpError> {
    match v {
        Value::Closure(c) => Ok(c.label),
        v => Err(bad_dispatch(pc, format_args!("closure-label of non-closure {v}"))),
    }
}

fn closure_freeval(v: &V, i: usize, pc: usize) -> Result<&V, InterpError> {
    match v {
        Value::Closure(c) => c.freevals.get(i).ok_or_else(|| {
            let n = c.freevals.len();
            bad_dispatch(pc, format_args!("closure-freeval {i} out of range ({n} captured)"))
        }),
        v => Err(bad_dispatch(pc, format_args!("closure-freeval of non-closure {v}"))),
    }
}

/// Builds a [`Trap::BadDispatch`]; the detail is only formatted here,
/// off the run loop's path.
#[cold]
#[inline(never)]
fn bad_dispatch(pc: usize, detail: fmt::Arguments<'_>) -> InterpError {
    InterpError::Trap(Trap::BadDispatch { pc, detail: detail.to_string() })
}

/// The parameter slots of the procedure currently being resolved, keyed
/// by interned [`Symbol`].  One allocation serves every procedure:
/// [`SlotFrame::begin`] bumps an epoch instead of clearing, so per-proc
/// setup costs only its own parameter count.
#[derive(Default)]
struct SlotFrame {
    stamp: Vec<u32>,
    slot: Vec<usize>,
    epoch: u32,
}

impl SlotFrame {
    fn begin(&mut self) {
        self.epoch += 1;
    }

    fn set(&mut self, sym: Symbol, slot: usize) {
        let i = sym.index();
        if i >= self.stamp.len() {
            self.stamp.resize(i + 1, 0);
            self.slot.resize(i + 1, 0);
        }
        self.stamp[i] = self.epoch;
        self.slot[i] = slot;
    }

    fn get(&self, sym: Symbol) -> Option<usize> {
        let i = sym.index();
        if self.stamp.get(i) == Some(&self.epoch) {
            Some(self.slot[i])
        } else {
            None
        }
    }
}

/// Name resolution for one program: the procedure index, the current
/// procedure's parameter slots, and the constant table being built.
struct Resolver<'p> {
    program: &'p S0Program,
    syms: SymbolTable,
    index: SymbolMap<usize>,
    slots: SlotFrame,
    consts: Vec<Constant>,
    /// The procedure being resolved, for error messages.
    owner: &'p str,
}

impl Resolver<'_> {
    fn simple(&mut self, s: &S0Simple) -> Result<RSimple, VmError> {
        Ok(match s {
            S0Simple::Var(v) => match self.syms.get(v).and_then(|sym| self.slots.get(sym)) {
                Some(slot) => RSimple::Slot(slot),
                None => {
                    let proc_name = self.owner.to_string();
                    return Err(VmError::UnboundVar { proc_name, var: v.clone() });
                }
            },
            S0Simple::Const(k) => {
                self.consts.push(k.clone());
                RSimple::Const(self.consts.len() - 1)
            }
            S0Simple::Prim(op, args) => match (op.arity(), args.as_slice()) {
                (1, [a]) => RSimple::Prim1(*op, Box::new(self.simple(a)?)),
                (2, [a, b]) => RSimple::Prim2(*op, Box::new((self.simple(a)?, self.simple(b)?))),
                (expected, _) => {
                    return Err(VmError::PrimArity {
                        proc_name: self.owner.to_string(),
                        prim: *op,
                        expected,
                        got: args.len(),
                    })
                }
            },
            S0Simple::MakeClosure(l, args) => RSimple::MakeClosure(*l, self.simples(args)?),
            S0Simple::ClosureLabel(a) => RSimple::ClosureLabel(Box::new(self.simple(a)?)),
            S0Simple::ClosureFreeval(a, i) => {
                RSimple::ClosureFreeval(Box::new(self.simple(a)?), *i)
            }
        })
    }

    fn simples(&mut self, args: &[S0Simple]) -> Result<Box<[RSimple]>, VmError> {
        args.iter().map(|a| self.simple(a)).collect()
    }

    fn tail(&mut self, t: &S0Tail) -> Result<RTail, VmError> {
        Ok(match t {
            S0Tail::Return(s) => RTail::Return(self.simple(s)?),
            S0Tail::If(c, a, b) => match c.dispatch_test() {
                Some((subject, _)) if !allocates(subject) => self.dispatch(subject, t)?,
                _ => RTail::If(self.simple(c)?, Box::new(self.tail(a)?), Box::new(self.tail(b)?)),
            },
            S0Tail::TailCall(callee, args) => {
                let target = *self
                    .syms
                    .get(callee)
                    .and_then(|sym| self.index.get(sym))
                    .ok_or_else(|| VmError::UndefinedProc(callee.clone()))?;
                let expected = self.program.procs[target].params.len();
                if expected != args.len() {
                    return Err(VmError::Arity { name: callee.clone(), expected, got: args.len() });
                }
                RTail::Goto(target, self.simples(args)?)
            }
            S0Tail::Fail(m) => RTail::Fail(m.clone()),
        })
    }

    /// Folds the run of dispatch tests on `subject` that starts at `t`
    /// into one [`Dispatch`] node; the first tail that is not such a
    /// test becomes its default.
    fn dispatch(&mut self, subject: &S0Simple, mut t: &S0Tail) -> Result<RTail, VmError> {
        let resolved = self.simple(subject)?;
        let mut arms = Vec::new();
        while let S0Tail::If(c, then, other) = t {
            match c.dispatch_test() {
                Some((s, label)) if s == subject => arms.push((label, self.tail(then)?)),
                _ => break,
            }
            t = other;
        }
        let default = self.tail(t)?;
        Ok(RTail::Dispatch(Box::new(Dispatch { subject: resolved, arms, default })))
    }
}

/// True when evaluating `s` allocates (`cons` or `make-closure`): each
/// test of a dispatch chain on `s` then charges its own allocation, so
/// the chain stays a sequence of plain `If`s.
fn allocates(s: &S0Simple) -> bool {
    match s {
        S0Simple::Var(_) | S0Simple::Const(_) => false,
        S0Simple::Prim(op, args) => *op == Prim::Cons || args.iter().any(allocates),
        S0Simple::MakeClosure(..) => true,
        S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => allocates(a),
    }
}

/// An error from [`run_s0`], keeping the two failure phases apart: a
/// program that does not compile is not the same fault as a compiled
/// program that traps at run time, and callers can now match on which.
#[derive(Debug, Clone, PartialEq)]
pub enum S0RunError {
    /// The S₀ program failed to compile to the register machine.
    Compile(VmError),
    /// The compiled program faulted while running.
    Run(InterpError),
}

impl fmt::Display for S0RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            S0RunError::Compile(e) => write!(f, "compile: {e}"),
            S0RunError::Run(e) => write!(f, "run: {e}"),
        }
    }
}

impl std::error::Error for S0RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            S0RunError::Compile(e) => Some(e),
            S0RunError::Run(e) => Some(e),
        }
    }
}

impl From<VmError> for S0RunError {
    fn from(e: VmError) -> S0RunError {
        S0RunError::Compile(e)
    }
}

impl From<InterpError> for S0RunError {
    fn from(e: InterpError) -> S0RunError {
        S0RunError::Run(e)
    }
}

/// Compiles and runs in one call (convenience for tests and benches).
///
/// # Errors
///
/// [`S0RunError::Compile`] wraps the precise [`VmError`] when the
/// program is ill-formed; [`S0RunError::Run`] wraps the [`InterpError`]
/// from execution.
pub fn run_s0(
    p: &S0Program,
    args: &[Datum],
    limits: Limits,
) -> Result<(Datum, VmStats), S0RunError> {
    let vm = Vm::compile(p)?;
    Ok(vm.run(args, limits)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::{compile, specialize, CompileOptions, GenStrategy};
    use pe_frontend::{desugar, parse_source};

    type R = Result<(), Box<dyn std::error::Error>>;

    fn compile_to_vm(src: &str, entry: &str) -> Result<Vm, Box<dyn std::error::Error>> {
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let s0 = compile(&d, entry, &CompileOptions::default())?;
        Ok(Vm::compile(&s0)?)
    }

    #[test]
    fn vm_matches_interpreters_on_cps_append() -> R {
        let src = "(define (append x y) (cps-append x y (lambda (v) v)))
                   (define (cps-append x y c)
                     (if (null? x) (c y)
                         (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";
        let vm = compile_to_vm(src, "append")?;
        let (r, stats) =
            vm.run(&[Datum::parse("(a b)")?, Datum::parse("(c)")?], Limits::default())?;
        assert_eq!(r.to_string(), "(a b c)");
        assert!(stats.allocs >= 3, "conses + continuation closures: {stats:?}");
        Ok(())
    }

    #[test]
    fn profiled_run_matches_plain_run_and_counts_deterministically() -> R {
        let src = "(define (count n) (if (zero? n) 0 (count (- n 1))))";
        let vm = compile_to_vm(src, "count")?;
        let (plain, pstats) = vm.run(&[Datum::Int(25)], Limits::default())?;
        let mut sink = pe_trace::CollectingSink::new();
        let (profiled, stats, profile) =
            vm.run_profiled_with(&[Datum::Int(25)], Limits::default(), &mut sink)?;
        assert_eq!(plain, profiled);
        assert_eq!(pstats, stats, "profiling must not perturb the machine");
        // The loop block was entered once per count, and the branch
        // split 25 continues / 1 exit (arm polarity aside).
        assert!(profile.total_entries() >= 26, "{profile:?}");
        let hot = profile.hottest();
        assert!(!hot.is_empty());
        assert_eq!(profile.entries[hot[0]], *profile.entries.iter().max().unwrap());
        let branches: u64 = profile
            .branches
            .iter()
            .map(|&(t, f)| t + f)
            .sum();
        assert_eq!(branches, 26, "{profile:?}");
        // Per-label attribution rows landed under vm-run and sum to
        // the phase span.
        assert!(sink.attr_ns(pe_trace::Phase::VmRun) <= sink.phase_ns(pe_trace::Phase::VmRun));
        let (again, _, profile2) =
            vm.run_profiled_with(&[Datum::Int(25)], Limits::default(), &mut pe_trace::NullSink)?;
        assert_eq!(again, plain);
        assert_eq!(profile, profile2, "profiles are deterministic");
        Ok(())
    }

    #[test]
    fn vm_runs_tak() -> R {
        let src = "(define (tak x y z)
                     (if (not (< y x)) z
                         (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))";
        let vm = compile_to_vm(src, "tak")?;
        let (r, stats) =
            vm.run(&[Datum::Int(14), Datum::Int(7), Datum::Int(3)], Limits::default())?;
        assert_eq!(r, Datum::Int(7));
        // tak's contexts are heap-allocated closures in our model — the
        // §8 observation that Hobbit's native stack wins on this code.
        assert!(stats.allocs > 1000, "{stats:?}");
        Ok(())
    }

    #[test]
    fn counters_are_deterministic() -> R {
        let src = "(define (loop n) (if (zero? n) 0 (loop (- n 1))))";
        let vm = compile_to_vm(src, "loop")?;
        let (_, s1) = vm.run(&[Datum::Int(1000)], Limits::default())?;
        let (_, s2) = vm.run(&[Datum::Int(1000)], Limits::default())?;
        assert_eq!(s1, s2);
        assert!(s1.calls >= 1000);
        assert_eq!(s1.allocs, 0, "a first-order tail loop allocates nothing");
        Ok(())
    }

    #[test]
    fn specialized_code_is_cheaper() -> R {
        // The interpretive-overhead claim in miniature: append
        // specialized to its first argument does fewer steps than the
        // general compiled version.
        let src = "(define (append x y) (cps-append x y (lambda (v) v)))
                   (define (cps-append x y c)
                     (if (null? x) (c y)
                         (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let opts = CompileOptions { strategy: GenStrategy::Online, ..CompileOptions::default() };
        let gen_p = compile(&d, "append", &opts)?;
        let spec_p = specialize(&d, "append", &[Some(Datum::parse("(a b c d)")?), None], &opts)?;
        let y = Datum::parse("(e f)")?;
        let x = Datum::parse("(a b c d)")?;
        let (r1, s1) = run_s0(&gen_p, &[x, y.clone()], Limits::default())?;
        let (r2, s2) = run_s0(&spec_p, &[y], Limits::default())?;
        assert_eq!(r1, r2);
        assert!(
            s2.steps < s1.steps,
            "specialized {s2:?} must beat general {s1:?}"
        );
        Ok(())
    }

    #[test]
    fn vm_compile_rejects_bad_programs() {
        use pe_core::{S0Proc, S0Program, S0Simple, S0Tail};
        let bad = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec![],
                body: S0Tail::TailCall("ghost".into(), vec![]),
            }],
        };
        assert!(matches!(Vm::compile(&bad), Err(VmError::UndefinedProc(_))));
        let bad = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec![],
                body: S0Tail::Return(S0Simple::Var("x".into())),
            }],
        };
        assert!(matches!(Vm::compile(&bad), Err(VmError::UnboundVar { .. })));
        let bad = S0Program { entry: "nope".into(), procs: vec![] };
        assert!(matches!(Vm::compile(&bad), Err(VmError::NoEntry(_))));
        // A primitive's argument count is checked at load, not when the
        // node first runs.
        for (prim, args) in [(Prim::Car, vec![var("x"), var("x")]), (Prim::Add, vec![var("x")])] {
            let got = args.len();
            let bad = S0Program {
                entry: "main".into(),
                procs: vec![S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::If(
                        var("x"),
                        ret(1),
                        Box::new(S0Tail::Return(S0Simple::Prim(prim, args))),
                    ),
                }],
            };
            assert_eq!(
                Vm::compile(&bad).err(),
                Some(VmError::PrimArity {
                    proc_name: "main".into(),
                    prim,
                    expected: prim.arity(),
                    got
                })
            );
        }
    }

    #[test]
    fn run_s0_separates_compile_and_run_errors() {
        use pe_core::{S0Proc, S0Program};
        let bad = S0Program { entry: "nope".into(), procs: vec![] };
        assert!(matches!(
            run_s0(&bad, &[], Limits::default()),
            Err(S0RunError::Compile(VmError::NoEntry(_)))
        ));
        let diverge = S0Program {
            entry: "f".into(),
            procs: vec![S0Proc {
                name: "f".into(),
                params: vec![],
                body: S0Tail::TailCall("f".into(), vec![]),
            }],
        };
        let lim = Limits { fuel: 100, ..Limits::default() };
        assert_eq!(
            run_s0(&diverge, &[], lim),
            Err(S0RunError::Run(InterpError::FuelExhausted))
        );
    }

    #[test]
    fn deep_tail_recursion_is_flat() -> R {
        let vm = compile_to_vm("(define (loop n) (if (zero? n) 'ok (loop (- n 1))))", "loop")?;
        let (r, _) = vm.run(&[Datum::Int(3_000_000)], Limits::default())?;
        assert_eq!(r, Datum::Sym("ok".into()));
        Ok(())
    }

    #[test]
    fn fuel_and_heap_budgets_trap() -> R {
        // A divergent loop traps on fuel … (dynamically guarded, so the
        // size-change analysis lets it through to run time)
        let vm = compile_to_vm("(define (f n) (if (zero? n) (f 1) (f 2)))", "f")?;
        let lim = Limits { fuel: 100, ..Limits::default() };
        assert_eq!(vm.run(&[Datum::Int(0)], lim), Err(InterpError::FuelExhausted));
        // … and a cons-builder traps on the heap budget first.  The
        // accumulator is tested so the flow optimizer cannot delete the
        // (otherwise unobserved) allocation.
        let vm = compile_to_vm("(define (g x) (if (pair? x) (g (cons x x)) (g (cons x x))))", "g")?;
        let lim = Limits { max_heap: 50, ..Limits::default() };
        assert_eq!(
            vm.run(&[Datum::Int(0)], lim),
            Err(InterpError::Trap(Trap::Heap { limit: 50 }))
        );
        Ok(())
    }

    #[test]
    fn closure_misuse_is_a_dispatch_trap() -> R {
        use pe_core::{S0Proc, S0Program};
        // closure-freeval on an int: compiles (S₀ is untyped) but must
        // trap with a pc, not panic.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec!["x".into()],
                body: S0Tail::Return(S0Simple::ClosureFreeval(
                    Box::new(S0Simple::Var("x".into())),
                    0,
                )),
            }],
        };
        let vm = Vm::compile(&p)?;
        let r = vm.run(&[Datum::Int(7)], Limits::default());
        assert!(
            matches!(r, Err(InterpError::Trap(Trap::BadDispatch { pc: 0, .. }))),
            "got {r:?}"
        );
        assert_eq!(vm.block_name(0), Some("main"));
        Ok(())
    }

    fn var(v: &str) -> S0Simple {
        S0Simple::Var(v.into())
    }

    fn ret(n: i64) -> Box<S0Tail> {
        Box::new(S0Tail::Return(S0Simple::Const(Constant::Int(n))))
    }

    /// `(if (eq? ℓ (closure-label subject)) then else)`.
    fn on_label(l: i64, subject: &S0Simple, then: Box<S0Tail>, other: Box<S0Tail>) -> Box<S0Tail> {
        let label = S0Simple::ClosureLabel(Box::new(subject.clone()));
        let test = S0Simple::Prim(Prim::EqP, vec![S0Simple::Const(Constant::Int(l)), label]);
        Box::new(S0Tail::If(test, then, other))
    }

    /// `main x` jumps to `go k x` with `k = (make-closure label x)`;
    /// `go` (block 1) runs `body`.
    fn with_closure(label: u32, body: S0Tail) -> S0Program {
        use pe_core::S0Proc;
        let k = S0Simple::MakeClosure(label, vec![var("x")]);
        S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall("go".into(), vec![k, var("x")]),
                },
                S0Proc { name: "go".into(), params: vec!["k".into(), "x".into()], body },
            ],
        }
    }

    fn dispatch_nodes(vm: &Vm) -> usize {
        fn count(t: &RTail) -> usize {
            match t {
                RTail::If(_, a, b) => count(a) + count(b),
                RTail::Dispatch(d) => {
                    1 + d.arms.iter().map(|(_, a)| count(a)).sum::<usize>() + count(&d.default)
                }
                RTail::Return(_) | RTail::Goto(..) | RTail::Fail(_) => 0,
            }
        }
        vm.blocks.iter().map(|b| count(&b.body)).sum()
    }

    /// Runs `main 5` profiled, checks the fuel budget traps at exactly
    /// the step count, and returns the answer, the counters and `go`'s
    /// `(true, false)` branch takes.
    fn run_go(vm: &Vm) -> Result<(Datum, VmStats, (u64, u64)), InterpError> {
        let args = [Datum::Int(5)];
        let (d, stats, profile) =
            vm.run_profiled_with(&args, Limits::default(), &mut pe_trace::NullSink)?;
        assert_eq!(
            vm.run(&args, Limits { fuel: stats.steps, ..Limits::default() })?,
            (d.clone(), stats)
        );
        assert_eq!(
            vm.run(&args, Limits { fuel: stats.steps - 1, ..Limits::default() }),
            Err(InterpError::FuelExhausted)
        );
        Ok((d, stats, profile.branches[1]))
    }

    #[test]
    fn dispatch_chain_charges_every_test_it_skips() -> R {
        // Label 1 twice: the first arm wins, the third is dead.
        let k = var("k");
        let body =
            on_label(1, &k, ret(10), on_label(2, &k, ret(20), on_label(1, &k, ret(30), ret(99))));
        let chain = |l| with_closure(l, (*body).clone());
        // (label, answer, tests run, arm taken)
        for (l, answer, tests, taken) in [(1, 10, 1, 1), (2, 20, 2, 1), (3, 99, 3, 0)] {
            let vm = Vm::compile(&chain(l))?;
            assert_eq!(dispatch_nodes(&vm), 1);
            let (d, stats, branches) = run_go(&vm)?;
            assert_eq!(d, Datum::Int(answer), "label {l}");
            // main's goto, one step per test, the return.
            assert_eq!(stats, VmStats { steps: 1 + tests + 1, allocs: 1, calls: 1 }, "label {l}");
            assert_eq!(branches, (taken, tests - taken), "label {l}");
        }
        Ok(())
    }

    #[test]
    fn dispatch_on_a_non_closure_traps_as_the_first_test_would() -> R {
        let k = var("k");
        let mut p = with_closure(1, *on_label(1, &k, ret(10), on_label(2, &k, ret(20), ret(99))));
        p.procs.swap(0, 1);
        p.entry = "go".into();
        let vm = Vm::compile(&p)?;
        assert_eq!(dispatch_nodes(&vm), 1);
        let r = vm.run(&[Datum::Int(7), Datum::Nil], Limits::default());
        let detail = "closure-label of non-closure 7".to_string();
        assert_eq!(r, Err(InterpError::Trap(Trap::BadDispatch { pc: 0, detail })));
        // Fuel runs out before the subject is looked at.
        let lim = Limits { fuel: 0, ..Limits::default() };
        assert_eq!(vm.run(&[Datum::Int(7), Datum::Nil], lim), Err(InterpError::FuelExhausted));
        Ok(())
    }

    #[test]
    fn a_non_dispatch_test_ends_the_chain() -> R {
        let k = var("k");
        let null_x = S0Simple::Prim(Prim::NullP, vec![var("x")]);
        let body = on_label(
            1,
            &k,
            ret(10),
            Box::new(S0Tail::If(null_x, ret(40), on_label(2, &k, ret(20), ret(99)))),
        );
        let vm = Vm::compile(&with_closure(2, *body))?;
        assert_eq!(dispatch_nodes(&vm), 2, "one node each side of the (null? x) test");
        let (d, stats, branches) = run_go(&vm)?;
        assert_eq!(d, Datum::Int(20));
        assert_eq!(stats, VmStats { steps: 5, allocs: 1, calls: 1 });
        assert_eq!(branches, (1, 2));
        // So does a test on another subject: here the int `x`, whose
        // label test traps once `k`'s test has failed.
        let body = on_label(1, &k, ret(10), on_label(2, &var("x"), ret(20), ret(99)));
        let vm = Vm::compile(&with_closure(2, *body))?;
        assert_eq!(dispatch_nodes(&vm), 2);
        let detail = "closure-label of non-closure 5".to_string();
        assert_eq!(
            vm.run(&[Datum::Int(5)], Limits::default()),
            Err(InterpError::Trap(Trap::BadDispatch { pc: 1, detail }))
        );
        Ok(())
    }

    #[test]
    fn an_allocating_subject_stays_a_chain_of_ifs() -> R {
        let consed =
            S0Simple::Prim(Prim::Car, vec![S0Simple::Prim(Prim::Cons, vec![var("k"), var("x")])]);
        let made = S0Simple::MakeClosure(2, vec![var("x")]);
        for subject in [consed, made] {
            let body = on_label(1, &subject, ret(10), on_label(2, &subject, ret(20), ret(99)));
            let vm = Vm::compile(&with_closure(2, *body))?;
            assert_eq!(dispatch_nodes(&vm), 0, "{subject:?}");
            let (d, stats, branches) = run_go(&vm)?;
            assert_eq!(d, Datum::Int(20));
            // Each test evaluates (and allocates) its subject afresh.
            assert_eq!(stats, VmStats { steps: 4, allocs: 3, calls: 1 }, "{subject:?}");
            assert_eq!(branches, (1, 1));
        }
        Ok(())
    }
}
