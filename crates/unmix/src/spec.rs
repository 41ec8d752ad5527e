//! The reducer (specialization phase) of the Unmix clone.
//!
//! Driven by the [`Division`], the reducer
//! evaluates static expressions, rebuilds dynamic ones, **unfolds**
//! calls to non-residual procedures and **specializes** calls to
//! residual ones, memoizing on the tuple of static argument values —
//! classic Mix technology.  All residual binders are freshly named, so
//! unfolding never captures.

use crate::bta::{Bt, Division};
use pe_frontend::ast::{Constant, Expr, Label, Prim, Program};
use pe_frontend::Definition;
use pe_governor::Limits;
use pe_interp::value::apply_prim;
use pe_interp::Datum;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Options for the Unmix clone.
#[derive(Debug, Clone)]
pub struct UnmixOptions {
    /// Run post-unfolding, dead-parameter elimination and arity raising.
    pub postprocess: bool,
    /// Shared resource limits: `max_residual` bounds the residual
    /// procedure count and `max_unfold_depth` the call-unfolding depth.
    pub limits: Limits,
}

impl Default for UnmixOptions {
    fn default() -> Self {
        UnmixOptions {
            postprocess: true,
            // First-order residual programs are small; a tighter residual
            // budget than the pipeline default catches divergence sooner.
            limits: Limits { max_residual: 20_000, ..Limits::default() },
        }
    }
}

/// An error during first-order specialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnmixError {
    /// The subject program uses `lambda` or computed application.
    NotFirstOrder(String),
    /// The entry does not exist.
    NoSuchProc(String),
    /// Wrong number of entry binding-time slots.
    EntryArity { name: String, expected: usize, got: usize },
    /// A static expression faulted at specialization time.
    StaticError(String),
    /// Residual-procedure budget exhausted.
    Budget { procs: usize },
    /// Unfolding depth exceeded (static recursion that does not
    /// terminate, or too deep for the configured bound).
    DepthExceeded,
}

impl fmt::Display for UnmixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnmixError::NotFirstOrder(e) => {
                write!(f, "unmix: input is not first-order: {e}")
            }
            UnmixError::NoSuchProc(p) => write!(f, "unmix: no such procedure {p}"),
            UnmixError::EntryArity { name, expected, got } => {
                write!(f, "unmix: entry {name} expects {expected} slot(s), got {got}")
            }
            UnmixError::StaticError(m) => write!(f, "unmix: static evaluation faulted: {m}"),
            UnmixError::Budget { procs } => {
                write!(f, "unmix: exceeded budget of {procs} residual procedures")
            }
            UnmixError::DepthExceeded => write!(f, "unmix: unfolding depth exceeded"),
        }
    }
}

impl std::error::Error for UnmixError {}

/// A partial value: static datum or residual expression.
#[derive(Debug, Clone)]
enum Pv {
    Sta(Datum),
    Dyn(Expr),
}

impl Pv {
    fn lift(self, labels: &mut u32) -> Expr {
        match self {
            Pv::Sta(d) => Expr::Const(fresh(labels), datum_to_constant(&d)),
            Pv::Dyn(e) => e,
        }
    }
}

fn fresh(labels: &mut u32) -> Label {
    *labels += 1;
    Label(*labels)
}

fn datum_to_constant(d: &Datum) -> Constant {
    match d {
        Datum::Int(n) => Constant::Int(*n),
        Datum::Bool(b) => Constant::Bool(*b),
        Datum::Char(c) => Constant::Char(*c),
        Datum::Str(s) => Constant::Str(s.clone()),
        Datum::Sym(s) => Constant::Sym(s.clone()),
        Datum::Nil => Constant::Nil,
        Datum::Pair(p) => Constant::Pair(
            Arc::new(datum_to_constant(&p.0)),
            Arc::new(datum_to_constant(&p.1)),
        ),
        Datum::Closure(c) => match *c {},
    }
}

struct PendingProc {
    name: Arc<str>,
    proc_name: Arc<str>,
    static_args: Vec<Option<Datum>>,
    dyn_params: Vec<Arc<str>>,
}

/// Reducer event totals, accumulated as plain integers and flushed to
/// the trace sink once per specialization run.
#[derive(Debug, Default, Clone, Copy)]
struct UStats {
    memo_lookups: u64,
    memo_hits: u64,
    memo_misses: u64,
    unfold_steps: u64,
}

impl UStats {
    fn flush(&self, sink: &mut dyn pe_trace::Sink) {
        if sink.enabled() {
            use pe_trace::Counter;
            sink.counter(Counter::MemoLookups, self.memo_lookups);
            sink.counter(Counter::MemoHits, self.memo_hits);
            sink.counter(Counter::MemoMisses, self.memo_misses);
            sink.counter(Counter::UnfoldSteps, self.unfold_steps);
        }
    }
}

struct Unmix<'p> {
    prog: &'p Program,
    div: &'p Division,
    opts: UnmixOptions,
    labels: u32,
    next_var: u32,
    memo: HashMap<(Arc<str>, String), Arc<str>>,
    next_spec: HashMap<Arc<str>, u32>,
    pending: VecDeque<PendingProc>,
    done: Vec<Definition>,
    stats: UStats,
}

impl Unmix<'_> {
    fn fresh_var(&mut self) -> Arc<str> {
        self.next_var += 1;
        Arc::from(format!("u-{}", self.next_var).as_str())
    }

    fn spec_expr(
        &mut self,
        e: &Expr,
        env: &HashMap<Arc<str>, Pv>,
        depth: usize,
    ) -> Result<Pv, UnmixError> {
        if depth > self.opts.limits.max_unfold_depth {
            return Err(UnmixError::DepthExceeded);
        }
        match e {
            Expr::Var(_, v) => Ok(env
                .get(v)
                .cloned()
                .ok_or_else(|| UnmixError::StaticError(format!("unbound {v}")))?),
            Expr::Const(_, k) => Ok(Pv::Sta(constant_to_datum(k))),
            Expr::If(_, c, t, f) => match self.spec_expr(c, env, depth + 1)? {
                Pv::Sta(v) => {
                    if v.is_truthy() {
                        self.spec_expr(t, env, depth + 1)
                    } else {
                        self.spec_expr(f, env, depth + 1)
                    }
                }
                Pv::Dyn(ce) => {
                    let te = self.spec_expr(t, env, depth + 1)?.lift(&mut self.labels);
                    let fe = self.spec_expr(f, env, depth + 1)?.lift(&mut self.labels);
                    Ok(Pv::Dyn(Expr::If(
                        fresh(&mut self.labels),
                        Box::new(ce),
                        Box::new(te),
                        Box::new(fe),
                    )))
                }
            },
            Expr::Prim(_, op, args) => {
                let pvs = args
                    .iter()
                    .map(|a| self.spec_expr(a, env, depth + 1))
                    .collect::<Result<Vec<_>, _>>()?;
                if pvs.iter().all(|p| matches!(p, Pv::Sta(_))) {
                    let vals: Vec<Datum> = pvs
                        .iter()
                        .map(|p| match p {
                            Pv::Sta(d) => d.clone(),
                            Pv::Dyn(_) => unreachable!(),
                        })
                        .collect();
                    return match apply_prim(*op, &vals) {
                        Ok(v) => Ok(Pv::Sta(v)),
                        // Classic Mix behaviour: a fault in a static
                        // expression aborts specialization (demoting the
                        // value to dynamic would break the congruence the
                        // binding-time analysis established and send
                        // unfolding into a loop).
                        Err(e) => Err(UnmixError::StaticError(e.to_string())),
                    };
                }
                Ok(Pv::Dyn(Expr::Prim(
                    fresh(&mut self.labels),
                    *op,
                    pvs.into_iter().map(|p| p.lift(&mut self.labels)).collect(),
                )))
            }
            Expr::Call(_, p, args) => {
                let pvs = args
                    .iter()
                    .map(|a| self.spec_expr(a, env, depth + 1))
                    .collect::<Result<Vec<_>, _>>()?;
                if self.div.is_residual(p) {
                    self.spec_call(p, pvs)
                } else {
                    self.unfold_call(p, pvs, depth)
                }
            }
            Expr::Let(_, v, rhs, body) => {
                let rhs = self.spec_expr(rhs, env, depth + 1)?;
                match rhs {
                    Pv::Sta(d) => {
                        let mut inner = env.clone();
                        inner.insert(v.clone(), Pv::Sta(d));
                        self.spec_expr(body, &inner, depth + 1)
                    }
                    Pv::Dyn(re) => {
                        let fv = self.fresh_var();
                        let mut inner = env.clone();
                        inner.insert(
                            v.clone(),
                            Pv::Dyn(Expr::Var(fresh(&mut self.labels), fv.clone())),
                        );
                        let body = self.spec_expr(body, &inner, depth + 1)?;
                        let body = body.lift(&mut self.labels);
                        Ok(Pv::Dyn(self.build_let(fv, re, body)))
                    }
                }
            }
            Expr::Lambda(_, _, _) | Expr::App(_, _, _) => {
                Err(UnmixError::NotFirstOrder(e.to_sexpr().to_string()))
            }
        }
    }

    /// Builds `(let ((v rhs)) body)` with let-shrinking: the binding is
    /// dropped, substituted or kept depending on use count.
    fn build_let(&mut self, v: Arc<str>, rhs: Expr, body: Expr) -> Expr {
        let uses = count_uses(&body, &v);
        if uses == 0 && is_effect_free(&rhs) {
            return body;
        }
        if uses == 1 || matches!(rhs, Expr::Var(_, _) | Expr::Const(_, _)) {
            return subst_var(&body, &v, &rhs);
        }
        Expr::Let(fresh(&mut self.labels), v, Box::new(rhs), Box::new(body))
    }

    fn unfold_call(
        &mut self,
        p: &Arc<str>,
        pvs: Vec<Pv>,
        depth: usize,
    ) -> Result<Pv, UnmixError> {
        self.stats.unfold_steps += 1;
        let def = self
            .prog
            .def(p)
            .ok_or_else(|| UnmixError::NoSuchProc(p.to_string()))?;
        // Bind dynamic arguments to fresh lets to preserve sharing.
        let mut env = HashMap::new();
        let mut lets: Vec<(Arc<str>, Expr)> = Vec::new();
        for (param, pv) in def.params.iter().zip(pvs) {
            match pv {
                Pv::Sta(d) => {
                    env.insert(param.clone(), Pv::Sta(d));
                }
                Pv::Dyn(e) => {
                    let fv = self.fresh_var();
                    env.insert(
                        param.clone(),
                        Pv::Dyn(Expr::Var(fresh(&mut self.labels), fv.clone())),
                    );
                    lets.push((fv, e));
                }
            }
        }
        let body = self.spec_expr(&def.body, &env, depth + 1)?;
        match body {
            Pv::Sta(d) if lets.iter().all(|(_, e)| is_effect_free(e)) => Ok(Pv::Sta(d)),
            body => {
                let mut out = body.lift(&mut self.labels);
                for (v, e) in lets.into_iter().rev() {
                    out = self.build_let(v, e, out);
                }
                Ok(Pv::Dyn(out))
            }
        }
    }

    fn spec_call(&mut self, p: &Arc<str>, pvs: Vec<Pv>) -> Result<Pv, UnmixError> {
        let def = self
            .prog
            .def(p)
            .ok_or_else(|| UnmixError::NoSuchProc(p.to_string()))?;
        let division = &self.div.params[p];
        let mut static_args: Vec<Option<Datum>> = Vec::new();
        let mut dyn_args: Vec<Expr> = Vec::new();
        let mut key = String::new();
        for ((pv, bt), param) in pvs.into_iter().zip(division).zip(&def.params) {
            match (bt, pv) {
                (Bt::Static, Pv::Sta(d)) => {
                    key.push_str(&format!("{d}\u{1}"));
                    static_args.push(Some(d));
                }
                (Bt::Static, Pv::Dyn(e)) => {
                    // Congruence guarantees this cannot happen for BTA-
                    // derived divisions; fail loudly for hand-built ones.
                    return Err(UnmixError::StaticError(format!(
                        "dynamic value for static parameter {param} of {p}: {}",
                        e.to_sexpr()
                    )));
                }
                (Bt::Dynamic, pv) => {
                    dyn_args.push(pv.lift(&mut self.labels));
                    static_args.push(None);
                }
            }
        }
        self.stats.memo_lookups += 1;
        let hit = self.memo.get(&(p.clone(), key.clone())).cloned();
        let name = match hit {
            Some(n) => {
                self.stats.memo_hits += 1;
                n
            }
            None => {
                self.stats.memo_misses += 1;
                let n = self.next_spec.entry(p.clone()).or_insert(0);
                *n += 1;
                let name: Arc<str> = Arc::from(format!("{p}-${n}").as_str());
                self.memo.insert((p.clone(), key), name.clone());
                if self.memo.len() > self.opts.limits.max_residual {
                    return Err(UnmixError::Budget { procs: self.opts.limits.max_residual });
                }
                let dyn_params: Vec<Arc<str>> = static_args
                    .iter()
                    .zip(&def.params)
                    .filter(|(s, _)| s.is_none())
                    .map(|_| self.fresh_var())
                    .collect();
                self.pending.push_back(PendingProc {
                    name: name.clone(),
                    proc_name: p.clone(),
                    static_args,
                    dyn_params,
                });
                name
            }
        };
        Ok(Pv::Dyn(Expr::Call(fresh(&mut self.labels), name, dyn_args)))
    }
}

fn constant_to_datum(k: &Constant) -> Datum {
    pe_interp::Value::from_constant(k)
}

/// Counts free occurrences of `v` (first-order expressions only).
fn count_uses(e: &Expr, v: &str) -> usize {
    match e {
        Expr::Var(_, x) => usize::from(&**x == v),
        Expr::Const(_, _) => 0,
        Expr::If(_, c, t, f) => count_uses(c, v) + count_uses(t, v) + count_uses(f, v),
        Expr::Prim(_, _, args) | Expr::Call(_, _, args) => {
            args.iter().map(|a| count_uses(a, v)).sum()
        }
        Expr::Let(_, b, rhs, body) => {
            count_uses(rhs, v) + if &**b == v { 0 } else { count_uses(body, v) }
        }
        Expr::Lambda(_, _, _) | Expr::App(_, _, _) => 0,
    }
}

/// Substitutes `v := r` (safe: residual binders are all fresh/distinct).
pub(crate) fn subst_var(e: &Expr, v: &str, r: &Expr) -> Expr {
    match e {
        Expr::Var(_, x) if &**x == v => r.clone(),
        Expr::Var(_, _) | Expr::Const(_, _) => e.clone(),
        Expr::If(l, c, t, f) => Expr::If(
            *l,
            Box::new(subst_var(c, v, r)),
            Box::new(subst_var(t, v, r)),
            Box::new(subst_var(f, v, r)),
        ),
        Expr::Prim(l, op, args) => {
            Expr::Prim(*l, *op, args.iter().map(|a| subst_var(a, v, r)).collect())
        }
        Expr::Call(l, p, args) => {
            Expr::Call(*l, p.clone(), args.iter().map(|a| subst_var(a, v, r)).collect())
        }
        Expr::Let(l, b, rhs, body) => Expr::Let(
            *l,
            b.clone(),
            Box::new(subst_var(rhs, v, r)),
            if &**b == v { body.clone() } else { Box::new(subst_var(body, v, r)) },
        ),
        Expr::Lambda(_, _, _) | Expr::App(_, _, _) => e.clone(),
    }
}

/// An expression that cannot fault at run time.
pub(crate) fn is_effect_free(e: &Expr) -> bool {
    use Prim::*;
    match e {
        Expr::Var(_, _) | Expr::Const(_, _) => true,
        Expr::Prim(_, op, args) => {
            matches!(
                op,
                Cons | NullP | PairP | Not | EqP | EqvP | EqualP | SymbolP | NumberP | BooleanP
            ) && args.iter().all(is_effect_free)
        }
        _ => false,
    }
}

/// Checks that a program is first-order (no `lambda`, no computed
/// application).
pub fn check_first_order(p: &Program) -> Result<(), UnmixError> {
    for d in &p.defs {
        let mut bad = None;
        d.body.walk(&mut |e| {
            if bad.is_none() && matches!(e, Expr::Lambda(_, _, _) | Expr::App(_, _, _)) {
                bad = Some(e.to_sexpr().to_string());
            }
        });
        if let Some(b) = bad {
            return Err(UnmixError::NotFirstOrder(b));
        }
    }
    Ok(())
}

/// Specializes `entry` of the first-order program `p` with respect to
/// the static arguments in `slots` (`Some(v)` = static with value `v`).
/// Returns the residual first-order program; its entry is `entry-$1`.
///
/// # Errors
///
/// See [`UnmixError`].
pub fn specialize(
    p: &Program,
    entry: &str,
    slots: &[Option<Datum>],
    opts: &UnmixOptions,
) -> Result<Program, UnmixError> {
    specialize_with(p, entry, slots, opts, &mut pe_trace::NullSink)
}

/// Like [`specialize`], emitting bta/specialize/post phase spans plus
/// memo/unfold counters to `sink` (the counters flush even when the
/// reducer fails on a budget).
///
/// # Errors
///
/// See [`UnmixError`].
pub fn specialize_with(
    p: &Program,
    entry: &str,
    slots: &[Option<Datum>],
    opts: &UnmixOptions,
    sink: &mut dyn pe_trace::Sink,
) -> Result<Program, UnmixError> {
    check_first_order(p)?;
    let def = p
        .def(entry)
        .ok_or_else(|| UnmixError::NoSuchProc(entry.to_string()))?;
    if def.params.len() != slots.len() {
        return Err(UnmixError::EntryArity {
            name: entry.to_string(),
            expected: def.params.len(),
            got: slots.len(),
        });
    }
    let static_flags: Vec<bool> = slots.iter().map(Option::is_some).collect();
    let t = pe_trace::begin(sink, pe_trace::Phase::Bta);
    let div = Division::analyze(p, entry, &static_flags);
    pe_trace::end(sink, t);
    #[cfg(debug_assertions)]
    {
        let violations = div.audit(p, entry);
        debug_assert!(
            violations.is_empty(),
            "binding-time analysis produced a non-congruent division:\n{}",
            violations.join("\n")
        );
    }
    let mut u = Unmix {
        prog: p,
        div: &div,
        opts: opts.clone(),
        labels: 0,
        next_var: 0,
        memo: HashMap::new(),
        next_spec: HashMap::new(),
        pending: VecDeque::new(),
        done: Vec::new(),
        stats: UStats::default(),
    };
    let t = pe_trace::begin(sink, pe_trace::Phase::Specialize);
    let reduced = reduce(&mut u, def, slots);
    u.stats.flush(sink);
    pe_trace::end(sink, t);
    let residual = Program { defs: reduced? };
    let residual = if opts.postprocess {
        let t = pe_trace::begin(sink, pe_trace::Phase::Post);
        let q = crate::postproc::postprocess(residual);
        pe_trace::end(sink, t);
        q
    } else {
        residual
    };
    if sink.enabled() {
        sink.counter(pe_trace::Counter::ResidualProcs, residual.defs.len() as u64);
        let mut nodes = 0u64;
        for d in &residual.defs {
            d.body.walk(&mut |_| nodes += 1);
        }
        sink.counter(pe_trace::Counter::ResidualNodes, nodes);
    }
    Ok(residual)
}

/// The reducer loop: seeds the entry, drains the pending queue, and
/// returns the residual definitions with the entry first.
fn reduce(
    u: &mut Unmix<'_>,
    def: &Definition,
    slots: &[Option<Datum>],
) -> Result<Vec<Definition>, UnmixError> {
    // Seed with the entry itself.
    let entry_pvs: Vec<Pv> = slots
        .iter()
        .enumerate()
        .map(|(i, s)| match s {
            Some(d) => Pv::Sta(d.clone()),
            None => Pv::Dyn(Expr::Var(Label(u32::MAX - i as u32), def.params[i].clone())),
        })
        .collect();
    // The entry is residual by construction, so this enqueues it.
    let seed = u.spec_call(&def.name, entry_pvs)?;
    let entry_name = match &seed {
        Pv::Dyn(Expr::Call(_, n, _)) => n.clone(),
        _ => {
            return Err(UnmixError::StaticError(
                "entry specialization did not produce a residual call".to_string(),
            ))
        }
    };
    while let Some(pp) = u.pending.pop_front() {
        if u.done.len() >= u.opts.limits.max_residual {
            return Err(UnmixError::Budget { procs: u.opts.limits.max_residual });
        }
        // Pending procedures only come from spec_call, which resolved
        // the definition — a miss here means the program changed under
        // us, which must surface as an error, not a panic.
        let def = u
            .prog
            .def(&pp.proc_name)
            .ok_or_else(|| UnmixError::NoSuchProc(pp.proc_name.to_string()))?;
        let mut env = HashMap::new();
        let mut dyn_iter = pp.dyn_params.iter();
        for (param, sa) in def.params.iter().zip(&pp.static_args) {
            match sa {
                Some(d) => {
                    env.insert(param.clone(), Pv::Sta(d.clone()));
                }
                None => {
                    let fv = dyn_iter.next().ok_or_else(|| {
                        UnmixError::StaticError(format!(
                            "missing fresh variable for dynamic parameter {param} of {}",
                            pp.proc_name
                        ))
                    })?;
                    env.insert(
                        param.clone(),
                        Pv::Dyn(Expr::Var(fresh(&mut u.labels), fv.clone())),
                    );
                }
            }
        }
        let body = u.spec_expr(&def.body, &env, 0)?;
        let body = body.lift(&mut u.labels);
        u.done.push(Definition { name: pp.name, params: pp.dyn_params, body });
    }
    // Present the entry first.
    let mut defs = std::mem::take(&mut u.done);
    if let Some(pos) = defs.iter().position(|d| d.name == entry_name) {
        defs.swap(0, pos);
    }
    Ok(defs)
}
