//! Interprocedural copy/constant propagation over S₀.
//!
//! S₀ has exactly one binding construct — procedure parameters — so
//! copies and constants propagate through *calls*: parameter `(f, i)`
//! is known to be the constant `k` when every call site's `i`-th
//! argument evaluates to `k` under the caller's own facts.  Passing a
//! parameter along (`(f x)` where `x` is itself known) chains copies
//! without any extra machinery: argument evaluation looks variables up
//! in the caller's fact row.
//!
//! The lattice per parameter is flat:
//!
//! ```text
//!      Top            (some call passes an unknown value)
//!   Known(k)          (every call passes the constant k)
//!     Bottom          (no call reaches the parameter yet)
//! ```
//!
//! The rewrite substitutes `Known` parameters by their constants inside
//! the owning body (the parameter itself stays and is collected by
//! dead-parameter pruning afterwards), counting replaced occurrences —
//! the `copies_propagated` counter.

use crate::s0::{S0Program, S0Simple, S0Tail};
use pe_frontend::ast::Constant;
use pe_governor::{Fuel, Trap};

/// One parameter's abstract value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CVal {
    /// No call site reaches this parameter (yet).
    Bottom,
    /// Every call site passes exactly this constant.
    Known(Constant),
    /// Call sites disagree or pass computed values.
    Top,
}

impl CVal {
    /// Joins `other` into `self`; returns true when `self` changed.
    fn join(&mut self, other: &CVal) -> bool {
        match (&*self, other) {
            (_, CVal::Bottom) | (CVal::Top, _) => false,
            (CVal::Bottom, _) => {
                *self = other.clone();
                true
            }
            (CVal::Known(a), CVal::Known(b)) if a == b => false,
            _ => {
                *self = CVal::Top;
                true
            }
        }
    }
}

/// Per-procedure parameter facts.
#[derive(Debug, Clone)]
pub struct ConstFacts {
    /// `params[i][k]` — abstract value of parameter `k` of the
    /// procedure at position `i`.
    pub params: Vec<Vec<CVal>>,
}

/// The value of a call argument, with `var` reading the caller's
/// parameters.
fn eval_arg(arg: &S0Simple, var: impl Fn(usize) -> Option<CVal>) -> CVal {
    match arg {
        S0Simple::Const(k) => CVal::Known(k.clone()),
        S0Simple::Var(k) => var(*k).unwrap_or(CVal::Top),
        _ => CVal::Top,
    }
}

fn visit_calls(t: &S0Tail, f: &mut impl FnMut(usize, &[S0Simple])) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            visit_calls(a, f);
            visit_calls(b, f);
        }
        S0Tail::TailCall(p, args) => f(*p, args),
    }
}

/// Runs the interprocedural fixpoint.  Entry parameters start at `Top`
/// (the outside world passes anything); everything else at `Bottom`.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the budget is exhausted before convergence.
pub fn analyze(p: &S0Program, fuel: &mut Fuel) -> Result<ConstFacts, Trap> {
    let mut rows: Vec<Vec<CVal>> =
        p.procs.iter().map(|q| vec![CVal::Bottom; q.params.len()]).collect();
    if let Some(row) = rows.get_mut(p.entry) {
        row.fill(CVal::Top);
    }
    let mut updates: Vec<(usize, usize, CVal)> = Vec::new();
    loop {
        fuel.step()?;
        let mut changed = false;
        for (i, q) in p.procs.iter().enumerate() {
            fuel.step()?;
            let row = &rows[i];
            let var = |k: usize| row.get(k).cloned();
            // Joining every syntactic call is sound (an over-approximation
            // of the real callers); unreachable callers only push facts
            // toward Top, and a Bottom-environment variable contributes
            // nothing.  A procedure's updates are gathered from the rows
            // as they stand, then joined in.
            visit_calls(&q.body, &mut |callee, args| {
                for (k, a) in args.iter().enumerate() {
                    updates.push((callee, k, eval_arg(a, var)));
                }
            });
            for (r, k, v) in updates.drain(..) {
                if let Some(slot) = rows.get_mut(r).and_then(|row| row.get_mut(k)) {
                    changed |= slot.join(&v);
                }
            }
        }
        if !changed {
            return Ok(ConstFacts { params: rows });
        }
    }
}

/// Substitutes `Known` parameters by their constants throughout each
/// owning body, in place.  Returns the number of variable occurrences
/// replaced; on a trap `p` is as it was.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn propagate(p: &mut S0Program, fuel: &mut Fuel) -> Result<usize, Trap> {
    let facts = analyze(p, fuel)?;
    let mut replaced = 0usize;
    for (q, row) in p.procs.iter_mut().zip(&facts.params) {
        let known = |k: usize| match row.get(k) {
            Some(CVal::Known(c)) => Some(c),
            _ => None,
        };
        if !row.iter().any(|v| matches!(v, CVal::Known(_))) {
            continue;
        }
        q.body.vars(&mut |k| replaced += usize::from(known(k).is_some()));
        q.body = q.body.subst(&|k| match known(k) {
            Some(c) => S0Simple::Const(c.clone()),
            None => S0Simple::Var(k),
        });
    }
    Ok(replaced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::S0Proc;
    use pe_frontend::Prim;
    use pe_governor::Limits;

    fn var(k: usize) -> S0Simple {
        S0Simple::Var(k)
    }

    fn kint(n: i64) -> S0Simple {
        S0Simple::Const(Constant::Int(n))
    }

    fn fuel() -> Fuel {
        Fuel::new(&Limits::default())
    }

    #[test]
    fn constants_chain_through_copies() {
        // main passes 5 to f; f copies its param on to g; g's body uses
        // a known constant after two hops.
        let mut p = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(1, vec![kint(5), var(0)]),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["a".into(), "b".into()],
                    body: S0Tail::TailCall(2, vec![var(0), var(1)]),
                },
                S0Proc {
                    name: "g".into(),
                    params: vec!["c".into(), "d".into()],
                    body: S0Tail::Return(S0Simple::Prim(Prim::Add, vec![var(0), var(1)])),
                },
            ],
        };
        let n = propagate(&mut p, &mut fuel()).unwrap();
        // c := 5 in g, a := 5 in f (one use each).
        assert_eq!(n, 2);
        match &p.procs[2].body {
            S0Tail::Return(S0Simple::Prim(Prim::Add, args)) => {
                assert_eq!(args[0], kint(5));
                assert_eq!(args[1], var(1), "d stays dynamic");
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn disagreeing_sites_stay_dynamic() {
        let p = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::If(
                        var(0),
                        Box::new(S0Tail::TailCall(1, vec![kint(1)])),
                        Box::new(S0Tail::TailCall(1, vec![kint(2)])),
                    ),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["a".into()],
                    body: S0Tail::Return(var(0)),
                },
            ],
        };
        let mut q = p.clone();
        let n = propagate(&mut q, &mut fuel()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(q, p);
    }

    #[test]
    fn uncalled_procs_are_left_alone() {
        // junk's parameter is Bottom; nothing must be substituted.
        let p = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec![],
                    body: S0Tail::Return(kint(1)),
                },
                S0Proc {
                    name: "junk".into(),
                    params: vec!["a".into()],
                    body: S0Tail::Return(var(0)),
                },
            ],
        };
        let mut q = p.clone();
        let n = propagate(&mut q, &mut fuel()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(q, p);
    }
}
