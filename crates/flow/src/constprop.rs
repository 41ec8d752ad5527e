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

use crate::s0::{ParamRows, S0Program, S0Simple, S0Tail};
use pe_frontend::ast::Constant;
use pe_governor::{Fuel, Trap};
use std::collections::HashMap;

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
    /// `params[name][i]` — abstract value of parameter `i` of `name`'s
    /// first definition (the one calls reach).
    pub params: HashMap<String, Vec<CVal>>,
}

/// The value of a call argument, with `var` reading the caller's
/// parameters.
fn eval_arg(arg: &S0Simple, var: impl Fn(&str) -> Option<CVal>) -> CVal {
    match arg {
        S0Simple::Const(k) => CVal::Known(k.clone()),
        S0Simple::Var(v) => var(v).unwrap_or(CVal::Top),
        _ => CVal::Top,
    }
}

fn visit_calls(t: &S0Tail, f: &mut impl FnMut(&str, &[S0Simple])) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            visit_calls(a, f);
            visit_calls(b, f);
        }
        S0Tail::TailCall(p, args) => f(p, args),
    }
}

/// Runs the interprocedural fixpoint.  Entry parameters start at `Top`
/// (the outside world passes anything); everything else at `Bottom`.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the budget is exhausted before convergence.
pub fn analyze(p: &S0Program, fuel: &mut Fuel) -> Result<ConstFacts, Trap> {
    let first = p.first_definitions();
    let ParamRows { mut rows, row_of, envs } = p.param_rows(&first, CVal::Bottom);
    if let Some(&e) = first.get(p.entry.as_str()) {
        rows[e].iter_mut().for_each(|v| *v = CVal::Top);
    }
    let mut updates: Vec<(usize, usize, CVal)> = Vec::new();
    loop {
        fuel.step()?;
        let mut changed = false;
        for (i, q) in p.procs.iter().enumerate() {
            fuel.step()?;
            let row = &rows[row_of[i]];
            let var = |v: &str| envs[i].get(v).map(|&k| row[k].clone());
            // Joining every syntactic call is sound (an over-approximation
            // of the real callers); unreachable callers only push facts
            // toward Top, and a Bottom-environment variable contributes
            // nothing.  A procedure's updates are gathered from the rows
            // as they stand, then joined in.
            visit_calls(&q.body, &mut |callee, args| {
                if let Some(&r) = first.get(callee) {
                    for (k, a) in args.iter().enumerate() {
                        updates.push((r, k, eval_arg(a, var)));
                    }
                }
            });
            for (r, k, v) in updates.drain(..) {
                if let Some(slot) = rows[r].get_mut(k) {
                    changed |= slot.join(&v);
                }
            }
        }
        if !changed {
            return Ok(ConstFacts { params: p.named_rows(&first, rows) });
        }
    }
}

fn count_uses(t: &S0Tail, v: &str) -> usize {
    fn simple(s: &S0Simple, v: &str) -> usize {
        match s {
            S0Simple::Var(x) => usize::from(x == v),
            S0Simple::Const(_) => 0,
            S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
                args.iter().map(|a| simple(a, v)).sum()
            }
            S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => simple(a, v),
        }
    }
    match t {
        S0Tail::Return(s) => simple(s, v),
        S0Tail::If(c, a, b) => simple(c, v) + count_uses(a, v) + count_uses(b, v),
        S0Tail::TailCall(_, args) => args.iter().map(|a| simple(a, v)).sum(),
        S0Tail::Fail(_) => 0,
    }
}

/// Substitutes `Known` parameters by their constants throughout each
/// owning body.  Returns the rewritten program and the number of
/// variable occurrences replaced.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn propagate(p: S0Program, fuel: &mut Fuel) -> Result<(S0Program, usize), Trap> {
    let facts = analyze(&p, fuel)?;
    let mut replaced = 0usize;
    let mut p = p;
    for q in &mut p.procs {
        let map: HashMap<String, S0Simple> = q
            .params
            .iter()
            .zip(&facts.params[&q.name])
            .filter_map(|(pm, v)| match v {
                CVal::Known(k) => Some((pm.clone(), S0Simple::Const(k.clone()))),
                _ => None,
            })
            .collect();
        if map.is_empty() {
            continue;
        }
        for pm in map.keys() {
            replaced += count_uses(&q.body, pm);
        }
        q.body = q.body.subst(&map);
    }
    Ok((p, replaced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::S0Proc;
    use pe_frontend::Prim;
    use pe_governor::Limits;

    fn var(v: &str) -> S0Simple {
        S0Simple::Var(v.into())
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
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall("f".into(), vec![kint(5), var("x")]),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["a".into(), "b".into()],
                    body: S0Tail::TailCall("g".into(), vec![var("a"), var("b")]),
                },
                S0Proc {
                    name: "g".into(),
                    params: vec!["c".into(), "d".into()],
                    body: S0Tail::Return(S0Simple::Prim(Prim::Add, vec![var("c"), var("d")])),
                },
            ],
        };
        let (q, n) = propagate(p, &mut fuel()).unwrap();
        // c := 5 in g, a := 5 in f (one use each).
        assert_eq!(n, 2);
        let g = q.proc("g").unwrap();
        match &g.body {
            S0Tail::Return(S0Simple::Prim(Prim::Add, args)) => {
                assert_eq!(args[0], kint(5));
                assert_eq!(args[1], var("d"), "d stays dynamic");
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn disagreeing_sites_stay_dynamic() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::If(
                        var("x"),
                        Box::new(S0Tail::TailCall("f".into(), vec![kint(1)])),
                        Box::new(S0Tail::TailCall("f".into(), vec![kint(2)])),
                    ),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["a".into()],
                    body: S0Tail::Return(var("a")),
                },
            ],
        };
        let (q, n) = propagate(p.clone(), &mut fuel()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(q, p);
    }

    #[test]
    fn uncalled_procs_are_left_alone() {
        // junk's parameter is Bottom; nothing must be substituted.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec![],
                    body: S0Tail::Return(kint(1)),
                },
                S0Proc {
                    name: "junk".into(),
                    params: vec!["a".into()],
                    body: S0Tail::Return(var("a")),
                },
            ],
        };
        let (q, n) = propagate(p.clone(), &mut fuel()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(q, p);
    }
}
