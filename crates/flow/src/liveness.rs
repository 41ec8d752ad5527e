//! Parameter liveness over S₀.
//!
//! The analysis is an interprocedural fixpoint: parameter
//! `(f, i)` is live when some occurrence of it is read outside call
//! arguments, or flows into a live (or unprunable) parameter of a
//! callee.  This is strictly stronger than the syntactic dead-code scan
//! the old post-processor used: a parameter that only circulates
//! through a recursive call (`f` passing `x` back to `f`) is dead here
//! but syntactically "used".  (Which variables a body reads at all is
//! one walk, [`S0Tail::vars`]: S₀ binds only at procedure entry.)
//!
//! Each body is summarized once into its own parameter positions: the
//! positions it reads outside call arguments, and for each call
//! argument the callee slot it fills and the positions it reads.  The
//! fixpoint then runs over one row of flags per procedure position,
//! one flag per parameter position.
//!
//! [`dead_params`] reads the analysis off a borrowed program and
//! [`drop_params`] rewrites by it: dead, non-sticky parameters of
//! non-entry procedures are dropped together with every (effect-free)
//! argument, and each body's variables are renumbered to the positions
//! that remain.  [`prune_dead_params`] runs the two in turn.

use crate::opt::is_effect_free;
use crate::s0::{S0Program, S0Simple, S0Tail};
use pe_governor::{Fuel, Trap};

/// Result of the interprocedural parameter-liveness fixpoint, one row
/// per procedure position.
struct ParamLiveness {
    /// `live[i][k]` — may parameter `k` of procedure `i` affect
    /// execution?
    live: Vec<Vec<bool>>,
    /// `sticky[i][k]` — does some call site pass a non-effect-free
    /// argument there (so the slot cannot be dropped even when dead)?
    sticky: Vec<Vec<bool>>,
}

/// One body summarized into its own parameter positions, once, for the
/// fixpoint.
struct Uses {
    /// `direct[k]` — is parameter `k` read outside call arguments, or
    /// passed where the callee's slot is unknown?
    direct: Vec<bool>,
    /// `(callee, argument index, end in `reads`)` for each argument
    /// into a known slot that reads a parameter: its positions are
    /// `reads` from the previous flow's end to its own.
    flows: Vec<(usize, usize, usize)>,
    /// The parameter positions the flows read, flow after flow.
    reads: Vec<usize>,
}

/// Calls `f` on each parameter position below `arity` that `s` reads.
fn reads(s: &S0Simple, arity: usize, f: &mut impl FnMut(usize)) {
    s.vars(&mut |k| {
        if k < arity {
            f(k);
        }
    });
}

fn summarize(t: &S0Tail, p: &S0Program, arity: usize, u: &mut Uses) {
    match t {
        S0Tail::Return(s) => reads(s, arity, &mut |k| u.direct[k] = true),
        S0Tail::Fail(_) => {}
        S0Tail::If(c, a, b) => {
            reads(c, arity, &mut |k| u.direct[k] = true);
            summarize(a, p, arity, u);
            summarize(b, p, arity, u);
        }
        S0Tail::TailCall(callee, args) => {
            let slots = p.procs.get(*callee).map_or(0, |q| q.params.len());
            for (i, a) in args.iter().enumerate() {
                if i < slots {
                    let start = u.reads.len();
                    reads(a, arity, &mut |k| u.reads.push(k));
                    if u.reads.len() > start {
                        u.flows.push((*callee, i, u.reads.len()));
                    }
                } else {
                    // Unknown callee or arity overflow: be conservative.
                    reads(a, arity, &mut |k| u.direct[k] = true);
                }
            }
        }
    }
}

/// Computes the interprocedural parameter-liveness fixpoint.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the budget is exhausted before convergence.
fn param_liveness(p: &S0Program, fuel: &mut Fuel) -> Result<ParamLiveness, Trap> {
    let rows = |init: bool| -> Vec<Vec<bool>> {
        p.procs.iter().map(|q| vec![init; q.params.len()]).collect()
    };
    let uses: Vec<Uses> = p
        .procs
        .iter()
        .map(|q| {
            let arity = q.params.len();
            let mut u = Uses { direct: vec![false; arity], flows: Vec::new(), reads: Vec::new() };
            summarize(&q.body, p, arity, &mut u);
            u
        })
        .collect();
    // Stickiness: any site passing a non-effect-free argument.
    let mut sticky = rows(false);
    for q in &p.procs {
        mark_sticky(&q.body, &mut sticky);
    }
    let mut live = rows(false);
    if let Some(row) = live.get_mut(p.entry) {
        row.fill(true);
    }
    // Round-robin to fixpoint: mark a proc's parameter live when it is
    // read directly or flows into a live-or-sticky parameter slot.  A
    // proc's marks are gathered before its row is updated.
    let mut marks = Vec::new();
    loop {
        fuel.step()?;
        let mut changed = false;
        for (i, u) in uses.iter().enumerate() {
            fuel.step()?;
            marks.clear();
            marks.extend_from_slice(&u.direct);
            let mut start = 0;
            for &(r, k, end) in &u.flows {
                if live[r][k] || sticky[r][k] {
                    u.reads[start..end].iter().for_each(|&j| marks[j] = true);
                }
                start = end;
            }
            for (slot, &m) in live[i].iter_mut().zip(&marks) {
                if m && !*slot {
                    *slot = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(ParamLiveness { live, sticky });
        }
    }
}

fn mark_sticky(t: &S0Tail, sticky: &mut [Vec<bool>]) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            mark_sticky(a, sticky);
            mark_sticky(b, sticky);
        }
        S0Tail::TailCall(callee, args) => {
            if let Some(row) = sticky.get_mut(*callee) {
                for (s, a) in row.iter_mut().zip(args) {
                    *s |= !is_effect_free(a);
                }
            }
        }
    }
}

/// The dead, non-sticky parameters of each procedure, by procedure
/// position: parameter positions in ascending order, none for the
/// entry.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn dead_params(p: &S0Program, fuel: &mut Fuel) -> Result<Vec<Vec<usize>>, Trap> {
    let pl = param_liveness(p, fuel)?;
    Ok(pl
        .live
        .iter()
        .zip(&pl.sticky)
        .enumerate()
        .map(|(i, (live, sticky))| {
            if i == p.entry {
                return Vec::new();
            }
            (0..live.len()).filter(|&k| !live[k] && !sticky[k]).collect()
        })
        .collect())
}

/// Drops the parameters `drop` lists, by procedure position, together
/// with the corresponding arguments at every call site, in place, and
/// renumbers each body that lost a parameter to the positions that
/// remain.  A variable past its procedure's parameters stays past them.
pub fn drop_params(p: &mut S0Program, drop: &[Vec<usize>]) {
    if drop.iter().all(Vec::is_empty) {
        return;
    }
    for (i, q) in p.procs.iter_mut().enumerate() {
        drop_args(&mut q.body, drop);
        let Some(idxs) = drop.get(i).filter(|d| !d.is_empty()) else { continue };
        let arity = q.params.len();
        // Each old position's new one: the positions below it that stay.
        let mut to = Vec::with_capacity(arity);
        let mut kept = 0;
        for k in 0..arity {
            to.push(kept);
            kept += usize::from(!idxs.contains(&k));
        }
        let gone = arity - kept;
        q.body = q.body.subst(&|k| S0Simple::Var(to.get(k).map_or_else(|| k - gone, |&j| j)));
        keep_except(&mut q.params, idxs);
    }
}

/// Drops dead, non-sticky parameters of non-entry procedures together
/// with the corresponding arguments at every call site.  Returns the
/// number of parameter bindings eliminated; on a trap `p` is as it was.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn prune_dead_params(p: &mut S0Program, fuel: &mut Fuel) -> Result<usize, Trap> {
    let drop = dead_params(p, fuel)?;
    drop_params(p, &drop);
    Ok(drop.iter().map(Vec::len).sum())
}

/// Removes the elements of `xs` at positions `idxs`.
fn keep_except<T>(xs: &mut Vec<T>, idxs: &[usize]) {
    let mut i = 0;
    xs.retain(|_| {
        i += 1;
        !idxs.contains(&(i - 1))
    });
}

fn drop_args(t: &mut S0Tail, drop: &[Vec<usize>]) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            drop_args(a, drop);
            drop_args(b, drop);
        }
        S0Tail::TailCall(callee, args) => {
            if let Some(idxs) = drop.get(*callee) {
                keep_except(args, idxs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::{S0Proc, S0Simple};
    use pe_frontend::ast::Constant;
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
    fn recursive_passthrough_param_is_dead() {
        // x only circulates through the recursive call: the syntactic
        // scan keeps it; the interprocedural fixpoint kills it.
        let mut p = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["n".into()],
                    body: S0Tail::TailCall(1, vec![kint(7), var(0)]),
                },
                S0Proc {
                    name: "loop".into(),
                    params: vec!["x".into(), "n".into()],
                    body: S0Tail::If(
                        S0Simple::Prim(Prim::ZeroP, vec![var(1)]),
                        Box::new(S0Tail::Return(kint(0))),
                        Box::new(S0Tail::TailCall(
                            1,
                            vec![var(0), S0Simple::Prim(Prim::Sub, vec![var(1), kint(1)])],
                        )),
                    ),
                },
            ],
        };
        let dropped = prune_dead_params(&mut p, &mut fuel()).unwrap();
        assert_eq!(dropped, 1);
        // `n` moved from position 1 to 0, in the body and at both calls.
        let lp = &p.procs[1];
        assert_eq!(lp.params, vec!["n".to_string()]);
        assert_eq!(
            lp.body,
            S0Tail::If(
                S0Simple::Prim(Prim::ZeroP, vec![var(0)]),
                Box::new(S0Tail::Return(kint(0))),
                Box::new(S0Tail::TailCall(
                    1,
                    vec![S0Simple::Prim(Prim::Sub, vec![var(0), kint(1)])]
                )),
            )
        );
        assert_eq!(p.procs[0].body, S0Tail::TailCall(1, vec![var(0)]));
        assert!(crate::check(&p).is_empty(), "{p}");
    }

    #[test]
    fn a_read_position_stays_live_whatever_the_names() {
        // `f` binds `a` twice; only the position read is live, so the
        // second `a` and `b` are dead.
        let p = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(1, vec![var(0), kint(1), kint(2)]),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["a".into(), "a".into(), "b".into()],
                    body: S0Tail::Return(var(0)),
                },
            ],
        };
        let dead = dead_params(&p, &mut fuel()).unwrap();
        assert_eq!(dead, [vec![], vec![1, 2]]);
    }

    #[test]
    fn sticky_args_keep_dead_params() {
        // The dead slot receives (car x) somewhere: dropping the
        // argument would drop a potential fault, so the slot stays.
        let mut p = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(
                        1,
                        vec![S0Simple::Prim(Prim::Car, vec![var(0)]), var(0)],
                    ),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["dead".into(), "live".into()],
                    body: S0Tail::Return(var(1)),
                },
            ],
        };
        let dropped = prune_dead_params(&mut p, &mut fuel()).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(p.procs[1].params.len(), 2);
    }
}
