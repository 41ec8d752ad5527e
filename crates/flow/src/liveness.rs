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
//! fixpoint then runs over rows of flags indexed by the position of
//! each name's first definition, the one calls resolve to
//! ([`S0Program::proc`]); a later duplicate definition reads and writes
//! that row only up to its length.
//!
//! [`dead_params`] reads the analysis off a borrowed program and
//! [`drop_params`] rewrites by it: dead, non-sticky parameters of
//! non-entry procedures are dropped together with every (effect-free)
//! argument.  [`prune_dead_params`] runs the two in turn.

use crate::opt::is_effect_free;
use crate::s0::{S0Program, S0Simple, S0Tail};
use pe_governor::{Fuel, Trap};
use std::collections::HashMap;

/// Result of the interprocedural parameter-liveness fixpoint.  Rows are
/// indexed by procedure position; only a name's first definition has a
/// row that anything reads.
struct ParamLiveness {
    /// `live[i][k]` — may parameter `k` of procedure `i` affect
    /// execution?
    live: Vec<Vec<bool>>,
    /// `sticky[i][k]` — does some call site pass a non-effect-free
    /// argument there (so the slot cannot be dropped even when dead)?
    sticky: Vec<Vec<bool>>,
    /// `row[i]` — the position of the first definition of procedure
    /// `i`'s name, whose row its facts live in.
    row: Vec<usize>,
}

/// One body summarized into its own parameter positions, once, for the
/// fixpoint.
struct Uses {
    /// `direct[k]` — is parameter `k` read outside call arguments, or
    /// passed where the callee's slot is unknown?
    direct: Vec<bool>,
    /// `(callee row, argument index, end in `reads`)` for each argument
    /// into a known slot that reads a parameter: its positions are
    /// `reads` from the previous flow's end to its own.
    flows: Vec<(usize, usize, usize)>,
    /// The parameter positions the flows read, flow after flow.
    reads: Vec<usize>,
}

/// Calls `f` on each position of `params` that `s` reads; a name that
/// several parameters share reads all of them.
fn reads(s: &S0Simple, params: &[String], f: &mut impl FnMut(usize)) {
    match s {
        S0Simple::Var(v) => {
            params.iter().enumerate().filter(|(_, pm)| *pm == v).for_each(|(k, _)| f(k));
        }
        S0Simple::Const(_) => {}
        S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
            args.iter().for_each(|a| reads(a, params, f));
        }
        S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => reads(a, params, f),
    }
}

fn summarize(
    t: &S0Tail,
    p: &S0Program,
    params: &[String],
    first: &HashMap<&str, usize>,
    u: &mut Uses,
) {
    match t {
        S0Tail::Return(s) => reads(s, params, &mut |k| u.direct[k] = true),
        S0Tail::Fail(_) => {}
        S0Tail::If(c, a, b) => {
            reads(c, params, &mut |k| u.direct[k] = true);
            summarize(a, p, params, first, u);
            summarize(b, p, params, first, u);
        }
        S0Tail::TailCall(callee, args) => {
            let callee = first.get(callee.as_str()).copied();
            for (i, a) in args.iter().enumerate() {
                match callee {
                    Some(r) if i < p.procs[r].params.len() => {
                        let start = u.reads.len();
                        reads(a, params, &mut |k| u.reads.push(k));
                        if u.reads.len() > start {
                            u.flows.push((r, i, u.reads.len()));
                        }
                    }
                    // Unknown callee or arity overflow: be conservative.
                    _ => reads(a, params, &mut |k| u.direct[k] = true),
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
    let first = p.first_definitions();
    let row: Vec<usize> = p.procs.iter().map(|q| first[q.name.as_str()]).collect();
    let rows = |init: bool| -> Vec<Vec<bool>> {
        p.procs.iter().map(|q| vec![init; q.params.len()]).collect()
    };
    let uses: Vec<Uses> = p
        .procs
        .iter()
        .map(|q| {
            let mut u =
                Uses { direct: vec![false; q.params.len()], flows: Vec::new(), reads: Vec::new() };
            summarize(&q.body, p, &q.params, &first, &mut u);
            u
        })
        .collect();
    // Stickiness: any site passing a non-effect-free argument.
    let mut sticky = rows(false);
    for q in &p.procs {
        mark_sticky(&q.body, &first, &mut sticky);
    }
    let mut live = rows(false);
    if let Some(&e) = first.get(p.entry.as_str()) {
        live[e].fill(true);
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
            for (slot, &m) in live[row[i]].iter_mut().zip(&marks) {
                if m && !*slot {
                    *slot = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(ParamLiveness { live, sticky, row });
        }
    }
}

fn mark_sticky(t: &S0Tail, first: &HashMap<&str, usize>, sticky: &mut [Vec<bool>]) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            mark_sticky(a, first, sticky);
            mark_sticky(b, first, sticky);
        }
        S0Tail::TailCall(callee, args) => {
            if let Some(&r) = first.get(callee.as_str()) {
                for (s, a) in sticky[r].iter_mut().zip(args) {
                    *s |= !is_effect_free(a);
                }
            }
        }
    }
}

/// The dead, non-sticky parameters of each non-entry procedure, by
/// position in ascending order; procedures with none are absent.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn dead_params(p: &S0Program, fuel: &mut Fuel) -> Result<HashMap<String, Vec<usize>>, Trap> {
    let pl = param_liveness(p, fuel)?;
    let mut drop: HashMap<String, Vec<usize>> = HashMap::new();
    for (q, &r) in p.procs.iter().zip(&pl.row) {
        if q.name == p.entry {
            continue;
        }
        let (live, sticky) = (&pl.live[r], &pl.sticky[r]);
        let idxs: Vec<usize> = (0..live.len()).filter(|&i| !live[i] && !sticky[i]).collect();
        if !idxs.is_empty() {
            drop.insert(q.name.clone(), idxs);
        }
    }
    Ok(drop)
}

/// Drops the parameters `drop` names together with the corresponding
/// arguments at every call site, in place.
pub fn drop_params(mut p: S0Program, drop: &HashMap<String, Vec<usize>>) -> S0Program {
    if drop.is_empty() {
        return p;
    }
    for q in &mut p.procs {
        if let Some(idxs) = drop.get(&q.name) {
            keep_except(&mut q.params, idxs);
        }
        drop_args(&mut q.body, drop);
    }
    p
}

/// Drops dead, non-sticky parameters of non-entry procedures together
/// with the corresponding arguments at every call site.  Returns the
/// rewritten program and the number of parameter bindings eliminated.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn prune_dead_params(
    p: S0Program,
    fuel: &mut Fuel,
) -> Result<(S0Program, usize), Trap> {
    let drop = dead_params(&p, fuel)?;
    let dropped: usize = drop.values().map(Vec::len).sum();
    Ok((drop_params(p, &drop), dropped))
}

/// Removes the elements of `xs` at positions `idxs`.
fn keep_except<T>(xs: &mut Vec<T>, idxs: &[usize]) {
    let mut i = 0;
    xs.retain(|_| {
        i += 1;
        !idxs.contains(&(i - 1))
    });
}

fn drop_args(t: &mut S0Tail, drop: &HashMap<String, Vec<usize>>) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            drop_args(a, drop);
            drop_args(b, drop);
        }
        S0Tail::TailCall(callee, args) => {
            if let Some(idxs) = drop.get(callee) {
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
    fn recursive_passthrough_param_is_dead() {
        // x only circulates through the recursive call: the syntactic
        // scan keeps it; the interprocedural fixpoint kills it.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["n".into()],
                    body: S0Tail::TailCall("loop".into(), vec![var("n"), kint(7)]),
                },
                S0Proc {
                    name: "loop".into(),
                    params: vec!["n".into(), "x".into()],
                    body: S0Tail::If(
                        S0Simple::Prim(Prim::ZeroP, vec![var("n")]),
                        Box::new(S0Tail::Return(kint(0))),
                        Box::new(S0Tail::TailCall(
                            "loop".into(),
                            vec![
                                S0Simple::Prim(Prim::Sub, vec![var("n"), kint(1)]),
                                var("x"),
                            ],
                        )),
                    ),
                },
            ],
        };
        let (q, dropped) = prune_dead_params(p, &mut fuel()).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(q.proc("loop").unwrap().params, vec!["n".to_string()]);
    }

    #[test]
    fn a_read_name_keeps_every_position_it_names_live() {
        // `f` binds `a` twice; reading `a` reads both positions, so only
        // the unread `b` is dead.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall("f".into(), vec![var("x"), kint(1), kint(2)]),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["a".into(), "a".into(), "b".into()],
                    body: S0Tail::Return(var("a")),
                },
            ],
        };
        let dead = dead_params(&p, &mut fuel()).unwrap();
        assert_eq!(dead, HashMap::from([("f".to_string(), vec![2])]));
    }

    #[test]
    fn sticky_args_keep_dead_params() {
        // The dead slot receives (car x) somewhere: dropping the
        // argument would drop a potential fault, so the slot stays.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(
                        "f".into(),
                        vec![S0Simple::Prim(Prim::Car, vec![var("x")]), var("x")],
                    ),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["dead".into(), "live".into()],
                    body: S0Tail::Return(var("live")),
                },
            ],
        };
        let (q, dropped) = prune_dead_params(p, &mut fuel()).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(q.proc("f").unwrap().params.len(), 2);
    }
}
