//! Parameter liveness over S₀.
//!
//! [`param_liveness`] is an interprocedural fixpoint: parameter
//! `(f, i)` is live when some occurrence of it is read outside call
//! arguments, or flows into a live (or unprunable) parameter of a
//! callee.  This is strictly stronger than the syntactic dead-code scan
//! the old post-processor used: a parameter that only circulates
//! through a recursive call (`f` passing `x` back to `f`) is dead here
//! but syntactically "used".  (Which variables a body reads at all is
//! one walk, [`S0Tail::vars`]: S₀ binds only at procedure entry.)
//!
//! Rows are keyed by procedure name and sized by the name's first
//! definition, the one calls resolve to ([`S0Program::proc`]); a later
//! duplicate definition reads and writes the row only up to its length.
//!
//! [`dead_params`] reads the analysis off a borrowed program and
//! [`drop_params`] rewrites by it: dead, non-sticky parameters of
//! non-entry procedures are dropped together with every (effect-free)
//! argument.  [`prune_dead_params`] runs the two in turn.

use crate::opt::is_effect_free;
use crate::s0::{S0Program, S0Tail};
use pe_governor::{Fuel, Trap};
use std::collections::{HashMap, HashSet};

/// Result of the interprocedural parameter-liveness fixpoint.
#[derive(Debug, Clone)]
pub struct ParamLiveness {
    /// `live[name][i]` — may parameter `i` of `name` affect execution?
    pub live: HashMap<String, Vec<bool>>,
    /// `sticky[name][i]` — does some call site pass a non-effect-free
    /// argument there (so the slot cannot be dropped even when dead)?
    pub sticky: HashMap<String, Vec<bool>>,
}

/// Per-procedure syntactic summary feeding the fixpoint.
struct Uses {
    /// Variables read outside call-argument position.
    direct: HashSet<String>,
    /// `(callee, arg index, variables inside that argument)`.
    flows: Vec<(String, usize, HashSet<String>)>,
}

fn collect_uses(t: &S0Tail, out: &mut Uses) {
    match t {
        S0Tail::Return(s) => s.vars(&mut out.direct),
        S0Tail::Fail(_) => {}
        S0Tail::If(c, a, b) => {
            c.vars(&mut out.direct);
            collect_uses(a, out);
            collect_uses(b, out);
        }
        S0Tail::TailCall(callee, args) => {
            for (i, a) in args.iter().enumerate() {
                let mut vs = HashSet::new();
                a.vars(&mut vs);
                out.flows.push((callee.clone(), i, vs));
            }
        }
    }
}

/// Computes the interprocedural parameter-liveness fixpoint.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the budget is exhausted before convergence.
pub fn param_liveness(p: &S0Program, fuel: &mut Fuel) -> Result<ParamLiveness, Trap> {
    let mut sticky = p.param_rows(false);
    let uses: Vec<Uses> = p
        .procs
        .iter()
        .map(|q| {
            let mut u = Uses { direct: HashSet::new(), flows: Vec::new() };
            collect_uses(&q.body, &mut u);
            u
        })
        .collect();
    // Stickiness: any site passing a non-effect-free argument.
    for q in &p.procs {
        mark_sticky(&q.body, &mut sticky);
    }
    let mut live = p.param_rows(false);
    if let Some(e) = live.get_mut(&p.entry) {
        e.iter_mut().for_each(|b| *b = true);
    }
    // Round-robin to fixpoint: mark a proc's variable live when it is
    // read directly or flows into a live-or-sticky parameter slot.
    loop {
        fuel.step()?;
        let mut changed = false;
        for (q, u) in p.procs.iter().zip(&uses) {
            fuel.step()?;
            let mut live_vars: HashSet<&str> =
                u.direct.iter().map(String::as_str).collect();
            for (callee, i, vs) in &u.flows {
                let callee_live = live.get(callee).and_then(|l| l.get(*i)).copied();
                let callee_sticky =
                    sticky.get(callee).and_then(|l| l.get(*i)).copied().unwrap_or(true);
                // Unknown callee or arity overflow: be conservative.
                if callee_live.unwrap_or(true) || callee_sticky {
                    live_vars.extend(vs.iter().map(String::as_str));
                }
            }
            let slots = live.get_mut(&q.name).expect("every proc seeded");
            for (slot, pm) in slots.iter_mut().zip(&q.params) {
                if !*slot && live_vars.contains(pm.as_str()) {
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

fn mark_sticky(t: &S0Tail, sticky: &mut HashMap<String, Vec<bool>>) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            mark_sticky(a, sticky);
            mark_sticky(b, sticky);
        }
        S0Tail::TailCall(callee, args) => {
            if let Some(slots) = sticky.get_mut(callee) {
                for (i, a) in args.iter().enumerate() {
                    if let Some(s) = slots.get_mut(i) {
                        *s |= !is_effect_free(a);
                    }
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
    for q in &p.procs {
        if q.name == p.entry {
            continue;
        }
        let (live, sticky) = (&pl.live[&q.name], &pl.sticky[&q.name]);
        let idxs: Vec<usize> = (0..live.len()).filter(|&i| !live[i] && !sticky[i]).collect();
        if !idxs.is_empty() {
            drop.insert(q.name.clone(), idxs);
        }
    }
    Ok(drop)
}

/// Drops the parameters `drop` names together with the corresponding
/// arguments at every call site.
pub fn drop_params(mut p: S0Program, drop: &HashMap<String, Vec<usize>>) -> S0Program {
    if drop.is_empty() {
        return p;
    }
    for q in &mut p.procs {
        if let Some(idxs) = drop.get(&q.name) {
            q.params = keep_except(&q.params, idxs);
        }
        q.body = rewrite_drop_args(&q.body, drop);
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

fn keep_except<T: Clone>(xs: &[T], idxs: &[usize]) -> Vec<T> {
    xs.iter()
        .enumerate()
        .filter(|(i, _)| !idxs.contains(i))
        .map(|(_, x)| x.clone())
        .collect()
}

fn rewrite_drop_args(t: &S0Tail, drop: &HashMap<String, Vec<usize>>) -> S0Tail {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => t.clone(),
        S0Tail::If(c, a, b) => S0Tail::If(
            c.clone(),
            Box::new(rewrite_drop_args(a, drop)),
            Box::new(rewrite_drop_args(b, drop)),
        ),
        S0Tail::TailCall(callee, args) => {
            let args = match drop.get(callee) {
                Some(idxs) => keep_except(args, idxs),
                None => args.clone(),
            };
            S0Tail::TailCall(callee.clone(), args)
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
