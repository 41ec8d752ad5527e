//! Static call-graph construction with size-change arc extraction.
//!
//! One [`SizeGraph`] is built per syntactic call edge.  Calls made from
//! inside lambdas are attributed to the procedure that (transitively)
//! creates the lambda: alpha-renaming makes every `VarId` globally
//! unique, so a free variable captured from the enclosing procedure's
//! frame still *is* that procedure's parameter, and the arc extraction
//! needs no substitution.  An argument that mentions only lambda-local
//! variables (or another call's result) simply yields no arc — the
//! sound "no information" default.

use crate::graph::{Descent, Rel, SizeGraph};
use pe_frontend::ast::{Constant, Prim};
use pe_frontend::dast::{DProgram, LamId, ProcId, SimpleExpr, TailExpr, VarId};
use std::collections::BTreeSet;

/// Builds every size-change graph of the program, in deterministic
/// (procedure, syntax) order.  `owned` is [`DProgram::owned_lambdas`]:
/// after a procedure's body come the bodies of the lambdas it owns
/// (closures can be invoked later, transferring control back into this
/// frame's data).
pub fn build(p: &DProgram, owned: &[Vec<LamId>]) -> Vec<SizeGraph> {
    let mut out = Vec::new();
    for ((i, def), lams) in p.defs.iter().enumerate().zip(owned) {
        let src = ProcId(i as u32);
        graphs_in_tail(p, src, &def.params, &def.body, &mut out);
        for &l in lams {
            graphs_in_tail(p, src, &def.params, &p.lambda(l).body, &mut out);
        }
    }
    out
}

fn graphs_in_tail(
    p: &DProgram,
    src: ProcId,
    params: &[VarId],
    te: &TailExpr,
    out: &mut Vec<SizeGraph>,
) {
    match te {
        TailExpr::Simple(_) => {}
        TailExpr::If(_, _, t, e) => {
            graphs_in_tail(p, src, params, t, out);
            graphs_in_tail(p, src, params, e, out);
        }
        TailExpr::CallProc(_, pid, args) => {
            let mut g = SizeGraph::empty(src, *pid);
            for (j, arg) in args.iter().enumerate() {
                for (i, rel) in arcs_for_arg(p, params, arg) {
                    g.add_arc(i, j as u32, rel);
                }
            }
            out.push(g);
        }
        TailExpr::PushApp(_, _, body) => graphs_in_tail(p, src, params, body, out),
    }
}

/// The guaranteed relations between caller parameters and one argument
/// expression: `(caller parameter index, relation)` pairs.
fn arcs_for_arg(
    p: &DProgram,
    params: &[VarId],
    arg: &SimpleExpr,
) -> Vec<(u32, Rel)> {
    let param_index = |v: VarId| params.iter().position(|&q| q == v).map(|i| i as u32);
    match arg {
        SimpleExpr::Var(_, v) => match param_index(*v) {
            Some(i) => vec![(i, Rel::Eq)],
            None => Vec::new(),
        },
        SimpleExpr::Const(_, _) => Vec::new(),
        // A closure strictly contains every captured parameter: an
        // in-situ increase for each (the CPS continuation-growing
        // pattern).
        SimpleExpr::Lambda(_, id) => p
            .lambda(*id)
            .freevars
            .iter()
            .filter_map(|&fv| param_index(fv).map(|i| (i, Rel::Up)))
            .collect(),
        SimpleExpr::Prim(_, op, args) => prim_arcs(params, *op, args),
    }
}

fn prim_arcs(
    params: &[VarId],
    op: Prim,
    args: &[SimpleExpr],
) -> Vec<(u32, Rel)> {
    let param_index = |v: VarId| params.iter().position(|&q| q == v).map(|i| i as u32);
    match op {
        // Destructor chains: (car (cdr x)) and friends strip structure.
        Prim::Car | Prim::Cdr => match destructed_var(args) {
            Some(v) => match param_index(v) {
                Some(i) => vec![(i, Rel::Down(Descent::Structural))],
                None => Vec::new(),
            },
            None => Vec::new(),
        },
        Prim::Sub1 => match &args[0] {
            SimpleExpr::Var(_, v) => match param_index(*v) {
                Some(i) => vec![(i, Rel::Down(Descent::Arith))],
                None => Vec::new(),
            },
            _ => Vec::new(),
        },
        Prim::Add1 => match &args[0] {
            SimpleExpr::Var(_, v) => match param_index(*v) {
                Some(i) => vec![(i, Rel::Up)],
                None => Vec::new(),
            },
            _ => Vec::new(),
        },
        Prim::Sub => match (&args[0], &args[1]) {
            (SimpleExpr::Var(_, v), SimpleExpr::Const(_, Constant::Int(k))) => {
                match param_index(*v) {
                    Some(i) if *k > 0 => vec![(i, Rel::Down(Descent::Arith))],
                    Some(i) if *k == 0 => vec![(i, Rel::Eq)],
                    Some(i) => vec![(i, Rel::Up)],
                    None => Vec::new(),
                }
            }
            _ => Vec::new(),
        },
        Prim::Add => {
            let (v, k) = match (&args[0], &args[1]) {
                (SimpleExpr::Var(_, v), SimpleExpr::Const(_, Constant::Int(k)))
                | (SimpleExpr::Const(_, Constant::Int(k)), SimpleExpr::Var(_, v)) => (v, k),
                _ => return Vec::new(),
            };
            match param_index(*v) {
                Some(i) if *k > 0 => vec![(i, Rel::Up)],
                Some(i) if *k == 0 => vec![(i, Rel::Eq)],
                Some(i) => vec![(i, Rel::Down(Descent::Arith))],
                None => Vec::new(),
            }
        }
        // A pair strictly contains every parameter that appears as a
        // *whole* component (the rev-accumulator pattern).  A destructed
        // piece like `(car x)` carries no size guarantee about `x`.
        Prim::Cons => {
            let mut vars = BTreeSet::new();
            for a in args {
                component_vars(a, &mut vars);
            }
            vars.iter().filter_map(|&v| param_index(v).map(|i| (i, Rel::Up))).collect()
        }
        _ => Vec::new(),
    }
}

/// Follows a `car`/`cdr` chain down to the variable it destructs, if
/// the whole chain is destructors over one variable.
fn destructed_var(args: &[SimpleExpr]) -> Option<VarId> {
    match &args[0] {
        SimpleExpr::Var(_, v) => Some(*v),
        SimpleExpr::Prim(_, Prim::Car | Prim::Cdr, inner) => destructed_var(inner),
        _ => None,
    }
}

/// Variables embedded whole in a cons tree: bare variables and
/// variables inside nested `cons` applications, but not destructed or
/// otherwise transformed pieces.
fn component_vars(se: &SimpleExpr, out: &mut BTreeSet<VarId>) {
    match se {
        SimpleExpr::Var(_, v) => {
            out.insert(*v);
        }
        SimpleExpr::Prim(_, Prim::Cons, args) => {
            args.iter().for_each(|a| component_vars(a, out));
        }
        SimpleExpr::Const(_, _) | SimpleExpr::Lambda(_, _) | SimpleExpr::Prim(_, _, _) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_frontend::{desugar, parse_source};

    fn graphs(src: &str) -> (DProgram, Vec<SizeGraph>) {
        let p = desugar(&parse_source(src).unwrap()).unwrap();
        let gs = build(&p, &p.owned_lambdas());
        (p, gs)
    }

    #[test]
    fn structural_descent_from_destructor_chains() {
        let (p, gs) = graphs(
            "(define (deriv e) (if (pair? e) (deriv (car (cdr e))) e))",
        );
        let d = p.proc_id("deriv").unwrap();
        let selfs: Vec<_> = gs.iter().filter(|g| g.src == d && g.dst == d).collect();
        assert_eq!(selfs.len(), 1);
        assert_eq!(selfs[0].self_arc(0), Some(Rel::Down(Descent::Structural)));
    }

    #[test]
    fn arith_descent_and_increase() {
        let (p, gs) = graphs(
            "(define (f n) (if (zero? n) 0 (f (- n 1))))
             (define (g n) (if (zero? n) 0 (g (+ n 1))))",
        );
        let f = p.proc_id("f").unwrap();
        let g = p.proc_id("g").unwrap();
        let fg = gs.iter().find(|x| x.src == f && x.dst == f).unwrap();
        assert_eq!(fg.self_arc(0), Some(Rel::Down(Descent::Arith)));
        let gg = gs.iter().find(|x| x.src == g && x.dst == g).unwrap();
        assert_eq!(gg.self_arc(0), Some(Rel::Up));
    }

    #[test]
    fn closure_capture_counts_as_increase() {
        let (p, gs) = graphs(
            "(define (fib-k n k)
               (if (< n 2) (k n)
                   (fib-k (- n 1) (lambda (f1) (fib-k (- n 2) (lambda (f2) (k (+ f1 f2))))))))",
        );
        let f = p.proc_id("fib-k").unwrap();
        // The outer recursive call: n descends, the new continuation
        // captures k (an in-situ increase on slot 1).
        assert!(gs
            .iter()
            .any(|g| g.src == f
                && g.dst == f
                && g.self_arc(0) == Some(Rel::Down(Descent::Arith))
                && g.self_arc(1) == Some(Rel::Up)));
    }

    #[test]
    fn call_results_yield_no_arcs() {
        let (p, gs) = graphs(
            "(define (tak x y z)
               (if (not (< y x)) z
                   (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))",
        );
        let t = p.proc_id("tak").unwrap();
        // The outer call's arguments are all results of inner calls
        // (desugared to context-lambda parameters): no arcs at all.
        assert!(gs.iter().any(|g| g.src == t && g.dst == t && g.arcs.is_empty()));
        // The innermost call still relates the rotated parameters.
        assert!(gs
            .iter()
            .any(|g| g.src == t && g.dst == t && g.arcs.get(&(2, 0)) == Some(&Rel::Down(Descent::Arith))));
    }
}
