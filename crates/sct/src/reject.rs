//! Early rejection of programs that provably diverge under *any* input
//! — static or dynamic — so specialization never burns fuel on them.
//!
//! Two syntactic-plus-flow criteria, both deliberately conservative
//! (no false rejects; plenty of divergent programs pass):
//!
//! 1. **Unconditional call cycle**: a cycle in the procedure call graph
//!    restricted to calls in unconditional position (not under any
//!    `if`), itself reachable from the entry through unconditional
//!    calls only.  Entering any procedure on the cycle loops forever
//!    regardless of data — the mutual-recursion divergence pattern.
//! 2. **Self-application cycle**: a lambda that unconditionally applies
//!    its own parameter, where the flow analysis says the argument can
//!    be a lambda doing the same, closing a cycle — the Ω combinator.

use pe_frontend::dast::{DProgram, LamId, ProcId, SimpleExpr, TailExpr};
use pe_frontend::flow::FlowAnalysis;
use pe_frontend::gen_analysis::on_cycle;
use pe_governor::Trap;

/// Checks both criteria; `Some(trap)` means the program cannot
/// terminate when `entry` is invoked.  `owned` is
/// [`DProgram::owned_lambdas`].
#[must_use]
pub fn check(p: &DProgram, owned: &[Vec<LamId>], flow: &FlowAnalysis, entry: &str) -> Option<Trap> {
    let pid = p.proc_id(entry)?;
    if let Some(name) = unconditional_cycle(p, pid) {
        return Some(Trap::StaticDivergence {
            witness: format!("unconditional call cycle through procedure {name}"),
        });
    }
    if let Some(lam) = self_application_cycle(p, owned, flow, pid) {
        return Some(Trap::StaticDivergence {
            witness: format!("unconditional self-application cycle through lambda #{}", lam.0),
        });
    }
    None
}

/// Criterion 1.  Returns the name of the lowest-index procedure on a
/// cycle that the entry reaches.
fn unconditional_cycle(p: &DProgram, entry: ProcId) -> Option<String> {
    let edges: Vec<Vec<u32>> = p
        .defs
        .iter()
        .map(|d| {
            let mut out = Vec::new();
            unconditional_calls(&d.body, &mut out);
            out
        })
        .collect();
    let reach = reachable(&edges, entry.0);
    let cycles = on_cycle(&edges);
    let i = (0..edges.len()).find(|&i| reach[i] && cycles[i].is_some())?;
    Some(p.defs[i].name.to_string())
}

/// Calls performed on every execution of `te`: a pushed context's body
/// runs unconditionally, an `if` makes both branches conditional, and
/// calls inside pushed *lambdas* run only via application (handled by
/// criterion 2).
fn unconditional_calls(te: &TailExpr, out: &mut Vec<u32>) {
    match te {
        TailExpr::Simple(_) | TailExpr::If(_, _, _, _) => {}
        TailExpr::CallProc(_, pid, _) => out.push(pid.0),
        TailExpr::PushApp(_, _, body) => unconditional_calls(body, out),
    }
}

/// Criterion 2.  Returns the lowest-numbered lambda on a cycle.
fn self_application_cycle(
    p: &DProgram,
    owned: &[Vec<LamId>],
    flow: &FlowAnalysis,
    entry: ProcId,
) -> Option<LamId> {
    // Lambdas creatable while running from the entry: those owned by
    // procedures reachable through any call, from a body or from the
    // body of an owned lambda.
    let reach = reachable(&p.call_graph(owned), entry.0);
    let mut reachable_lams = vec![false; p.lambdas.len()];
    for (lams, _) in owned.iter().zip(&reach).filter(|&(_, &r)| r) {
        lams.iter().for_each(|l| reachable_lams[l.0 as usize] = true);
    }

    // Edge a → b: λa unconditionally applies its own parameter with a
    // guard-free delivery, and λb may flow into that parameter.
    let edges: Vec<Vec<u32>> = p
        .lambdas
        .iter()
        .enumerate()
        .map(|(a, def)| {
            if !reachable_lams[a] || !applies_own_param(&def.body, def.param) {
                return Vec::new();
            }
            let cands = flow.var_lambdas(def.param);
            cands.iter().filter(|b| reachable_lams[b.0 as usize]).map(|b| b.0).collect()
        })
        .collect();
    let l = on_cycle(&edges).iter().position(Option::is_some)?;
    Some(LamId(l as u32))
}

/// The nodes of `edges` reachable from `start`, itself included.
fn reachable(edges: &[Vec<u32>], start: u32) -> Vec<bool> {
    let mut seen = vec![false; edges.len()];
    let mut work = vec![start];
    while let Some(i) = work.pop() {
        if !std::mem::replace(&mut seen[i as usize], true) {
            work.extend(&edges[i as usize]);
        }
    }
    seen
}

/// True when `te` pushes `param` as an evaluation context along its
/// unconditional spine, with a delivery subtree that cannot branch or
/// call out — the application is then inevitable.
fn applies_own_param(te: &TailExpr, param: pe_frontend::dast::VarId) -> bool {
    match te {
        TailExpr::Simple(_) | TailExpr::If(_, _, _, _) | TailExpr::CallProc(_, _, _) => false,
        TailExpr::PushApp(_, ctx, body) => {
            let here = matches!(ctx, SimpleExpr::Var(_, v) if *v == param)
                && delivery_is_unguarded(body);
            here || applies_own_param(body, param)
        }
    }
}

/// True when every path through `te` produces a value without passing a
/// conditional or a procedure call.
fn delivery_is_unguarded(te: &TailExpr) -> bool {
    match te {
        TailExpr::Simple(_) => true,
        TailExpr::If(_, _, _, _) | TailExpr::CallProc(_, _, _) => false,
        TailExpr::PushApp(_, _, body) => delivery_is_unguarded(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_frontend::{desugar, parse_source};

    fn reject(src: &str, entry: &str) -> Option<Trap> {
        let p = desugar(&parse_source(src).unwrap()).unwrap();
        let f = FlowAnalysis::analyze(&p);
        check(&p, &p.owned_lambdas(), &f, entry)
    }

    fn witness(t: Option<Trap>) -> String {
        match t {
            Some(Trap::StaticDivergence { witness }) => witness,
            other => panic!("not a static divergence: {other:?}"),
        }
    }

    #[test]
    fn omega_is_rejected() {
        // λ0 applies its parameter too, but only λ1 flows there: λ1 is
        // the one on the cycle.
        let t = reject(
            "(define (omega) ((lambda (x) (x x)) (lambda (x) (x x))))",
            "omega",
        );
        assert_eq!(witness(t), "unconditional self-application cycle through lambda #1");
    }

    #[test]
    fn mutual_unconditional_recursion_is_rejected() {
        let t = reject(
            "(define (main d) (ping d))
             (define (ping n) (pong (+ n 1)))
             (define (pong n) (ping n))",
            "main",
        );
        assert_eq!(witness(t), "unconditional call cycle through procedure ping");
    }

    #[test]
    fn call_cycle_witness_is_the_lowest_reachable_procedure_on_it() {
        // The entry enters the cycle a → b → c → a at c; the witness is
        // the cycle member with the lowest index, not the first reached.
        // `z` lies on a cycle too, but the entry cannot reach it.
        let t = reject(
            "(define (z n) (z n))
             (define (main d) (c d))
             (define (a n) (b n))
             (define (b n) (c n))
             (define (c n) (a n))",
            "main",
        );
        assert_eq!(witness(t), "unconditional call cycle through procedure a");
    }

    #[test]
    fn self_application_witness_is_the_lowest_lambda_on_the_cycle() {
        // `g`'s parameter merges both self-appliers, so λ1 `(x x)` and
        // λ3 `(y y)` each may receive either: one cycle, two members.
        let t = reject(
            "(define (g a) (a a))
             (define (f) (cons (g (lambda (x) (x x))) (g (lambda (y) (y y)))))",
            "f",
        );
        assert_eq!(witness(t), "unconditional self-application cycle through lambda #1");
    }

    #[test]
    fn guarded_recursion_is_not_rejected() {
        assert_eq!(
            reject("(define (f x n) (if (zero? n) x (f x (+ n 1))))", "f"),
            None,
            "conditional cycles may terminate at run time"
        );
    }

    #[test]
    fn dead_unconditional_cycle_behind_a_guard_is_not_rejected() {
        assert_eq!(
            reject(
                "(define (boom x) (boom x))
                 (define (f x) (if (zero? 0) (+ x 1) (boom x)))",
                "f",
            ),
            None,
            "the cycle is only conditionally reachable"
        );
    }

    #[test]
    fn terminating_self_application_is_not_rejected() {
        // (x x) where x can only be a lambda that ignores its argument.
        assert_eq!(
            reject(
                "(define (f) ((lambda (x) (x x)) (lambda (y) 1)))",
                "f",
            ),
            None
        );
    }

    #[test]
    fn cps_programs_are_not_rejected() {
        assert_eq!(
            reject(
                "(define (append x y) (cps-append x y (lambda (v) v)))
                 (define (cps-append x y c)
                   (if (null? x) (c y)
                       (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))",
                "append",
            ),
            None
        );
    }
}
