//! The offline generalization analysis of §4.5.
//!
//! Mix-style partial evaluators do not detect static data structures
//! that grow without bounds under dynamic control.  The paper identifies
//! three sources of self-embedding data in the two-level interpreter:
//!
//! 1. the stack of evaluation contexts may contain a context that leads
//!    to its own repeated evaluation,
//! 2. a closure may contain a closure generated from the same lambda
//!    expression as part of a free variable's value,
//! 3. applications of `cons` may nest.
//!
//! Under the *offline* strategy, a flow analysis determines statically
//! which lambdas and which cons sites may lead to critical data; the
//! specializer then generalizes the corresponding value descriptions *at
//! creation* (critical evaluation contexts "are merely closures already
//! caught by the analysis", plus stack-recursion detection below).

use crate::dast::{DProgram, LamId, TailExpr};
use crate::flow::{FlowAnalysis, LamSet};
use std::collections::BTreeSet;

/// Which lambdas and cons sites the offline strategy generalizes at
/// creation.
#[derive(Debug, Clone)]
pub struct GenAnalysis {
    /// Lambdas whose closures may (transitively) capture a closure of
    /// the same lambda — source 2 — or that may be pushed repeatedly on
    /// the context stack without an intervening pop — source 1.
    pub critical_lams: BTreeSet<LamId>,
    /// Cons sites whose results may (transitively) contain a pair from
    /// the same site — source 3.
    pub critical_cons: BTreeSet<u32>,
    /// Lambdas that may appear on a dynamic context stack (used as the
    /// dispatch candidate set when the whole stack is dynamic).
    pub stack_candidates: LamSet,
}

impl GenAnalysis {
    /// Runs the analysis on a desugared program using flow results.
    pub fn analyze(p: &DProgram, flow: &FlowAnalysis) -> GenAnalysis {
        let mut critical_lams = BTreeSet::new();
        let mut critical_cons = BTreeSet::new();

        // Sources 2 and 3: a closure of ℓ can reach a closure of ℓ
        // through its free variables (via captured values and pair
        // components), and a cons site's components can reach a pair from
        // the same site — both exactly when the lambda or site lies on a
        // cycle of the containment graph.
        let nlams = p.lambdas.len();
        for (node, cycle) in on_cycle(&flow.containment_graph(p)).into_iter().enumerate() {
            if cycle.is_none() {
                continue;
            }
            if node < nlams {
                critical_lams.insert(LamId(node as u32));
            } else {
                critical_cons.insert(flow.cons_site(node - nlams));
            }
        }

        // Source 1: a context pushed inside a recursive procedure, or
        // inside a lambda it owns, may pile up on the stack.  Recursion
        // is a cycle of the procedure-level call graph, where calls made
        // in an owned lambda's body count as the owner's (the closure
        // may be invoked later, transferring control back).  This is
        // deliberately conservative — the paper's offline strategy
        // "necessarily generalizes" more than the online one.
        let owned = p.owned_lambdas();
        let cycles = on_cycle(&p.call_graph(&owned));
        for ((d, lams), cycle) in p.defs.iter().zip(&owned).zip(cycles) {
            if cycle.is_some() {
                mark_pushed_contexts(flow, &d.body, &mut critical_lams);
                for &l in lams {
                    mark_pushed_contexts(flow, &p.lambda(l).body, &mut critical_lams);
                }
            }
        }

        GenAnalysis {
            critical_lams,
            critical_cons,
            stack_candidates: flow.context_lambdas().clone(),
        }
    }

    /// True if closures of `l` must be generalized at creation.
    pub fn lam_is_critical(&self, l: LamId) -> bool {
        self.critical_lams.contains(&l)
    }

    /// True if pairs from cons site `site` must be generalized at
    /// creation.
    pub fn cons_is_critical(&self, site: u32) -> bool {
        self.critical_cons.contains(&site)
    }
}

/// The cycle component of every node of `succ`: `Some(id)` for a node
/// on a cycle — a member of a strongly connected component with more
/// than one node, or with a self-loop — and `None` otherwise.  Two
/// nodes share an id iff they share a component; ids are dense from 0
/// in the order the components complete.  One iterative Tarjan pass,
/// linear in nodes plus edges.
pub fn on_cycle(succ: &[Vec<u32>]) -> Vec<Option<u32>> {
    const UNSEEN: u32 = u32::MAX;
    let n = succ.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut self_loop = vec![false; n];
    let mut cycle = vec![None; n];
    let mut components = 0u32;
    let mut stack: Vec<usize> = Vec::new();
    // The DFS path: each node with the position of its next edge.
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut next = 0u32;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut entering = Some(root);
        loop {
            if let Some(v) = entering.take() {
                index[v] = next;
                low[v] = next;
                next += 1;
                on_stack[v] = true;
                stack.push(v);
                path.push((v, 0));
            }
            let Some(top) = path.last_mut() else { break };
            let (v, e) = *top;
            if let Some(&w) = succ[v].get(e) {
                top.1 += 1;
                let w = w as usize;
                self_loop[v] |= w == v;
                if index[w] == UNSEEN {
                    entering = Some(w);
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            path.pop();
            if let Some(&(u, _)) = path.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                let start = stack.iter().rposition(|&x| x == v).expect("v is on the stack");
                let id = (stack.len() - start > 1 || self_loop[v]).then_some(components);
                components += u32::from(id.is_some());
                for x in stack.drain(start..) {
                    on_stack[x] = false;
                    cycle[x] = id;
                }
            }
        }
    }
    cycle
}

fn mark_pushed_contexts(flow: &FlowAnalysis, te: &TailExpr, out: &mut BTreeSet<LamId>) {
    match te {
        TailExpr::Simple(_) | TailExpr::CallProc(_, _, _) => {}
        TailExpr::If(_, _, t, e) => {
            mark_pushed_contexts(flow, t, out);
            mark_pushed_contexts(flow, e, out);
        }
        TailExpr::PushApp(_, ctx, body) => {
            // The pushed context can only pile up if a procedure call
            // runs while it is still on the stack; a push over a simple
            // body (such as CPS's `(c y)`) is popped immediately and can
            // never grow the stack.
            if tail_contains_call(body) {
                out.extend(flow.lambdas_of(ctx).iter());
            }
            mark_pushed_contexts(flow, body, out);
        }
    }
}

/// True if evaluating `te` can perform a top-level procedure call while
/// contexts pushed *around* `te` are still pending.
fn tail_contains_call(te: &TailExpr) -> bool {
    match te {
        TailExpr::Simple(_) => false,
        TailExpr::If(_, _, t, e) => tail_contains_call(t) || tail_contains_call(e),
        TailExpr::CallProc(_, _, _) => true,
        TailExpr::PushApp(_, _, body) => tail_contains_call(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dast::SimpleExpr;
    use crate::desugar::desugar;
    use crate::parse::parse_source;

    fn analyze(src: &str) -> (DProgram, GenAnalysis) {
        let p = desugar(&parse_source(src).unwrap()).unwrap();
        let f = FlowAnalysis::analyze(&p);
        let g = GenAnalysis::analyze(&p, &f);
        (p, g)
    }

    #[test]
    fn cps_append_inner_continuation_is_critical() {
        let (p, g) = analyze(
            "(define (append x y) (cps-append x y (lambda (v) v)))
             (define (cps-append x y c)
               (if (null? x) (c y)
                   (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))",
        );
        // The inner continuation captures `c`, which can be the inner
        // continuation itself: self-embedding, hence critical.
        assert!(!g.critical_lams.is_empty(), "inner continuation must be critical");
        // The identity continuation captures nothing; it must NOT be
        // critical.
        let identity = p
            .lambdas
            .iter()
            .position(|l| l.freevars.is_empty())
            .expect("identity lambda");
        assert!(!g.lam_is_critical(LamId(identity as u32)));
    }

    #[test]
    fn rev_accumulator_cons_is_critical() {
        let (_, g) =
            analyze("(define (rev x acc) (if (null? x) acc (rev (cdr x) (cons (car x) acc))))");
        assert_eq!(g.critical_cons.len(), 1);
    }

    #[test]
    fn straightline_cons_is_not_critical() {
        let (_, g) = analyze("(define (f x) (cons 1 (cons 2 x)))");
        assert!(g.critical_cons.is_empty());
    }

    #[test]
    fn tak_contexts_are_critical_via_recursion() {
        let (_, g) = analyze(
            "(define (tak x y z)
               (if (not (< y x)) z
                   (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))",
        );
        // tak is recursive and pushes contexts for nested calls: those
        // contexts may pile up on the stack, so they are critical.
        assert!(!g.critical_lams.is_empty());
        assert!(!g.stack_candidates.is_empty());
    }

    /// The containment graph's cycle members, by the walk-based
    /// definition: a lambda whose free variables can reach a closure of
    /// it, a cons site whose components can reach a pair from it.
    fn oracle_cyclic(p: &DProgram, f: &FlowAnalysis) -> Vec<bool> {
        let lams = (0..p.lambdas.len()).map(|l| {
            p.lambdas[l].freevars.iter().any(|&fv| {
                f.deep_reach(p, &f.var(fv)).0.contains(LamId(l as u32))
            })
        });
        let mut sites = BTreeSet::new();
        collect_sites(p, &mut sites);
        let sites = (0..sites.len()).map(|slot| {
            let site = f.cons_site(slot);
            f.deep_reach(p, &f.cons_components(site).unwrap()).1.contains(&site)
        });
        lams.chain(sites).collect()
    }

    fn collect_sites(p: &DProgram, out: &mut BTreeSet<u32>) {
        fn simple(se: &SimpleExpr, out: &mut BTreeSet<u32>) {
            if let SimpleExpr::Prim(l, op, args) = se {
                if *op == crate::Prim::Cons {
                    out.insert(l.0);
                }
                args.iter().for_each(|a| simple(a, out));
            }
        }
        fn tail(te: &TailExpr, out: &mut BTreeSet<u32>) {
            match te {
                TailExpr::Simple(se) => simple(se, out),
                TailExpr::If(_, c, t, e) => {
                    simple(c, out);
                    tail(t, out);
                    tail(e, out);
                }
                TailExpr::CallProc(_, _, args) => args.iter().for_each(|a| simple(a, out)),
                TailExpr::PushApp(_, ctx, body) => {
                    simple(ctx, out);
                    tail(body, out);
                }
            }
        }
        p.defs.iter().for_each(|d| tail(&d.body, out));
        p.lambdas.iter().for_each(|l| tail(&l.body, out));
    }

    /// Cycle membership in the containment graph, checked node by node
    /// against the reachability walks it replaces.
    fn assert_matches_oracle(src: &str) -> (DProgram, FlowAnalysis, Vec<bool>) {
        let p = desugar(&parse_source(src).unwrap()).unwrap();
        let f = FlowAnalysis::analyze(&p);
        let cyclic: Vec<bool> =
            on_cycle(&f.containment_graph(&p)).iter().map(Option::is_some).collect();
        assert_eq!(cyclic, oracle_cyclic(&p, &f), "{src}");
        (p, f, cyclic)
    }

    #[test]
    fn cycle_membership_needs_a_cycle_through_the_node() {
        // A self-loop, a 2-cycle, and a node that only reaches a cycle.
        let succ = vec![vec![0], vec![2], vec![1], vec![1, 4], vec![]];
        assert_eq!(on_cycle(&succ), vec![Some(0), Some(1), Some(1), None, None]);
        // A long chain closing into one big cycle, deeper than any
        // reasonable host stack would allow a recursive search.
        let n = 200_000;
        let ring: Vec<Vec<u32>> = (0..n).map(|i| vec![((i + 1) % n) as u32]).collect();
        assert!(on_cycle(&ring).into_iter().all(|c| c == Some(0)));
        let chain: Vec<Vec<u32>> =
            (0..n).map(|i| if i + 1 < n { vec![(i + 1) as u32] } else { vec![] }).collect();
        assert!(on_cycle(&chain).into_iter().all(|c| c.is_none()));
    }

    #[test]
    fn self_embedding_closure_is_a_self_loop() {
        // The inner continuation captures `c`, which may hold the inner
        // continuation itself: a self-loop in the containment graph.
        let (p, f, cyclic) = assert_matches_oracle(
            "(define (cps-append x y c)
               (if (null? x) (c y)
                   (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))",
        );
        let inner = p.lambdas.iter().position(|l| !l.freevars.is_empty()).unwrap();
        assert!(f.containment_graph(&p)[inner].contains(&(inner as u32)));
        assert!(cyclic[inner]);
    }

    #[test]
    fn closure_and_cons_site_on_a_two_cycle_are_both_critical() {
        // The closure captures `acc`, which holds pairs from the cons
        // site; the site's car holds the closure: λ → site → λ.
        let src = "(define (f x acc)
                     (if (null? x) acc (f (cdr x) (cons (lambda (v) acc) '()))))";
        let (p, f, cyclic) = assert_matches_oracle(src);
        let nlams = p.lambdas.len();
        let lam = p.lambdas.iter().position(|l| !l.freevars.is_empty()).unwrap();
        let site = nlams..cyclic.len();
        assert_eq!(site.len(), 1, "one cons site");
        let graph = f.containment_graph(&p);
        assert!(!graph[lam].contains(&(lam as u32)), "no self-loop on the closure");
        assert!(cyclic[lam] && cyclic[nlams], "both on the 2-cycle");
        let (_, g) = analyze(src);
        assert!(g.lam_is_critical(LamId(lam as u32)));
        assert!(g.cons_is_critical(f.cons_site(0)));
    }

    #[test]
    fn closure_reaching_a_cycle_without_lying_on_it_is_not_critical() {
        // `acc` grows by a self-embedding cons (a cycle on the site); the
        // closure captures `acc` and so reaches that cycle, but nothing
        // ever stores the closure back into `acc`.
        let src = "(define (rev x acc)
                     (if (null? x) (k (lambda (v) acc)) (rev (cdr x) (cons (car x) acc))))
                   (define (k f) f)";
        let (p, f, cyclic) = assert_matches_oracle(src);
        let nlams = p.lambdas.len();
        let lam = p.lambdas.iter().position(|l| !l.freevars.is_empty()).unwrap();
        assert!(f.containment_graph(&p)[lam].contains(&(nlams as u32)), "λ reaches the site");
        assert!(cyclic[nlams], "the accumulator's cons site is on a cycle");
        assert!(!cyclic[lam], "the closure is not");
        let (_, g) = analyze(src);
        assert!(!g.lam_is_critical(LamId(lam as u32)));
        assert!(g.cons_is_critical(f.cons_site(0)));
    }

    #[test]
    fn recursion_through_a_created_lambda_marks_pushes() {
        // `f` never calls itself directly, but the closure it creates
        // does: the procedure is recursive through the lambda, so the
        // context pushed for `(g (g x))` is critical.
        let (_, g) = analyze(
            "(define (g x) x)
             (define (h k) (k 1))
             (define (f x) (h (lambda (v) (f (g (g v))))))",
        );
        assert!(!g.critical_lams.is_empty(), "critical: {:?}", g.critical_lams);
    }

    #[test]
    fn non_recursive_pushes_are_not_critical() {
        let (_, g) = analyze("(define (g x) x) (define (f x) (g (g x)))");
        // f pushes a context for the nested call but nothing recurses.
        assert!(g.critical_lams.is_empty(), "critical: {:?}", g.critical_lams);
    }
}
