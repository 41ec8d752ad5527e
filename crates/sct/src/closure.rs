//! Composition closure of the size-change graph set.
//!
//! The closure holds one graph per *provable multi-step descent
//! pattern*: starting from the syntactic call-edge graphs, composable
//! pairs are composed until no new graph appears.  Termination
//! reasoning only inspects its self-graphs (`src == dst`).
//!
//! Only graphs inside one strongly connected component of the call
//! graph are composed.  A self-graph of `p` composes a closed walk
//! through `p`, and every step and partial composition of that walk
//! stays inside `p`'s component, so closing each component alone
//! yields exactly the self-graphs of the whole-set closure.  A popped
//! graph `g : p → q` finds its partners in per-endpoint index lists:
//! the graphs leaving `q` and those entering `p`.
//!
//! The closure is exponential in the worst case, so it runs under a
//! budget of [`MAX_GRAPHS`] distinct graphs in all: every distinct
//! initial graph plus every distinct composition inside any component.
//! Paths between components are never composed, so they never count.
//! A composition past the budget stops the closure and marks it
//! truncated; the verdicts then degrade every recursive procedure to
//! `Unknown`, while non-recursive ones, known from the components
//! alone, stay `Bounded`.

use crate::graph::SizeGraph;
use pe_frontend::gen_analysis::on_cycle;
use pe_intern::FxHashSet;

/// Closure result: the closed graph set plus effort accounting.
#[derive(Debug, Clone)]
pub struct Closure {
    /// Every distinct graph: the initial graphs plus every composition
    /// inside one call-graph component.
    pub graphs: Vec<SizeGraph>,
    /// Per procedure, its call-graph component when it lies on a cycle
    /// (see [`on_cycle`]); `None` for a non-recursive procedure.
    pub cycles: Vec<Option<u32>>,
    /// Compositions performed (including ones that produced duplicates).
    pub compositions: u64,
    /// True when the budget cut the closure short; verdicts must then
    /// not claim anything beyond `Unknown` for recursive procedures.
    pub truncated: bool,
}

/// How many distinct graphs the closure may hold before truncating.
/// The Gabriel suite needs well under a hundred; the bound only exists
/// so adversarial inputs degrade to `Unknown` instead of burning time.
pub const MAX_GRAPHS: usize = 4096;

/// Computes the composition closure of `initial`, the size-change
/// graphs of a program with `procs` procedures, under the budget.
#[must_use]
pub fn close(procs: usize, initial: &[SizeGraph]) -> Closure {
    close_within(procs, initial, MAX_GRAPHS)
}

fn close_within(procs: usize, initial: &[SizeGraph], budget: usize) -> Closure {
    let mut succ = vec![Vec::new(); procs];
    for g in initial {
        succ[g.src.0 as usize].push(g.dst.0);
    }
    let cycles = on_cycle(&succ);
    let mut arena = Arena {
        cycles: &cycles,
        seen: FxHashSet::default(),
        graphs: Vec::with_capacity(initial.len()),
        by_src: vec![Vec::new(); procs],
        by_dst: vec![Vec::new(); procs],
        work: Vec::new(),
    };
    for g in initial {
        arena.admit(g.clone());
    }
    let mut compositions = 0u64;
    let mut truncated = false;
    'outer: while let Some(g) = arena.work.pop() {
        let (src, dst) = (arena.graphs[g].src.0 as usize, arena.graphs[g].dst.0 as usize);
        // Partners admitted while this graph is being composed are
        // still on the worklist and meet it when they are popped.
        let (after, before) = (arena.by_src[dst].len(), arena.by_dst[src].len());
        for k in 0..after + before {
            let composed = if k < after {
                arena.graphs[g].compose(&arena.graphs[arena.by_src[dst][k]])
            } else {
                arena.graphs[arena.by_dst[src][k - after]].compose(&arena.graphs[g])
            };
            compositions += 1;
            if arena.admit(composed) && arena.graphs.len() > budget {
                truncated = true;
                break 'outer;
            }
        }
    }
    Closure { graphs: arena.graphs, cycles, compositions, truncated }
}

/// The distinct graphs found so far, with an endpoint index over those
/// inside one component and the queue of those still to compose.
struct Arena<'c> {
    cycles: &'c [Option<u32>],
    seen: FxHashSet<SizeGraph>,
    graphs: Vec<SizeGraph>,
    by_src: Vec<Vec<usize>>,
    by_dst: Vec<Vec<usize>>,
    work: Vec<usize>,
}

impl Arena<'_> {
    /// Adds `g` unless it is already present, indexing and queueing it
    /// when both endpoints share a component; true when `g` was new.
    fn admit(&mut self, g: SizeGraph) -> bool {
        if self.seen.contains(&g) {
            return false;
        }
        let (src, dst) = (g.src.0 as usize, g.dst.0 as usize);
        if self.cycles[src].is_some() && self.cycles[src] == self.cycles[dst] {
            let id = self.graphs.len();
            self.by_src[src].push(id);
            self.by_dst[dst].push(id);
            self.work.push(id);
        }
        self.seen.insert(g.clone());
        self.graphs.push(g);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Descent, Rel};
    use crate::verdict::{classify, Verdict};
    use crate::{callgraph, Verdicts};
    use pe_frontend::dast::{DProgram, ProcId};
    use pe_frontend::{desugar, parse_source};

    fn program(src: &str) -> DProgram {
        desugar(&parse_source(src).unwrap()).unwrap()
    }

    /// A graph `src → dst` moving parameter `i` to slot `perm[i]`.
    fn permutation(src: u32, dst: u32, perm: &[u32]) -> SizeGraph {
        let mut g = SizeGraph::empty(ProcId(src), ProcId(dst));
        for (i, &j) in perm.iter().enumerate() {
            g.add_arc(i as u32, j, Rel::Eq);
        }
        g
    }

    #[test]
    fn a_component_over_budget_truncates_to_unknown() {
        // `p`'s two self-graphs, a swap and a rotation of its eight
        // parameters, generate all 8! permutations: far over the budget
        // inside one component.  `main` only calls into it.
        let p = program(
            "(define (main a b c d e f g h) (p a b c d e f g h))
             (define (p a b c d e f g h) (p b a c d e f g h))",
        );
        let graphs = [
            permutation(0, 1, &[0, 1, 2, 3, 4, 5, 6, 7]),
            permutation(1, 1, &[1, 0, 2, 3, 4, 5, 6, 7]),
            permutation(1, 1, &[1, 2, 3, 4, 5, 6, 7, 0]),
        ];
        let c = close(2, &graphs);
        assert!(c.truncated);
        assert_eq!(c.graphs.len(), MAX_GRAPHS + 1);
        let v = classify(&p, &p.owned_lambdas(), &c);
        assert_eq!(v.procs, [Verdict::Bounded, Verdict::Unknown]);
        assert!(p.defs[0].params.iter().all(|x| v.exempt_vars.contains(x)));
        assert!(p.defs[1].params.iter().all(|x| !v.exempt_vars.contains(x)));
        assert!(v.eager_vars.is_empty());
        assert!(v.on_stack(p.defs[1].body.label().0));
        assert!(!v.on_stack(p.defs[0].body.label().0));
    }

    #[test]
    fn paths_between_components_do_not_count_against_the_budget() {
        // A chain p0 → p1 → … → p99 ending in a structurally descending
        // loop.  A whole-set closure holds one graph per pair i < j of
        // the chain, more than the budget allows; closing each component
        // composes nothing but the loop.
        let n = 100;
        assert!(n * (n - 1) / 2 > MAX_GRAPHS);
        let mut src: String =
            (0..n - 1).map(|i| format!("(define (p{i} x) (p{} x))\n", i + 1)).collect();
        src.push_str(&format!("(define (p{} x) (if (pair? x) (p{} (cdr x)) x))", n - 1, n - 1));
        let p = program(&src);
        let owned = p.owned_lambdas();
        let graphs = callgraph::build(&p, &owned);
        let c = close(n, &graphs);
        assert!(!c.truncated);
        assert_eq!(c.graphs.len(), graphs.len());
        let v = classify(&p, &owned, &c);
        let reference = classify(&p, &owned, &close_within(n, &graphs, usize::MAX));
        let facts = |v: &Verdicts| (v.procs.clone(), v.exempt_vars.clone(), v.eager_vars.clone());
        assert_eq!(facts(&v), facts(&reference));
        assert!(v.procs.iter().all(|&x| x == Verdict::Bounded));
        assert!(p.defs.iter().all(|d| v.exempt_vars.contains(&d.params[0])));
    }

    #[test]
    fn mutual_recursion_composes_to_self_graphs() {
        let (p, q) = (ProcId(0), ProcId(1));
        let mut pq = SizeGraph::empty(p, q);
        pq.add_arc(0, 0, Rel::Up);
        let mut qp = SizeGraph::empty(q, p);
        qp.add_arc(0, 0, Rel::Eq);
        let c = close(2, &[pq, qp]);
        assert!(!c.truncated);
        // p→p and q→q self-graphs appear, both carrying the increase.
        let pp = c.graphs.iter().find(|g| g.src == p && g.dst == p).unwrap();
        assert_eq!(pp.self_arc(0), Some(Rel::Up));
        let qq = c.graphs.iter().find(|g| g.src == q && g.dst == q).unwrap();
        assert_eq!(qq.self_arc(0), Some(Rel::Up));
    }

    #[test]
    fn closure_is_a_fixed_point() {
        let p = ProcId(0);
        let mut g = SizeGraph::empty(p, p);
        g.add_arc(0, 0, Rel::Down(Descent::Structural));
        g.add_arc(1, 0, Rel::Eq);
        let c = close(1, &[g]);
        for a in &c.graphs {
            for b in &c.graphs {
                if a.dst == b.src {
                    assert!(c.graphs.contains(&a.compose(b)));
                }
            }
        }
    }
}
