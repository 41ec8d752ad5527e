//! The verdict lattice and the per-point annotation tables consumed by
//! the specializer.
//!
//! Classification is per procedure, then broadcast to every
//! specialization-point candidate label the procedure owns (its body
//! and the bodies of the lambdas it owns — the labels the specializer
//! can reach while holding this frame's data) through one dense
//! label → owner table.

use crate::closure::Closure;
use crate::graph::{Descent, Rel, SizeGraph};
use pe_frontend::dast::{DLabel, DProgram, LamId, ProcId, VarId};
use std::collections::BTreeSet;
use std::fmt;

/// The three-point classification of a specialization-point candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// Static data provably descends on every recursive path (or the
    /// procedure is not recursive at all): safe to unfold.  Only
    /// *structural* descent additionally exempts a slot from widening —
    /// arithmetic descent keeps the widening backstop because the
    /// integers are not well-founded.
    Bounded,
    /// A provable in-situ increase on a cycle: the specializer should
    /// generalize eagerly instead of discovering self-embedding (or
    /// slot growth) at depth.
    Unbounded,
    /// Neither provable: keep the dynamic control machinery.
    Unknown,
}

impl Verdict {
    /// Stable lowercase name used in reports and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Bounded => "bounded",
            Verdict::Unbounded => "unbounded",
            Verdict::Unknown => "unknown",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything classification produces, per procedure and per label.
#[derive(Debug, Clone, Default)]
pub struct Verdicts {
    /// Per-procedure verdicts, indexed by `ProcId.0`.
    pub procs: Vec<Verdict>,
    /// Per-procedure: true when the procedure lies on a call-graph
    /// cycle, so the context stack may grow while its labels run.
    pub recursive: Vec<bool>,
    /// The procedure owning each syntax label, indexed by `DLabel.0`:
    /// labels inherit their owner's verdict and recursion.
    pub owners: Vec<Option<ProcId>>,
    /// Parameters provably descending *structurally* on every cycle
    /// through their procedure (or belonging to a non-recursive
    /// procedure): bounded-static-variation tracking is unnecessary
    /// for these slots.
    pub exempt_vars: BTreeSet<VarId>,
    /// Parameters with a provable in-situ increase on some cycle:
    /// pre-annotated generalization points.
    pub eager_vars: BTreeSet<VarId>,
}

impl Verdicts {
    fn owner(&self, label: u32) -> Option<usize> {
        let owner = self.owners.get(label as usize).copied().flatten();
        owner.map(|p| p.0 as usize)
    }

    /// The verdict at a label, `Unknown` when unattributed.
    #[must_use]
    pub fn at_label(&self, label: u32) -> Verdict {
        self.owner(label).map_or(Verdict::Unknown, |p| self.procs[p])
    }

    /// True when a recursive procedure owns the label: the context
    /// stack may grow there, so a flush at it is a statically
    /// anticipated generalization, not a dynamic discovery.
    #[must_use]
    pub fn on_stack(&self, label: u32) -> bool {
        self.owner(label).is_some_and(|p| self.recursive[p])
    }
}

/// Classifies every procedure from the closed graph set; `owned` is
/// [`DProgram::owned_lambdas`].
#[must_use]
pub fn classify(p: &DProgram, owned: &[Vec<LamId>], closure: &Closure) -> Verdicts {
    let mut selfs: Vec<Vec<&SizeGraph>> = vec![Vec::new(); p.defs.len()];
    for g in closure.graphs.iter().filter(|g| g.src == g.dst) {
        selfs[g.src.0 as usize].push(g);
    }
    let mut v = Verdicts {
        recursive: closure.cycles.iter().map(Option::is_some).collect(),
        ..Verdicts::default()
    };
    for ((i, def), selfs) in p.defs.iter().enumerate().zip(&selfs) {
        let verdict = if !v.recursive[i] {
            // Not on any call cycle: unfolding this procedure cannot
            // recurse, every parameter slot is demand-bounded by its
            // callers.
            v.exempt_vars.extend(def.params.iter().copied());
            Verdict::Bounded
        } else if closure.truncated {
            Verdict::Unknown
        } else {
            // Slot-level annotations, independent of the verdict: a slot
            // that structurally descends through *every* cycle never
            // accumulates variety; a slot that provably grows in situ on
            // *some* cycle should be generalized on sight.
            for (slot, &param) in def.params.iter().enumerate() {
                let slot = slot as u32;
                if selfs
                    .iter()
                    .all(|g| g.self_arc(slot) == Some(Rel::Down(Descent::Structural)))
                {
                    v.exempt_vars.insert(param);
                }
                if selfs.iter().any(|g| g.self_arc(slot) == Some(Rel::Up)) {
                    v.eager_vars.insert(param);
                }
            }
            classify_recursive(def.params.len(), selfs)
        };
        v.procs.push(verdict);
        let mut own = |l: DLabel| {
            let l = l.0 as usize;
            if l >= v.owners.len() {
                v.owners.resize(l + 1, None);
            }
            v.owners[l] = Some(ProcId(i as u32));
        };
        def.body.for_each_label(&mut own);
        owned[i].iter().for_each(|&l| p.lambda(l).body.for_each_label(&mut own));
    }
    v
}

/// The Lee–Jones–Ben-Amram criterion over one procedure's self-graphs:
/// terminating iff every *idempotent* self-graph has an in-situ strict
/// descent.  Failing that, a provable in-situ increase yields
/// `Unbounded`; otherwise nothing is provable either way.
fn classify_recursive(arity: usize, selfs: &[&SizeGraph]) -> Verdict {
    let terminating = selfs
        .iter()
        .filter(|g| g.is_idempotent())
        .all(|g| g.has_in_situ_down());
    if terminating {
        return Verdict::Bounded;
    }
    let grows = selfs
        .iter()
        .any(|g| (0..arity as u32).any(|i| g.self_arc(i) == Some(Rel::Up)));
    if grows {
        Verdict::Unbounded
    } else {
        Verdict::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{callgraph, closure};
    use pe_frontend::{desugar, parse_source};

    fn verdicts(src: &str) -> (DProgram, Verdicts) {
        let p = desugar(&parse_source(src).unwrap()).unwrap();
        let owned = p.owned_lambdas();
        let graphs = callgraph::build(&p, &owned);
        let closed = closure::close(p.defs.len(), &graphs);
        let v = classify(&p, &owned, &closed);
        (p, v)
    }

    #[test]
    fn structural_descent_is_bounded_and_exempt() {
        let (p, v) = verdicts(
            "(define (deriv e) (if (pair? e) (deriv (car (cdr e))) e))",
        );
        let d = p.proc_id("deriv").unwrap();
        assert_eq!(v.procs[d.0 as usize], Verdict::Bounded);
        let e = p.proc(d).params[0];
        assert!(v.exempt_vars.contains(&e));
        assert!(v.eager_vars.is_empty());
    }

    #[test]
    fn arith_descent_is_bounded_but_not_exempt() {
        let (p, v) = verdicts("(define (f n) (if (zero? n) 0 (f (- n 1))))");
        let f = p.proc_id("f").unwrap();
        assert_eq!(v.procs[f.0 as usize], Verdict::Bounded);
        let n = p.proc(f).params[0];
        assert!(!v.exempt_vars.contains(&n), "integers are not well-founded");
    }

    #[test]
    fn in_situ_increase_is_unbounded_and_eager() {
        let (p, v) = verdicts(
            "(define (ping n) (pong (+ n 1)))
             (define (pong n) (ping (+ n 1)))",
        );
        let ping = p.proc_id("ping").unwrap();
        assert_eq!(v.procs[ping.0 as usize], Verdict::Unbounded);
        assert!(v.eager_vars.contains(&p.proc(ping).params[0]));
    }

    #[test]
    fn guarded_growth_is_unbounded_not_rejected_material() {
        // The faultline static-divergence pattern: a static counter
        // grows around a dynamic loop.
        let (p, v) = verdicts("(define (f x n) (if (zero? n) x (f x (+ n 1))))");
        let f = p.proc_id("f").unwrap();
        assert_eq!(v.procs[f.0 as usize], Verdict::Unbounded);
        assert!(v.eager_vars.contains(&p.proc(f).params[1]));
        // x is carried through unchanged: Eq arcs only, no exemption
        // and no eagerness.
        assert!(!v.eager_vars.contains(&p.proc(f).params[0]));
    }

    #[test]
    fn no_information_cycles_are_unknown() {
        let (p, v) = verdicts(
            "(define (tak x y z)
               (if (not (< y x)) z
                   (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))",
        );
        let t = p.proc_id("tak").unwrap();
        // The outer call passes three call results: an arc-free
        // self-graph survives in the closure, so nothing is provable.
        assert_eq!(v.procs[t.0 as usize], Verdict::Unknown);
    }

    #[test]
    fn non_recursive_procs_are_bounded_with_exempt_params() {
        let (p, v) = verdicts("(define (g x) x) (define (f x) (g (g x)))");
        for d in &p.defs {
            let pid = p.proc_id(&d.name).unwrap();
            assert_eq!(v.procs[pid.0 as usize], Verdict::Bounded);
            assert!(v.exempt_vars.contains(&d.params[0]));
        }
        assert!((0..v.owners.len() as u32).all(|l| !v.on_stack(l)));
    }

    #[test]
    fn labels_inherit_their_owners_verdict() {
        let (p, v) = verdicts(
            "(define (ping n) (pong (+ n 1)))
             (define (pong n) (ping (+ n 1)))",
        );
        let ping = p.proc_id("ping").unwrap();
        let label = p.proc(ping).body.label().0;
        assert_eq!(v.at_label(label), Verdict::Unbounded);
        assert!(v.on_stack(label));
        assert_eq!(v.at_label(9_999_999), Verdict::Unknown);
        assert!(!v.on_stack(9_999_999));
    }
}
