//! Size-change graphs: the per-call-edge descent facts and their
//! composition algebra.
//!
//! A [`SizeGraph`] records, for one (possibly derived) call from
//! procedure `src` to procedure `dst`, every *guaranteed* size relation
//! between a parameter of the caller and the argument delivered to a
//! parameter of the callee.  Composition (`;`) chains two graphs through
//! a shared middle procedure; the closure module iterates composition to
//! a fixed point.

use pe_frontend::dast::ProcId;
use std::collections::BTreeMap;

/// What kind of strict descent an arc carries.
///
/// The distinction matters for what the specializer may *skip*:
/// structural descent (`car`/`cdr` chains) is well-founded on the finite
/// static data the specializer holds, so bounded-static-variation
/// widening is provably unnecessary along it.  Arithmetic descent
/// (`sub1`, `(- x k)`) is well-founded on naturals but **not** on the
/// full integers the subject language computes with, so it supports a
/// termination verdict only together with the widening backstop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Descent {
    /// Destructor application: the argument is a strict substructure.
    Structural,
    /// Arithmetic decrease by a positive constant.
    Arith,
}

/// The guaranteed relation between a caller parameter and a callee
/// argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rel {
    /// The argument is strictly smaller than the parameter.
    Down(Descent),
    /// The argument is the parameter itself (or provably equal in size).
    Eq,
    /// The argument strictly *contains* (or arithmetically exceeds) the
    /// parameter: an in-situ increase.
    Up,
}

impl Rel {
    /// Sequential composition of two guaranteed relations, `None` when
    /// nothing is guaranteed about the combined step.
    #[must_use]
    pub fn compose(self, other: Rel) -> Option<Rel> {
        use Rel::*;
        match (self, other) {
            // Two descents chain; structural quality survives only if
            // both steps are structural.
            (Down(a), Down(b)) => Some(Down(a.max(b))),
            (Down(d), Eq) | (Eq, Down(d)) => Some(Down(d)),
            (Eq, Eq) => Some(Eq),
            (Up, Up) | (Up, Eq) | (Eq, Up) => Some(Up),
            // A decrease followed by an increase (or vice versa) nets
            // out to nothing provable.
            (Down(_), Up) | (Up, Down(_)) => None,
        }
    }

    /// Merges two relations guaranteed for the *same* arc via different
    /// middle parameters.  Descent claims dominate (they are the ones a
    /// termination argument consumes); conflicting claims collapse to
    /// the weaker guarantee.
    #[must_use]
    pub fn join(self, other: Rel) -> Rel {
        use Rel::*;
        match (self, other) {
            (Down(a), Down(b)) => Down(a.min(b)),
            (Down(d), _) | (_, Down(d)) => Down(d),
            (Eq, Eq) => Eq,
            (Up, Up) => Up,
            (Eq, Up) | (Up, Eq) => Up,
        }
    }
}

/// A size-change graph for one call edge `src → dst`.
///
/// Arcs are keyed by `(caller parameter index, callee parameter index)`.
/// An absent arc means "no guaranteed relation" — the sound default.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SizeGraph {
    /// The calling procedure.
    pub src: ProcId,
    /// The called procedure.
    pub dst: ProcId,
    /// Guaranteed relations, sparse.
    pub arcs: BTreeMap<(u32, u32), Rel>,
}

impl SizeGraph {
    /// An edge with no arcs: the call happens, nothing is known about
    /// sizes (e.g. every argument is the result of another call).
    #[must_use]
    pub fn empty(src: ProcId, dst: ProcId) -> SizeGraph {
        SizeGraph { src, dst, arcs: BTreeMap::new() }
    }

    /// Adds (or strengthens) one arc.
    pub fn add_arc(&mut self, from: u32, to: u32, rel: Rel) {
        self.arcs
            .entry((from, to))
            .and_modify(|r| *r = r.join(rel))
            .or_insert(rel);
    }

    /// Composes `self ; other` (requires `self.dst == other.src`).
    #[must_use]
    pub fn compose(&self, other: &SizeGraph) -> SizeGraph {
        debug_assert_eq!(self.dst, other.src, "composition through a mismatched middle");
        let mut out = SizeGraph::empty(self.src, other.dst);
        for (&(i, j), &r1) in &self.arcs {
            for (&(j2, k), &r2) in &other.arcs {
                if j != j2 {
                    continue;
                }
                if let Some(r) = r1.compose(r2) {
                    out.add_arc(i, k, r);
                }
            }
        }
        out
    }

    /// True when `self ; self == self` — the idempotent self-graphs are
    /// the ones the Lee–Jones–Ben-Amram criterion inspects.
    #[must_use]
    pub fn is_idempotent(&self) -> bool {
        self.src == self.dst && self.compose(self) == *self
    }

    /// The relation this graph guarantees for parameter `i` of a
    /// self-edge, if any.
    #[must_use]
    pub fn self_arc(&self, i: u32) -> Option<Rel> {
        self.arcs.get(&(i, i)).copied()
    }

    /// True when some parameter provably descends in situ.
    #[must_use]
    pub fn has_in_situ_down(&self) -> bool {
        self.arcs
            .iter()
            .any(|(&(i, j), r)| i == j && matches!(r, Rel::Down(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_algebra() {
        use Descent::*;
        use Rel::*;
        assert_eq!(Down(Structural).compose(Down(Structural)), Some(Down(Structural)));
        assert_eq!(Down(Structural).compose(Down(Arith)), Some(Down(Arith)));
        assert_eq!(Down(Arith).compose(Eq), Some(Down(Arith)));
        assert_eq!(Eq.compose(Eq), Some(Eq));
        assert_eq!(Up.compose(Up), Some(Up));
        assert_eq!(Up.compose(Eq), Some(Up));
        assert_eq!(Down(Structural).compose(Up), None);
        assert_eq!(Up.compose(Down(Arith)), None);
    }

    #[test]
    fn graph_composition_threads_the_middle_parameter() {
        use Descent::*;
        use Rel::*;
        let (p, q, r) = (ProcId(0), ProcId(1), ProcId(2));
        let mut g1 = SizeGraph::empty(p, q);
        g1.add_arc(0, 1, Down(Structural));
        let mut g2 = SizeGraph::empty(q, r);
        g2.add_arc(1, 0, Eq);
        g2.add_arc(0, 0, Up);
        let g = g1.compose(&g2);
        assert_eq!(g.arcs.len(), 1);
        assert_eq!(g.arcs.get(&(0, 0)), Some(&Down(Structural)));
    }

    #[test]
    fn idempotence_detects_stable_self_graphs() {
        use Descent::*;
        use Rel::*;
        let p = ProcId(0);
        let mut g = SizeGraph::empty(p, p);
        g.add_arc(0, 0, Down(Structural));
        g.add_arc(1, 1, Eq);
        assert!(g.is_idempotent());
        // A one-shot descent through a *different* slot is not stable.
        let mut h = SizeGraph::empty(p, p);
        h.add_arc(0, 1, Down(Arith));
        assert!(!h.is_idempotent());
    }
}
