//! # pe-sct — size-change termination analysis for specialization control
//!
//! The specializer of this repository controls unfolding *dynamically*:
//! memo tables detect repetition, §4.5 generalization catches
//! self-embedding data, bounded-static-variation widening caps slot
//! variety, and the governor's fuel backstops everything.  This crate
//! moves part of that control *before* specialization, in the style of
//! Lee–Jones–Ben-Amram size-change termination:
//!
//! 1. [`callgraph`] builds one size-change graph per syntactic call
//!    edge of the desugared program, with descent facts read off
//!    destructor chains (`car`/`cdr` ⇒ structural descent), arithmetic
//!    patterns (`sub1`, `(- x k)` ⇒ arithmetic descent; `add1`,
//!    `(+ x k)` ⇒ increase), and constructor/closure embedding
//!    (`cons`, `lambda` capture ⇒ in-situ increase).
//! 2. [`closure`] closes the graph set under composition inside each
//!    call-graph component (budgeted).
//! 3. [`verdict`] classifies every specialization-point candidate as
//!    **bounded** (static data provably descends), **unbounded**
//!    (provable in-situ increase on a cycle — generalize eagerly), or
//!    **unknown** (keep the dynamic machinery), and derives the
//!    slot-level annotation tables the specializer consumes.
//! 4. [`reject`] detects two provably-divergent-on-every-input shapes
//!    (unconditional call cycles, unconditional self-application
//!    cycles) so hostile programs are refused with a structured
//!    [`Trap`] before any fuel is spent.
//!
//! The verdicts deliberately under-claim: arithmetic descent yields
//! `Bounded` (the procedure terminates on the naturals the benchmarks
//! compute with) but does **not** exempt the slot from widening,
//! because the subject language's integers are not well-founded.

pub mod callgraph;
pub mod closure;
pub mod graph;
pub mod reject;
pub mod verdict;

pub use graph::{Descent, Rel, SizeGraph};
pub use verdict::{Verdict, Verdicts};

use pe_frontend::dast::DProgram;
use pe_frontend::flow::FlowAnalysis;
use pe_governor::Trap;

/// Effort accounting for one analysis run (flushed to pe-trace
/// counters by the compiler).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SctStats {
    /// Size-change graphs built from syntactic call edges.
    pub graphs: u64,
    /// Graph compositions performed while closing.
    pub compositions: u64,
    /// Procedures classified `Bounded`.
    pub bounded: u64,
    /// Procedures classified `Unbounded`.
    pub unbounded: u64,
    /// Procedures classified `Unknown`.
    pub unknown: u64,
}

/// The complete analysis result for one program and entry point.
#[derive(Debug, Clone)]
pub struct SctAnalysis {
    /// Per-procedure and per-label verdicts plus slot annotations.
    pub verdicts: Verdicts,
    /// Effort and classification counts.
    pub stats: SctStats,
    /// `Some` when the program provably diverges from `entry` on every
    /// input; the compiler refuses it before specializing.
    pub divergence: Option<Trap>,
}

impl SctAnalysis {
    /// Per-procedure verdicts paired with procedure names, in program
    /// order (the report shape used by `pe-explain -- --sct`).
    #[must_use]
    pub fn named_verdicts<'p>(&self, p: &'p DProgram) -> Vec<(&'p str, Verdict)> {
        p.defs
            .iter()
            .zip(&self.verdicts.procs)
            .map(|(d, &v)| (&*d.name, v))
            .collect()
    }
}

/// Runs the full analysis: graphs, closure, verdicts, early reject.
#[must_use]
pub fn analyze(p: &DProgram, flow: &FlowAnalysis, entry: &str) -> SctAnalysis {
    let owned = p.owned_lambdas();
    let graphs = callgraph::build(p, &owned);
    let closed = closure::close(p.defs.len(), &graphs);
    let verdicts = verdict::classify(p, &owned, &closed);
    let mut stats = SctStats {
        graphs: graphs.len() as u64,
        compositions: closed.compositions,
        ..SctStats::default()
    };
    for v in &verdicts.procs {
        match v {
            Verdict::Bounded => stats.bounded += 1,
            Verdict::Unbounded => stats.unbounded += 1,
            Verdict::Unknown => stats.unknown += 1,
        }
    }
    let divergence = reject::check(p, &owned, flow, entry);
    SctAnalysis { verdicts, stats, divergence }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_frontend::{desugar, parse_source};

    fn run(src: &str, entry: &str) -> (DProgram, SctAnalysis) {
        let p = desugar(&parse_source(src).unwrap()).unwrap();
        let f = FlowAnalysis::analyze(&p);
        let a = analyze(&p, &f, entry);
        (p, a)
    }

    #[test]
    fn analysis_is_deterministic() {
        let src = "(define (append x y) (cps-append x y (lambda (v) v)))
                   (define (cps-append x y c)
                     (if (null? x) (c y)
                         (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";
        let (p1, a1) = run(src, "append");
        let (_, a2) = run(src, "append");
        assert_eq!(a1.verdicts.procs, a2.verdicts.procs);
        assert_eq!(a1.stats, a2.stats);
        assert_eq!(a1.named_verdicts(&p1), a2.named_verdicts(&p1));
    }

    #[test]
    fn cps_append_is_bounded_with_structural_exemption() {
        let (p, a) = run(
            "(define (append x y) (cps-append x y (lambda (v) v)))
             (define (cps-append x y c)
               (if (null? x) (c y)
                   (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))",
            "append",
        );
        let cps = p.proc_id("cps-append").unwrap();
        assert_eq!(a.verdicts.procs[cps.0 as usize], Verdict::Bounded);
        // x structurally descends on the only cycle; the continuation
        // grows (closure capture) and is flagged eager.
        let params = &p.proc(cps).params;
        assert!(a.verdicts.exempt_vars.contains(&params[0]));
        assert!(a.verdicts.eager_vars.contains(&params[2]));
        assert!(a.divergence.is_none());
    }

    #[test]
    fn stats_cover_every_procedure() {
        let (p, a) = run(
            "(define (f n) (if (zero? n) 0 (g (- n 1))))
             (define (g n) (if (zero? n) 1 (f (- n 1))))
             (define (main n) (f n))",
            "main",
        );
        assert_eq!(
            a.stats.bounded + a.stats.unbounded + a.stats.unknown,
            p.defs.len() as u64
        );
        assert!(a.stats.graphs >= 3);
        assert!(a.stats.compositions > 0);
    }
}
