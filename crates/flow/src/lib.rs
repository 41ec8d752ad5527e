//! pe-flow: dataflow analysis over S₀ residual programs.
//!
//! The specializer's output language S₀ (defined here, in
//! [`s0`], and re-exported by pe-core) is first-order and
//! tail-recursive: procedures bind only at entry, bodies are acyclic
//! trees of conditionals, and loops are inter-procedural tail calls.
//! So any fact about one procedure is one walk over its body tree, and
//! the interesting analyses are the interprocedural fixpoints over the
//! call graph, each governed by the same [`pe_governor`] fuel
//! discipline as the rest of the pipeline:
//!
//! * [`liveness`] — the interprocedural parameter-liveness fixpoint;
//! * [`constprop`] — interprocedural copy/constant propagation;
//! * [`slots`] — closure-label analysis: the labels that can reach each
//!   parameter, each label's fewest captures, dispatch-arm
//!   decidability;
//! * [`opt`] — the residual optimizer: Unmix-style syntactic
//!   post-processing ([`postprocess`]) plus the flow passes
//!   ([`optimize`]);
//! * [`check`](mod@check) — the well-formedness check (entry, unique
//!   names and parameters, binding, call and primitive arity) that
//!   pe-verify reports as its pass 1.
//!
//! The crate sits *below* pe-core: the specializer post-processes and
//! verifies through these analyses — `pe_core::run` times
//! [`postprocess`] and [`optimize`] under its `post` and `flow` spans and
//! attributes that time to residual procedures with
//! [`S0Program::attribute_by_size`](s0::S0Program::attribute_by_size) —
//! and pe-core re-exports the S₀ types at its root.

pub mod check;
pub mod constprop;
pub mod liveness;
pub mod opt;
pub mod s0;
pub mod slots;

mod cfg {
    //! The control-flow graph of an S₀ program, counted from its bodies.
    //!
    //! A procedure binds only at entry and its body is a tree of tail
    //! expressions, so its graph is that tree under an entry node: one
    //! node per tail expression plus the entry, and one edge into each
    //! tail expression. Nothing builds the graph; [`nodes`] lists a
    //! body's tail expressions in the order a graph would number them,
    //! and [`counts`] sizes a program for [`FlowStats`](crate::FlowStats).

    use crate::s0::{S0Program, S0Tail};

    /// The tail expressions of `body` in pre-order: each conditional
    /// before its arms, the then arm's subtree before the else arm.
    pub(crate) fn nodes(body: &S0Tail) -> impl Iterator<Item = &S0Tail> {
        let mut stack = vec![body];
        std::iter::from_fn(move || {
            let t = stack.pop()?;
            if let S0Tail::If(_, then, els) = t {
                stack.push(els);
                stack.push(then);
            }
            Some(t)
        })
    }

    /// `(nodes, edges)` of `p`'s graph: per procedure, one entry node
    /// plus one node per tail expression, and one edge fewer than nodes.
    pub(crate) fn counts(p: &S0Program) -> (usize, usize) {
        let edges: usize = p.procs.iter().map(|q| nodes(&q.body).count()).sum();
        (p.procs.len() + edges, edges)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::s0::{S0Proc, S0Simple};
        use pe_frontend::ast::Constant;
        use pe_frontend::Prim;
        use pe_governor::{Fuel, Limits};

        fn var(k: usize) -> S0Simple {
            S0Simple::Var(k)
        }

        fn program(procs: Vec<S0Proc>) -> S0Program {
            S0Program { entry: 0, procs }
        }

        #[test]
        fn straight_line_body_is_entry_plus_leaf() {
            let p = S0Proc {
                name: "f".into(),
                params: vec!["x".into()],
                body: S0Tail::Return(var(0)),
            };
            assert_eq!(nodes(&p.body).collect::<Vec<_>>(), vec![&p.body]);
            assert_eq!(counts(&program(vec![p])), (2, 1));
        }

        #[test]
        fn branches_fan_out_then_before_else() {
            let p = S0Proc {
                name: "f".into(),
                params: vec!["n".into()],
                body: S0Tail::If(
                    S0Simple::Prim(Prim::ZeroP, vec![var(0)]),
                    Box::new(S0Tail::Return(S0Simple::Const(Constant::Int(0)))),
                    Box::new(S0Tail::TailCall(0, vec![var(0)])),
                ),
            };
            // entry, branch, return, call
            let order = nodes(&p.body).collect::<Vec<_>>();
            let [branch, t, e] = order[..] else {
                panic!("three tail nodes: {order:?}")
            };
            let S0Tail::If(_, then, els) = branch else {
                panic!("branch first: {branch:?}")
            };
            assert!(std::ptr::eq(t, &**then) && std::ptr::eq(e, &**els));
            assert!(matches!(t, S0Tail::Return(_)));
            assert!(matches!(e, S0Tail::TailCall(_, _)));
            assert_eq!(counts(&program(vec![p])), (4, 3));
        }

        #[test]
        fn program_cfg_totals_are_sums() {
            let fail = |name: &str, msg: &str| S0Proc {
                name: name.into(),
                params: vec![],
                body: S0Tail::Fail(msg.into()),
            };
            let p = program(vec![fail("a", "x"), fail("b", "y")]);
            assert_eq!(counts(&program(vec![fail("a", "x")])), (2, 1));
            assert_eq!(counts(&p), (4, 2));
            // optimize reports the counts of the program it returns.
            let (q, stats, _) = crate::optimize(p, &mut Fuel::new(&Limits::default())).unwrap();
            assert_eq!(q.procs.len(), 2);
            assert_eq!((stats.cfg_nodes, stats.cfg_edges), (4, 2));
        }
    }
}

pub use check::{check, FlowDiag};
pub use opt::{optimize, optimize_with, postprocess, FlowOptions, FlowStats};
