//! S₀ — the target language: a first-order, tail-recursive subset of
//! Scheme (§5).
//!
//! ```text
//! proc ::= (define (P V*) T)
//! T    ::= S | (if S T T) | (P S*) | (%fail "msg")
//! S    ::= V | K | (O S*) | (make-closure ℓ S*)
//!        | (closure-label S) | (closure-freeval S i)
//! ```
//!
//! Simple expressions never call; every call is a tail call — which is
//! exactly what makes the hand-written C translation (labels + `goto`s)
//! possible.  Closures are an abstract data type with `make-closure`,
//! `closure-label` and `closure-freeval`; back ends pick the flat-vector
//! representation.
//!
//! The definitions live in `pe-flow` (below `pe-core`) so the dataflow
//! analyses can see them without a dependency cycle; `pe_core::s0`
//! re-exports everything, so downstream code is unaffected.

use pe_frontend::ast::{Constant, Prim};
use pe_sexpr::Sexpr;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A simple expression: evaluates to a value without any calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S0Simple {
    /// Variable reference.
    Var(String),
    /// Constant.
    Const(Constant),
    /// Primitive application.
    Prim(Prim, Vec<S0Simple>),
    /// `(make-closure ℓ v₁ … vₙ)` — allocate a flat closure record.
    MakeClosure(u32, Vec<S0Simple>),
    /// `(closure-label c)` — the label component.
    ClosureLabel(Box<S0Simple>),
    /// `(closure-freeval c i)` — the i-th captured value.
    ClosureFreeval(Box<S0Simple>, usize),
}

/// A tail expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S0Tail {
    /// Return a value to the caller of `program`.
    Return(S0Simple),
    /// Conditional with simple condition.
    If(S0Simple, Box<S0Tail>, Box<S0Tail>),
    /// Tail call of another procedure.
    TailCall(String, Vec<S0Simple>),
    /// A runtime failure discovered during specialization (e.g. applying
    /// a non-procedure on a path the program may never take).
    Fail(String),
}

/// A first-order procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct S0Proc {
    /// Procedure name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body in tail form.
    pub body: S0Tail,
}

/// A whole S₀ program with a designated entry procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct S0Program {
    /// All procedures; the entry comes first by convention.
    pub procs: Vec<S0Proc>,
    /// Name of the entry procedure.
    pub entry: String,
}

impl S0Simple {
    /// Counts AST nodes (for the §8 code-size experiment).
    pub fn size(&self) -> usize {
        match self {
            S0Simple::Var(_) | S0Simple::Const(_) => 1,
            S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
                1 + args.iter().map(S0Simple::size).sum::<usize>()
            }
            S0Simple::ClosureLabel(a) => 1 + a.size(),
            S0Simple::ClosureFreeval(a, _) => 1 + a.size(),
        }
    }

    /// Recognizes a §5.1 closure-dispatch test
    /// `(eq?/eqv?/equal? ℓ (closure-label c))`, in either operand order,
    /// with a non-negative integer literal ℓ; returns the subject `c`
    /// and ℓ.
    #[must_use]
    pub fn dispatch_test(&self) -> Option<(&S0Simple, u32)> {
        let S0Simple::Prim(Prim::EqP | Prim::EqvP | Prim::EqualP, args) = self else {
            return None;
        };
        let (k, subject) = match args.as_slice() {
            [S0Simple::Const(Constant::Int(k)), S0Simple::ClosureLabel(s)]
            | [S0Simple::ClosureLabel(s), S0Simple::Const(Constant::Int(k))] => (*k, &**s),
            _ => return None,
        };
        u32::try_from(k).ok().map(|k| (subject, k))
    }

    /// Collects free variable names.
    pub fn vars(&self, out: &mut HashSet<String>) {
        match self {
            S0Simple::Var(v) => {
                out.insert(v.clone());
            }
            S0Simple::Const(_) => {}
            S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
                args.iter().for_each(|a| a.vars(out));
            }
            S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => a.vars(out),
        }
    }

    /// Substitutes variables by expressions (capture is impossible in S₀:
    /// there are no binders inside expressions).
    pub fn subst(&self, map: &HashMap<String, S0Simple>) -> S0Simple {
        match self {
            S0Simple::Var(v) => map.get(v).cloned().unwrap_or_else(|| self.clone()),
            S0Simple::Const(_) => self.clone(),
            S0Simple::Prim(op, args) => {
                S0Simple::Prim(*op, args.iter().map(|a| a.subst(map)).collect())
            }
            S0Simple::MakeClosure(l, args) => {
                S0Simple::MakeClosure(*l, args.iter().map(|a| a.subst(map)).collect())
            }
            S0Simple::ClosureLabel(a) => S0Simple::ClosureLabel(Box::new(a.subst(map))),
            S0Simple::ClosureFreeval(a, i) => {
                S0Simple::ClosureFreeval(Box::new(a.subst(map)), *i)
            }
        }
    }

    fn to_sexpr(&self) -> Sexpr {
        match self {
            S0Simple::Var(v) => Sexpr::sym_of(v),
            S0Simple::Const(k) => match k {
                Constant::Int(n) => Sexpr::Int(*n),
                Constant::Bool(b) => Sexpr::Bool(*b),
                Constant::Char(c) => Sexpr::Char(*c),
                Constant::Str(s) => Sexpr::Str(s.clone()),
                k => Sexpr::list_of([Sexpr::sym_of("quote"), k.to_sexpr()]),
            },
            S0Simple::Prim(op, args) => {
                let mut xs = vec![Sexpr::sym_of(op.name())];
                xs.extend(args.iter().map(S0Simple::to_sexpr));
                Sexpr::List(xs)
            }
            S0Simple::MakeClosure(l, args) => {
                let mut xs = vec![Sexpr::sym_of("make-closure"), Sexpr::Int(i64::from(*l))];
                xs.extend(args.iter().map(S0Simple::to_sexpr));
                Sexpr::List(xs)
            }
            S0Simple::ClosureLabel(a) => {
                Sexpr::list_of([Sexpr::sym_of("closure-label"), a.to_sexpr()])
            }
            S0Simple::ClosureFreeval(a, i) => Sexpr::list_of([
                Sexpr::sym_of("closure-freeval"),
                a.to_sexpr(),
                Sexpr::Int(*i as i64),
            ]),
        }
    }
}

impl S0Tail {
    /// Counts AST nodes.
    pub fn size(&self) -> usize {
        match self {
            S0Tail::Return(s) => s.size(),
            S0Tail::If(c, t, e) => 1 + c.size() + t.size() + e.size(),
            S0Tail::TailCall(_, args) => 1 + args.iter().map(S0Simple::size).sum::<usize>(),
            S0Tail::Fail(_) => 1,
        }
    }

    /// Calls `f` on every tail call's procedure name.
    pub fn calls(&self, f: &mut impl FnMut(&str)) {
        match self {
            S0Tail::Return(_) | S0Tail::Fail(_) => {}
            S0Tail::If(_, t, e) => {
                t.calls(f);
                e.calls(f);
            }
            S0Tail::TailCall(p, _) => f(p),
        }
    }

    /// Collects free variable names.
    pub fn vars(&self, out: &mut HashSet<String>) {
        match self {
            S0Tail::Return(s) => s.vars(out),
            S0Tail::If(c, t, e) => {
                c.vars(out);
                t.vars(out);
                e.vars(out);
            }
            S0Tail::TailCall(_, args) => args.iter().for_each(|a| a.vars(out)),
            S0Tail::Fail(_) => {}
        }
    }

    /// Substitutes variables by simple expressions throughout.
    pub fn subst(&self, map: &HashMap<String, S0Simple>) -> S0Tail {
        match self {
            S0Tail::Return(s) => S0Tail::Return(s.subst(map)),
            S0Tail::If(c, t, e) => {
                S0Tail::If(c.subst(map), Box::new(t.subst(map)), Box::new(e.subst(map)))
            }
            S0Tail::TailCall(p, args) => {
                S0Tail::TailCall(p.clone(), args.iter().map(|a| a.subst(map)).collect())
            }
            S0Tail::Fail(m) => S0Tail::Fail(m.clone()),
        }
    }

    fn to_sexpr(&self) -> Sexpr {
        match self {
            S0Tail::Return(s) => s.to_sexpr(),
            S0Tail::If(c, t, e) => Sexpr::list_of([
                Sexpr::sym_of("if"),
                c.to_sexpr(),
                t.to_sexpr(),
                e.to_sexpr(),
            ]),
            S0Tail::TailCall(p, args) => {
                let mut xs = vec![Sexpr::sym_of(p)];
                xs.extend(args.iter().map(S0Simple::to_sexpr));
                Sexpr::List(xs)
            }
            S0Tail::Fail(m) => {
                Sexpr::list_of([Sexpr::sym_of("%fail"), Sexpr::Str(m.as_str().into())])
            }
        }
    }
}

impl S0Proc {
    /// Renders as a `(define …)` form.
    pub fn to_sexpr(&self) -> Sexpr {
        let mut head = vec![Sexpr::sym_of(&self.name)];
        head.extend(self.params.iter().map(|p| Sexpr::sym_of(p)));
        Sexpr::list_of([Sexpr::sym_of("define"), Sexpr::List(head), self.body.to_sexpr()])
    }

    /// Counts AST nodes.
    pub fn size(&self) -> usize {
        1 + self.params.len() + self.body.size()
    }
}

impl S0Program {
    /// Finds a procedure by name.
    pub fn proc(&self, name: &str) -> Option<&S0Proc> {
        self.procs.iter().find(|p| p.name == name)
    }

    /// One row of `init` per parameter, keyed by procedure name and
    /// sized by the name's first definition — the one [`S0Program::proc`]
    /// and calls resolve to.  The interprocedural analyses keep their
    /// facts in such rows.
    pub(crate) fn param_rows<T: Clone>(&self, init: T) -> HashMap<String, Vec<T>> {
        let mut rows = HashMap::new();
        for q in self.procs.iter().rev() {
            rows.insert(q.name.clone(), vec![init.clone(); q.params.len()]);
        }
        rows
    }

    /// Total AST node count (for the §8 code-size experiment).
    pub fn size(&self) -> usize {
        self.procs.iter().map(S0Proc::size).sum()
    }

    /// Spreads `total_ns` of a whole-program pass over the procedures
    /// by AST node share (the deterministic work measure of such
    /// passes) and emits one `Event::Attr` row per procedure under
    /// `phase`.  The parts sum exactly to `total_ns`, so the phase's
    /// books balance.
    pub fn attribute_by_size(
        &self,
        sink: &mut dyn pe_trace::Sink,
        phase: pe_trace::Phase,
        total_ns: u64,
    ) {
        let weights: Vec<u64> = self.procs.iter().map(|q| q.size() as u64).collect();
        let parts = pe_prof::distribute_ns(total_ns, &weights);
        for (q, (ns, units)) in self.procs.iter().zip(parts.into_iter().zip(weights)) {
            sink.attr(phase, &q.name, ns, units);
        }
    }

    /// Renders the program as concrete syntax.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        for p in &self.procs {
            out.push_str(&pe_sexpr::pretty(&p.to_sexpr()));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for S0Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(v: &str) -> S0Simple {
        S0Simple::Var(v.to_string())
    }

    #[test]
    fn print_shape_matches_paper_style() {
        let p = S0Proc {
            name: "sl-eval-$3".into(),
            params: vec!["cv-vals-$1".into(), "cv-vals-$2".into()],
            body: S0Tail::If(
                S0Simple::Prim(Prim::NullP, vec![var("cv-vals-$1")]),
                Box::new(S0Tail::Return(var("cv-vals-$2"))),
                Box::new(S0Tail::TailCall(
                    "sl-eval-$3".into(),
                    vec![
                        S0Simple::Prim(Prim::Cdr, vec![var("cv-vals-$1")]),
                        S0Simple::MakeClosure(24, vec![var("cv-vals-$2")]),
                    ],
                )),
            ),
        };
        let s = p.to_sexpr().to_string();
        assert!(s.contains("(make-closure 24 cv-vals-$2)"), "{s}");
        assert!(s.starts_with("(define (sl-eval-$3 cv-vals-$1 cv-vals-$2)"), "{s}");
    }

    #[test]
    fn subst_replaces_free_vars() {
        let t = S0Tail::TailCall("f".into(), vec![var("x"), S0Simple::Prim(Prim::Car, vec![var("y")])]);
        let mut m = HashMap::new();
        m.insert("x".to_string(), S0Simple::Const(Constant::Int(1)));
        let t2 = t.subst(&m);
        assert_eq!(
            t2,
            S0Tail::TailCall(
                "f".into(),
                vec![
                    S0Simple::Const(Constant::Int(1)),
                    S0Simple::Prim(Prim::Car, vec![var("y")])
                ]
            )
        );
    }

    #[test]
    fn sizes_are_positive_and_additive() {
        let s = S0Simple::Prim(Prim::Cons, vec![var("a"), var("b")]);
        assert_eq!(s.size(), 3);
        let t = S0Tail::Return(s);
        assert_eq!(t.size(), 3);
    }
}
