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
//! A variable is bound only at procedure entry and every call targets a
//! top-level procedure, so the tree holds positions, not names: a
//! variable is a position in its procedure's parameter list and a
//! callee (like the entry) a position in the program's procedure list.
//! Every consumer reads them directly.  The names in [`S0Proc`] only
//! print the program, name the C labels and name procedures in
//! diagnostics.  A position past the end of its list is an ill-formed
//! program, which [`check`](crate::check()) reports; it prints as
//! `%unbound` (a variable) or `%undefined` (a callee).
//!
//! The definitions live in `pe-flow` (below `pe-core`) so the dataflow
//! analyses can see them without a dependency cycle; pe-core re-exports
//! the four types at its root (`pe_core::S0Program` and the rest).

use pe_frontend::ast::{Constant, Prim};
use pe_sexpr::{Atom, Layout, Node, Sexpr};
use std::fmt;

/// A simple expression: evaluates to a value without any calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S0Simple {
    /// Variable reference: a position in the enclosing procedure's
    /// `params`.
    Var(usize),
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
    /// Tail call of the procedure at this position of the program's
    /// `procs`.
    TailCall(usize, Vec<S0Simple>),
    /// A runtime failure discovered during specialization (e.g. applying
    /// a non-procedure on a path the program may never take).
    Fail(String),
}

/// A first-order procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct S0Proc {
    /// Procedure name: printed, and names the C label and the procedure
    /// in diagnostics and cost rows.
    pub name: String,
    /// Parameter names, printed; a variable is a position in this list.
    pub params: Vec<String>,
    /// Body in tail form.
    pub body: S0Tail,
}

/// A whole S₀ program with a designated entry procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct S0Program {
    /// All procedures; the entry comes first by convention.
    pub procs: Vec<S0Proc>,
    /// Position of the entry procedure in `procs`.
    pub entry: usize,
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

    /// Calls `f` on the position of every variable read, in pre-order.
    pub fn vars(&self, f: &mut impl FnMut(usize)) {
        match self {
            S0Simple::Var(k) => f(*k),
            S0Simple::Const(_) => {}
            S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
                args.iter().for_each(|a| a.vars(f));
            }
            S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => a.vars(f),
        }
    }

    /// Replaces each variable by `var` of its position (capture is
    /// impossible in S₀: there are no binders inside expressions).
    pub fn subst(&self, var: &impl Fn(usize) -> S0Simple) -> S0Simple {
        match self {
            S0Simple::Var(k) => var(*k),
            S0Simple::Const(_) => self.clone(),
            S0Simple::Prim(op, args) => {
                S0Simple::Prim(*op, args.iter().map(|a| a.subst(var)).collect())
            }
            S0Simple::MakeClosure(l, args) => {
                S0Simple::MakeClosure(*l, args.iter().map(|a| a.subst(var)).collect())
            }
            S0Simple::ClosureLabel(a) => S0Simple::ClosureLabel(Box::new(a.subst(var))),
            S0Simple::ClosureFreeval(a, i) => {
                S0Simple::ClosureFreeval(Box::new(a.subst(var)), *i)
            }
        }
    }

    /// The printed form, with variables named by `params`.
    fn to_sexpr(&self, params: &[String]) -> Sexpr {
        match self {
            S0Simple::Var(k) => Sexpr::sym_of(params.get(*k).map_or(UNBOUND, String::as_str)),
            S0Simple::Const(k) => match k {
                Constant::Int(n) => Sexpr::Int(*n),
                Constant::Bool(b) => Sexpr::Bool(*b),
                Constant::Char(c) => Sexpr::Char(*c),
                Constant::Str(s) => Sexpr::Str(s.clone()),
                k => Sexpr::list_of([Sexpr::sym_of("quote"), k.to_sexpr()]),
            },
            S0Simple::Prim(op, args) => {
                let mut xs = vec![Sexpr::sym_of(op.name())];
                xs.extend(args.iter().map(|a| a.to_sexpr(params)));
                Sexpr::List(xs)
            }
            S0Simple::MakeClosure(l, args) => {
                let mut xs = vec![Sexpr::sym_of("make-closure"), Sexpr::Int(i64::from(*l))];
                xs.extend(args.iter().map(|a| a.to_sexpr(params)));
                Sexpr::List(xs)
            }
            S0Simple::ClosureLabel(a) => {
                Sexpr::list_of([Sexpr::sym_of("closure-label"), a.to_sexpr(params)])
            }
            S0Simple::ClosureFreeval(a, i) => Sexpr::list_of([
                Sexpr::sym_of("closure-freeval"),
                a.to_sexpr(params),
                Sexpr::Int(*i as i64),
            ]),
        }
    }
}

/// How a variable position past its procedure's parameters prints.
const UNBOUND: &str = "%unbound";
/// How a callee position past the program's procedures prints.
const UNDEFINED: &str = "%undefined";

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

    /// Calls `f` on every tail call's callee position, the then arm's
    /// calls before the else arm's.
    pub fn calls(&self, f: &mut impl FnMut(usize)) {
        match self {
            S0Tail::Return(_) | S0Tail::Fail(_) => {}
            S0Tail::If(_, t, e) => {
                t.calls(f);
                e.calls(f);
            }
            S0Tail::TailCall(p, _) => f(*p),
        }
    }

    /// Calls `f` on the position of every variable read, in pre-order.
    pub fn vars(&self, f: &mut impl FnMut(usize)) {
        match self {
            S0Tail::Return(s) => s.vars(f),
            S0Tail::If(c, t, e) => {
                c.vars(f);
                t.vars(f);
                e.vars(f);
            }
            S0Tail::TailCall(_, args) => args.iter().for_each(|a| a.vars(f)),
            S0Tail::Fail(_) => {}
        }
    }

    /// Replaces each variable by `var` of its position throughout.
    pub fn subst(&self, var: &impl Fn(usize) -> S0Simple) -> S0Tail {
        match self {
            S0Tail::Return(s) => S0Tail::Return(s.subst(var)),
            S0Tail::If(c, t, e) => {
                S0Tail::If(c.subst(var), Box::new(t.subst(var)), Box::new(e.subst(var)))
            }
            S0Tail::TailCall(p, args) => {
                S0Tail::TailCall(*p, args.iter().map(|a| a.subst(var)).collect())
            }
            S0Tail::Fail(m) => S0Tail::Fail(m.clone()),
        }
    }

    /// The printed form, with callees named by `procs` and variables by
    /// `params`.
    fn to_sexpr(&self, procs: &[S0Proc], params: &[String]) -> Sexpr {
        match self {
            S0Tail::Return(s) => s.to_sexpr(params),
            S0Tail::If(c, t, e) => Sexpr::list_of([
                Sexpr::sym_of("if"),
                c.to_sexpr(params),
                t.to_sexpr(procs, params),
                e.to_sexpr(procs, params),
            ]),
            S0Tail::TailCall(p, args) => {
                let mut xs = vec![Sexpr::sym_of(procs.get(*p).map_or(UNDEFINED, |q| &q.name))];
                xs.extend(args.iter().map(|a| a.to_sexpr(params)));
                Sexpr::List(xs)
            }
            S0Tail::Fail(m) => {
                Sexpr::list_of([Sexpr::sym_of("%fail"), Sexpr::Str(m.as_str().into())])
            }
        }
    }
}

impl S0Proc {
    /// Counts AST nodes.
    pub fn size(&self) -> usize {
        1 + self.params.len() + self.body.size()
    }
}

impl S0Program {
    /// The procedure at position `i` as a `(define …)` form.
    ///
    /// # Panics
    ///
    /// When `i` is not a position of `procs`.
    #[must_use]
    pub fn proc_sexpr(&self, i: usize) -> Sexpr {
        let q = &self.procs[i];
        let mut head = vec![Sexpr::sym_of(&q.name)];
        head.extend(q.params.iter().map(|p| Sexpr::sym_of(p)));
        Sexpr::list_of([
            Sexpr::sym_of("define"),
            Sexpr::List(head),
            q.body.to_sexpr(&self.procs, &q.params),
        ])
    }

    /// Which procedures, by position, a run from the entry can reach.
    #[must_use]
    pub fn reachable(&self) -> Vec<bool> {
        let mut reached = vec![false; self.procs.len()];
        let mut work = vec![self.entry];
        while let Some(i) = work.pop() {
            if reached.get(i).is_some_and(|&r| !r) {
                reached[i] = true;
                self.procs[i].body.calls(&mut |callee| work.push(callee));
            }
        }
        reached
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

    /// Renders the program as concrete syntax: each procedure as
    /// pe-sexpr's printer lays out its [`S0Program::proc_sexpr`] form,
    /// on a line of its own, without building that form.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        for p in &self.procs {
            pe_sexpr::write_pretty(Doc::Proc(p, &self.procs), &mut out);
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

/// A node of an S₀ procedure's printed form, viewed in place for
/// pe-sexpr's printer: the [`Layout`] of exactly the tree
/// [`S0Program::proc_sexpr`] builds.  A tail carries the program's
/// procedures, which name its callees, and a tail or simple expression
/// its procedure's parameters, which name its variables.
#[derive(Clone, Copy)]
enum Doc<'a> {
    Atom(Atom<'a>),
    /// `(define (P V*) T)`.
    Proc(&'a S0Proc, &'a [S0Proc]),
    /// `(P V*)`.
    Header(&'a S0Proc),
    Tail(&'a S0Tail, &'a [S0Proc], &'a [String]),
    Simple(&'a S0Simple, &'a [String]),
    /// A constant under `quote`, as [`Constant::to_sexpr`] renders it.
    Datum(&'a Constant),
}

/// The elements of the [`Doc`] list `of`, from the `next`-th on.
#[derive(Clone)]
struct Elems<'a> {
    of: Doc<'a>,
    next: usize,
    /// For a quoted pair chain: the rest of the chain, whose cars come
    /// next, then its end when that is not `()`.
    spine: Option<&'a Constant>,
    /// For a chain not ending in `()`: `cons-spine` comes first.
    cons_spine: bool,
}

fn sym(s: &str) -> Doc<'_> {
    Doc::Atom(Atom::Sym(s))
}

fn int<'a>(n: i64) -> Doc<'a> {
    Doc::Atom(Atom::Int(n))
}

impl<'a> Iterator for Elems<'a> {
    type Item = Doc<'a>;

    fn next(&mut self) -> Option<Doc<'a>> {
        let i = self.next;
        self.next += 1;
        // The `i`-th of a head and `xs`, each element viewed by `f`.
        fn listed<'a, T>(
            i: usize,
            head: Doc<'a>,
            xs: &'a [T],
            f: impl Fn(&'a T) -> Doc<'a>,
        ) -> Option<Doc<'a>> {
            if i == 0 {
                Some(head)
            } else {
                xs.get(i - 1).map(f)
            }
        }
        let simple = |params| move |s| Doc::Simple(s, params);
        match self.of {
            Doc::Proc(q, procs) => {
                let body = Doc::Tail(&q.body, procs, &q.params);
                [sym("define"), Doc::Header(q), body].get(i).copied()
            }
            Doc::Header(q) => listed(i, sym(&q.name), &q.params, |v| sym(v)),
            Doc::Tail(S0Tail::If(c, a, b), procs, params) => [
                sym("if"),
                Doc::Simple(c, params),
                Doc::Tail(a, procs, params),
                Doc::Tail(b, procs, params),
            ]
            .get(i)
            .copied(),
            Doc::Tail(S0Tail::TailCall(p, args), procs, params) => {
                let callee = procs.get(*p).map_or(UNDEFINED, |q| &q.name);
                listed(i, sym(callee), args, simple(params))
            }
            Doc::Tail(S0Tail::Fail(m), ..) => {
                [sym("%fail"), Doc::Atom(Atom::Str(m))].get(i).copied()
            }
            Doc::Simple(S0Simple::Const(k), _) => [sym("quote"), Doc::Datum(k)].get(i).copied(),
            Doc::Simple(S0Simple::Prim(op, args), params) => {
                listed(i, sym(op.name()), args, simple(params))
            }
            Doc::Simple(S0Simple::MakeClosure(l, args), params) => match i {
                0 => Some(sym("make-closure")),
                1 => Some(int(i64::from(*l))),
                _ => args.get(i - 2).map(simple(params)),
            },
            Doc::Simple(S0Simple::ClosureLabel(a), params) => {
                [sym("closure-label"), Doc::Simple(a, params)].get(i).copied()
            }
            Doc::Simple(S0Simple::ClosureFreeval(a, k), params) => {
                [sym("closure-freeval"), Doc::Simple(a, params), int(*k as i64)].get(i).copied()
            }
            Doc::Datum(Constant::Pair(..)) if std::mem::take(&mut self.cons_spine) => {
                Some(sym("cons-spine"))
            }
            Doc::Datum(Constant::Pair(..)) => match self.spine? {
                Constant::Pair(a, d) => {
                    self.spine = Some(&**d);
                    Some(Doc::Datum(a))
                }
                Constant::Nil => None,
                end => {
                    self.spine = None;
                    Some(Doc::Datum(end))
                }
            },
            _ => None,
        }
    }
}

impl<'a> Layout<'a> for Doc<'a> {
    type Elems = Elems<'a>;

    fn node(self) -> Node<'a, Elems<'a>> {
        let atom = |a| Node::Atom(a);
        let constant = |k: &'a Constant| match k {
            Constant::Int(n) => Some(Atom::Int(*n)),
            Constant::Bool(b) => Some(Atom::Bool(*b)),
            Constant::Char(c) => Some(Atom::Char(*c)),
            Constant::Str(s) => Some(Atom::Str(s)),
            _ => None,
        };
        let (mut spine, mut cons_spine) = (None, false);
        let of = match self {
            Doc::Atom(a) => return atom(a),
            Doc::Tail(S0Tail::Return(s), _, params) => return Doc::Simple(s, params).node(),
            Doc::Simple(S0Simple::Var(k), params) => {
                return atom(Atom::Sym(params.get(*k).map_or(UNBOUND, String::as_str)))
            }
            Doc::Simple(S0Simple::Const(k), _) => match constant(k) {
                Some(a) => return atom(a),
                None => self,
            },
            Doc::Datum(k) => match (constant(k), k) {
                (Some(a), _) => return atom(a),
                (None, Constant::Sym(s)) => return atom(Atom::Sym(s)),
                (None, Constant::Pair(..)) => {
                    // A chain not ending in `()` prints as
                    // `(cons-spine car… end)`.
                    let mut end: &Constant = k;
                    while let Constant::Pair(_, d) = end {
                        end = d;
                    }
                    cons_spine = !matches!(end, Constant::Nil);
                    spine = Some(k);
                    self
                }
                _ => self,
            },
            _ => self,
        };
        Node::List(Elems { of, next: 0, spine, cons_spine })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(k: usize) -> S0Simple {
        S0Simple::Var(k)
    }

    #[test]
    fn print_shape_matches_paper_style() {
        let p = S0Program {
            entry: 0,
            procs: vec![S0Proc {
                name: "sl-eval-$3".into(),
                params: vec!["cv-vals-$1".into(), "cv-vals-$2".into()],
                body: S0Tail::If(
                    S0Simple::Prim(Prim::NullP, vec![var(0)]),
                    Box::new(S0Tail::Return(var(1))),
                    Box::new(S0Tail::TailCall(
                        0,
                        vec![
                            S0Simple::Prim(Prim::Cdr, vec![var(0)]),
                            S0Simple::MakeClosure(24, vec![var(1)]),
                        ],
                    )),
                ),
            }],
        };
        let s = p.proc_sexpr(0).to_string();
        assert!(s.contains("(make-closure 24 cv-vals-$2)"), "{s}");
        assert!(s.contains("(sl-eval-$3 (cdr cv-vals-$1)"), "{s}");
        assert!(s.starts_with("(define (sl-eval-$3 cv-vals-$1 cv-vals-$2)"), "{s}");
    }

    /// `to_source` of a one-procedure program, checked against
    /// pe-sexpr's layout of the procedure built as an `Sexpr`.  A call
    /// names `callee` at position 1, whose body is `%fail`; only the
    /// first procedure's line is returned.
    fn printed(name: &str, params: &[&str], body: S0Tail) -> String {
        let q = S0Proc {
            name: name.into(),
            params: params.iter().map(|&p| p.into()).collect(),
            body,
        };
        let callee = S0Proc { name: "g".into(), params: vec![], body: S0Tail::Fail(String::new()) };
        let p = S0Program { entry: 0, procs: vec![q, callee] };
        let want = pe_sexpr::pretty(&p.proc_sexpr(0)) + "\n";
        let got = p.to_source();
        assert_eq!(got, format!("{want}(define (g) (%fail \"\"))\n"));
        want
    }

    fn call(args: Vec<S0Simple>) -> S0Tail {
        S0Tail::TailCall(1, args)
    }

    fn konst(k: Constant) -> S0Simple {
        S0Simple::Const(k)
    }

    fn pair(a: Constant, d: Constant) -> Constant {
        Constant::Pair(a.into(), d.into())
    }

    #[test]
    fn printing_in_place_matches_the_sexpr_layout() {
        // `(define (f a…a) (g a…a))` is 78 columns with 30 `a`s: one line.
        let a = "a".repeat(30);
        let fits = printed("f", &[&a], call(vec![var(0)]));
        assert_eq!(fits, format!("(define (f {a}) (g {a}))\n"));
        assert_eq!(fits.len(), 79);
        // One more column breaks after the header.
        let a = "a".repeat(31);
        let breaks = printed("f", &[&a], call(vec![var(0)]));
        assert_eq!(breaks, format!("(define (f {a})\n  (g {a}))\n"));

        // Nested conditionals past the indent clamp: no line is
        // indented beyond 78 columns, and some reach it.
        let names: Vec<String> = (0..=60).map(|i| format!("condition-{i}")).collect();
        let params: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut body = S0Tail::Return(var(60));
        for i in 0..60 {
            body = S0Tail::If(var(i), Box::new(call(vec![])), Box::new(body));
        }
        let deep = printed("f", &params, body);
        let indents: Vec<usize> =
            deep.lines().map(|l| l.len() - l.trim_start().len()).collect();
        assert_eq!(indents.iter().max(), Some(&78), "{deep}");

        // Escapes in a `%fail` message, named and wide characters.
        printed("f", &[], S0Tail::Fail("say \"hi\" \\ then\nbye".into()));
        let chars = [' ', '\n', '\t', 'λ'].map(|c| konst(Constant::Char(c)));
        let text = printed("f", &[], call(chars.to_vec()));
        assert!(text.contains("(g #\\space #\\newline #\\tab #\\λ)"), "{text}");

        // Quoted constants: a symbol, `()`, a list, a nested list and
        // an improper chain.
        let int = Constant::Int;
        let sym = |s: &str| Constant::Sym(s.into());
        let list = pair(int(1), pair(int(2), pair(int(3), Constant::Nil)));
        let nested = pair(pair(sym("a"), Constant::Nil), pair(sym("b"), Constant::Nil));
        let improper = pair(int(1), pair(int(2), int(3)));
        let quoted = [sym("foo"), Constant::Nil, list, nested, improper].map(konst);
        let text = printed("f", &[], call(quoted.to_vec()));
        assert_eq!(
            text,
            "(define (f)\n  (g\n    (quote foo)\n    (quote ())\n    (quote (1 2 3))\n    \
             (quote ((a) b))\n    (quote (cons-spine 1 2 3))))\n"
        );
        // The same constants past the line width break inside the quote.
        let long = [sym(&"s".repeat(40)), pair(sym(&"t".repeat(40)), pair(int(7), int(8)))];
        printed("f", &[], call(long.map(konst).to_vec()));

        // The head rule applies to any head, procedure names included.
        let w = "w".repeat(30);
        for name in ["if", "define", "lambda", "let", "other"] {
            let q = S0Proc {
                name: name.into(),
                params: vec![w.clone()],
                body: S0Tail::TailCall(0, vec![var(0), var(0), var(0)]),
            };
            let p = S0Program { entry: 0, procs: vec![q] };
            assert_eq!(p.to_source(), pe_sexpr::pretty(&p.proc_sexpr(0)) + "\n");
        }
    }

    #[test]
    fn positions_past_their_lists_print_as_markers() {
        // Variable 1 of a one-parameter procedure, and a call to
        // position 5 of a one-procedure program.
        let q = S0Proc {
            name: "f".into(),
            params: vec!["x".into()],
            body: S0Tail::If(
                var(1),
                Box::new(S0Tail::TailCall(5, vec![var(0)])),
                Box::new(S0Tail::Return(var(0))),
            ),
        };
        let p = S0Program { entry: 3, procs: vec![q] };
        let text = p.to_source();
        assert_eq!(text, "(define (f x) (if %unbound (%undefined x) x))\n");
        assert_eq!(text, pe_sexpr::pretty(&p.proc_sexpr(0)) + "\n");
        assert_eq!(p.reachable(), [false], "an entry past the end reaches nothing");
    }

    #[test]
    fn subst_replaces_free_vars() {
        let t = S0Tail::TailCall(2, vec![var(0), S0Simple::Prim(Prim::Car, vec![var(1)])]);
        let one = S0Simple::Const(Constant::Int(1));
        let t2 = t.subst(&|k| if k == 0 { one.clone() } else { var(k + 5) });
        assert_eq!(t2, S0Tail::TailCall(2, vec![one, S0Simple::Prim(Prim::Car, vec![var(6)])]));
        let mut read = Vec::new();
        t2.vars(&mut |k| read.push(k));
        assert_eq!(read, [6]);
    }

    #[test]
    fn sizes_are_positive_and_additive() {
        let s = S0Simple::Prim(Prim::Cons, vec![var(0), var(1)]);
        assert_eq!(s.size(), 3);
        let t = S0Tail::Return(s);
        assert_eq!(t.size(), 3);
    }
}
