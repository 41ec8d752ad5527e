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
//! analyses can see them without a dependency cycle; pe-core re-exports
//! the four types at its root (`pe_core::S0Program` and the rest).

use pe_frontend::ast::{Constant, Prim};
use pe_sexpr::{Atom, Layout, Node, Sexpr};
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

    /// Each name's first definition, by position: the procedure
    /// [`S0Program::proc`] finds and a call to the name runs.
    pub(crate) fn first_definitions(&self) -> HashMap<&str, usize> {
        let mut first = HashMap::new();
        for (i, q) in self.procs.iter().enumerate() {
            first.entry(q.name.as_str()).or_insert(i);
        }
        first
    }

    /// Which procedures, by position, a run from the entry can reach:
    /// a call resolves to its name's first definition, and every
    /// definition of a reached name counts as reached.
    #[must_use]
    pub fn reachable(&self) -> Vec<bool> {
        let first = self.first_definitions();
        let mut reached = vec![false; self.procs.len()];
        let mut work: Vec<usize> = first.get(self.entry.as_str()).copied().into_iter().collect();
        while let Some(i) = work.pop() {
            if !std::mem::replace(&mut reached[i], true) {
                self.procs[i].body.calls(&mut |callee| work.extend(first.get(callee)));
            }
        }
        self.procs.iter().map(|q| reached[first[q.name.as_str()]]).collect()
    }

    /// Where the interprocedural analyses keep their facts: one row of
    /// `init` per procedure position, one entry per parameter, of which
    /// only the rows of first definitions — the ones
    /// [`S0Program::proc`] and calls resolve to — are read and written;
    /// each procedure's row position; and each procedure's parameters
    /// as positions in that row, up to its length, a repeated name
    /// taking its last position (as an environment map would).
    pub(crate) fn param_rows<T: Clone>(
        &self,
        first: &HashMap<&str, usize>,
        init: T,
    ) -> ParamRows<'_, T> {
        let rows: Vec<Vec<T>> =
            self.procs.iter().map(|q| vec![init.clone(); q.params.len()]).collect();
        let row_of: Vec<usize> = self.procs.iter().map(|q| first[q.name.as_str()]).collect();
        let envs = self
            .procs
            .iter()
            .zip(&row_of)
            .map(|(q, &r)| {
                let n = q.params.len().min(rows[r].len());
                q.params[..n].iter().enumerate().map(|(k, pm)| (pm.as_str(), k)).collect()
            })
            .collect();
        ParamRows { rows, row_of, envs }
    }

    /// The rows of [`S0Program::param_rows`] keyed by procedure name:
    /// each name's first definition's.
    pub(crate) fn named_rows<T>(
        &self,
        first: &HashMap<&str, usize>,
        mut rows: Vec<Vec<T>>,
    ) -> HashMap<String, Vec<T>> {
        first.iter().map(|(&name, &i)| (name.to_string(), std::mem::take(&mut rows[i]))).collect()
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
    /// pe-sexpr's printer lays out its [`S0Proc::to_sexpr`] form, on a
    /// line of its own, without building that form.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        for p in &self.procs {
            pe_sexpr::write_pretty(Doc::Proc(p), &mut out);
            out.push('\n');
        }
        out
    }
}

/// The facts rows of [`S0Program::param_rows`].
pub(crate) struct ParamRows<'p, T> {
    /// One row per procedure position.
    pub rows: Vec<Vec<T>>,
    /// Each procedure's row: its name's first definition's position.
    pub row_of: Vec<usize>,
    /// Each procedure's parameters by name, as positions in its row.
    pub envs: Vec<HashMap<&'p str, usize>>,
}

impl fmt::Display for S0Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_source())
    }
}

/// A node of an S₀ procedure's printed form, viewed in place for
/// pe-sexpr's printer: the [`Layout`] of exactly the tree
/// [`S0Proc::to_sexpr`] builds.
#[derive(Clone, Copy)]
enum Doc<'a> {
    Atom(Atom<'a>),
    /// `(define (P V*) T)`.
    Proc(&'a S0Proc),
    /// `(P V*)`.
    Header(&'a S0Proc),
    Tail(&'a S0Tail),
    Simple(&'a S0Simple),
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
        match self.of {
            Doc::Proc(q) => [sym("define"), Doc::Header(q), Doc::Tail(&q.body)].get(i).copied(),
            Doc::Header(q) => listed(i, sym(&q.name), &q.params, |v| sym(v)),
            Doc::Tail(S0Tail::If(c, a, b)) => {
                [sym("if"), Doc::Simple(c), Doc::Tail(a), Doc::Tail(b)].get(i).copied()
            }
            Doc::Tail(S0Tail::TailCall(p, args)) => listed(i, sym(p), args, Doc::Simple),
            Doc::Tail(S0Tail::Fail(m)) => [sym("%fail"), Doc::Atom(Atom::Str(m))].get(i).copied(),
            Doc::Simple(S0Simple::Const(k)) => [sym("quote"), Doc::Datum(k)].get(i).copied(),
            Doc::Simple(S0Simple::Prim(op, args)) => listed(i, sym(op.name()), args, Doc::Simple),
            Doc::Simple(S0Simple::MakeClosure(l, args)) => match i {
                0 => Some(sym("make-closure")),
                1 => Some(int(i64::from(*l))),
                _ => args.get(i - 2).map(Doc::Simple),
            },
            Doc::Simple(S0Simple::ClosureLabel(a)) => {
                [sym("closure-label"), Doc::Simple(a)].get(i).copied()
            }
            Doc::Simple(S0Simple::ClosureFreeval(a, k)) => {
                [sym("closure-freeval"), Doc::Simple(a), int(*k as i64)].get(i).copied()
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
            Doc::Tail(S0Tail::Return(s)) => return Doc::Simple(s).node(),
            Doc::Simple(S0Simple::Var(v)) => return atom(Atom::Sym(v)),
            Doc::Simple(S0Simple::Const(k)) => match constant(k) {
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

    /// `to_source` of a one-procedure program, checked against
    /// pe-sexpr's layout of the procedure built as an `Sexpr`.
    fn printed(name: &str, params: &[&str], body: S0Tail) -> String {
        let q = S0Proc {
            name: name.into(),
            params: params.iter().map(|&p| p.into()).collect(),
            body,
        };
        let want = pe_sexpr::pretty(&q.to_sexpr()) + "\n";
        let got = S0Program { entry: q.name.clone(), procs: vec![q] }.to_source();
        assert_eq!(got, want);
        got
    }

    fn call(callee: &str, args: Vec<S0Simple>) -> S0Tail {
        S0Tail::TailCall(callee.into(), args)
    }

    fn konst(k: Constant) -> S0Simple {
        S0Simple::Const(k)
    }

    fn pair(a: Constant, d: Constant) -> Constant {
        Constant::Pair(a.into(), d.into())
    }

    #[test]
    fn printing_in_place_matches_the_sexpr_layout() {
        // `(define (f) (g a…a))` is 78 columns with 61 `a`s: one line.
        let fits = printed("f", &[], call("g", vec![var(&"a".repeat(61))]));
        assert_eq!(fits, format!("(define (f) (g {}))\n", "a".repeat(61)));
        assert_eq!(fits.len(), 79);
        // One more column breaks after the header.
        let breaks = printed("f", &[], call("g", vec![var(&"a".repeat(62))]));
        assert_eq!(breaks, format!("(define (f)\n  (g {}))\n", "a".repeat(62)));

        // Nested conditionals past the indent clamp: no line is
        // indented beyond 78 columns, and some reach it.
        let mut body = S0Tail::Return(var("x"));
        for i in 0..60 {
            body = S0Tail::If(var(&format!("condition-{i}")), Box::new(call("f", vec![])), Box::new(body));
        }
        let deep = printed("f", &["x"], body);
        let indents: Vec<usize> =
            deep.lines().map(|l| l.len() - l.trim_start().len()).collect();
        assert_eq!(indents.iter().max(), Some(&78), "{deep}");

        // Escapes in a `%fail` message, named and wide characters.
        printed("f", &[], S0Tail::Fail("say \"hi\" \\ then\nbye".into()));
        let chars = [' ', '\n', '\t', 'λ'].map(|c| konst(Constant::Char(c)));
        let text = printed("f", &[], call("g", chars.to_vec()));
        assert!(text.contains("(g #\\space #\\newline #\\tab #\\λ)"), "{text}");

        // Quoted constants: a symbol, `()`, a list, a nested list and
        // an improper chain.
        let int = Constant::Int;
        let sym = |s: &str| Constant::Sym(s.into());
        let list = pair(int(1), pair(int(2), pair(int(3), Constant::Nil)));
        let nested = pair(pair(sym("a"), Constant::Nil), pair(sym("b"), Constant::Nil));
        let improper = pair(int(1), pair(int(2), int(3)));
        let quoted = [sym("foo"), Constant::Nil, list, nested, improper].map(konst);
        let text = printed("f", &[], call("g", quoted.to_vec()));
        assert_eq!(
            text,
            "(define (f)\n  (g\n    (quote foo)\n    (quote ())\n    (quote (1 2 3))\n    \
             (quote ((a) b))\n    (quote (cons-spine 1 2 3))))\n"
        );
        // The same constants past the line width break inside the quote.
        let long = [sym(&"s".repeat(40)), pair(sym(&"t".repeat(40)), pair(int(7), int(8)))];
        printed("f", &[], call("g", long.map(konst).to_vec()));

        // The head rule applies to any head, procedure names included.
        let wide = || var(&"w".repeat(30));
        for name in ["if", "define", "lambda", "let", "other"] {
            printed(name, &["a", "b"], call(name, vec![wide(), wide(), wide()]));
        }
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
