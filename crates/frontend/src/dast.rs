//! The desugared tail form of the subject language (paper Fig. 5).
//!
//! ```text
//! E  ::= SE | (if SE E E) | (P SE*) | (SE E)
//! SE ::= V | K | (O SE*) | (lambda (V) E)
//! ```
//!
//! Serious (potentially non-terminating) computation only appears in tail
//! position; everything in a non-tail position is a *simple expression*
//! evaluating directly to a value.  The `(SE E)` form pushes the closure
//! of `SE` as an *evaluation context* and continues with `E` — this is
//! how the tail-recursive interpreter (Fig. 6) and the specializer
//! (Fig. 7) represent control without CPS.
//!
//! The desugarer alpha-renames every variable to a globally unique
//! [`VarId`] and hoists every lambda into a program-level table indexed
//! by [`LamId`] — the label/closure-body association `φ` of the paper.

use crate::ast::{Constant, Prim};
use pe_sexpr::Sexpr;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A globally unique variable after alpha renaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// A lambda abstraction's identity — the label `ℓ` that closure
/// conversion stores in closure records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LamId(pub u32);

/// A top-level procedure, by index into [`DProgram::defs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

/// A unique label on every desugared expression (distinct numbering from
/// the surface labels; the desugarer invents expressions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DLabel(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for LamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}", self.0)
    }
}

/// A simple expression `SE` — evaluates to a value without calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimpleExpr {
    /// A variable reference.
    Var(DLabel, VarId),
    /// A constant.
    Const(DLabel, Constant),
    /// A primitive application with simple arguments.
    Prim(DLabel, Prim, Vec<SimpleExpr>),
    /// A lambda abstraction, by table index; evaluates to a closure.
    Lambda(DLabel, LamId),
}

impl SimpleExpr {
    /// The label of this expression.
    pub fn label(&self) -> DLabel {
        match self {
            SimpleExpr::Var(l, _)
            | SimpleExpr::Const(l, _)
            | SimpleExpr::Prim(l, _, _)
            | SimpleExpr::Lambda(l, _) => *l,
        }
    }

    /// Calls `f` on this expression's label, then on its arguments'
    /// (a lambda's body is not entered).
    pub fn for_each_label(&self, f: &mut impl FnMut(DLabel)) {
        f(self.label());
        if let SimpleExpr::Prim(_, _, args) = self {
            args.iter().for_each(|a| a.for_each_label(f));
        }
    }
}

/// A serious (tail) expression `E`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailExpr {
    /// Return the value of a simple expression to the current context.
    Simple(SimpleExpr),
    /// `(if SE E E)` — the condition is always simple.
    If(DLabel, SimpleExpr, Box<TailExpr>, Box<TailExpr>),
    /// `(P SE*)` — tail call of a top-level procedure.
    CallProc(DLabel, ProcId, Vec<SimpleExpr>),
    /// `(SE E)` — push the closure of `SE` as an evaluation context and
    /// continue with `E`; when `E` delivers a value the context is
    /// applied to it.
    PushApp(DLabel, SimpleExpr, Box<TailExpr>),
}

impl TailExpr {
    /// The label of this expression.
    pub fn label(&self) -> DLabel {
        match self {
            TailExpr::Simple(se) => se.label(),
            TailExpr::If(l, _, _, _) | TailExpr::CallProc(l, _, _) | TailExpr::PushApp(l, _, _) => {
                *l
            }
        }
    }

    /// Calls `f` on this expression's label, then on its
    /// subexpressions' in syntax order (lambda bodies are not entered;
    /// a `Simple` body reports its shared label twice).
    pub fn for_each_label(&self, f: &mut impl FnMut(DLabel)) {
        f(self.label());
        match self {
            TailExpr::Simple(se) => se.for_each_label(f),
            TailExpr::If(_, c, t, e) => {
                c.for_each_label(f);
                t.for_each_label(f);
                e.for_each_label(f);
            }
            TailExpr::CallProc(_, _, args) => args.iter().for_each(|a| a.for_each_label(f)),
            TailExpr::PushApp(_, ctx, body) => {
                ctx.for_each_label(f);
                body.for_each_label(f);
            }
        }
    }
}

/// A hoisted lambda definition: `φ(ℓ) = (lambda (V) E)` plus the fixed
/// free-variable order used by closure conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LambdaDef {
    /// The bound variable.
    pub param: VarId,
    /// Free variables in ascending [`VarId`] order — the paper's
    /// "arbitrary but fixed order" for `freevars(ℓ)`.
    pub freevars: Vec<VarId>,
    /// The body, a serious expression.
    pub body: TailExpr,
}

/// A desugared top-level procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DDef {
    /// The procedure name (unchanged from the surface program).
    pub name: Arc<str>,
    /// Alpha-renamed parameters.
    pub params: Vec<VarId>,
    /// The body in tail form.
    pub body: TailExpr,
}

/// A whole desugared program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DProgram {
    /// Top-level procedures.
    pub defs: Vec<DDef>,
    /// The lambda table `φ`, indexed by [`LamId`].
    pub lambdas: Vec<LambdaDef>,
    /// Original source names for every [`VarId`] (generated temporaries
    /// are named `%tN`).
    pub var_names: Vec<Arc<str>>,
}

impl DProgram {
    /// Looks up a lambda definition.
    pub fn lambda(&self, id: LamId) -> &LambdaDef {
        &self.lambdas[id.0 as usize]
    }

    /// Looks up a procedure definition.
    pub fn proc(&self, id: ProcId) -> &DDef {
        &self.defs[id.0 as usize]
    }

    /// Finds a procedure by name.
    pub fn proc_id(&self, name: &str) -> Option<ProcId> {
        self.defs
            .iter()
            .position(|d| &*d.name == name)
            .map(|i| ProcId(i as u32))
    }

    /// The lambdas each procedure owns, indexed by [`ProcId`]: those its
    /// body creates, directly or inside the bodies of lambdas it
    /// creates — the closures that run on this procedure's frame data
    /// when invoked later.  Desugaring hoists every lambda from exactly
    /// one place, so one walk visits each lambda once and the lists are
    /// disjoint.
    pub fn owned_lambdas(&self) -> Vec<Vec<LamId>> {
        let mut seen = vec![false; self.lambdas.len()];
        let mut visit = |te: &TailExpr, out: &mut Vec<LamId>| {
            lambdas_created(te, &mut |l| {
                if !std::mem::replace(&mut seen[l.0 as usize], true) {
                    out.push(l);
                }
            });
        };
        self.defs
            .iter()
            .map(|d| {
                let mut owned = Vec::new();
                visit(&d.body, &mut owned);
                let mut i = 0;
                while let Some(&l) = owned.get(i) {
                    visit(&self.lambda(l).body, &mut owned);
                    i += 1;
                }
                owned
            })
            .collect()
    }

    /// The procedure-level call graph: procedure `i` points at every
    /// procedure called in its body or in the body of a lambda it owns
    /// (`owned` is [`DProgram::owned_lambdas`]).
    pub fn call_graph(&self, owned: &[Vec<LamId>]) -> Vec<Vec<u32>> {
        let bodies = |(d, lams): (&DDef, &Vec<LamId>)| {
            let mut out = Vec::new();
            calls_in_tail(&d.body, &mut out);
            lams.iter().for_each(|&l| calls_in_tail(&self.lambda(l).body, &mut out));
            out
        };
        self.defs.iter().zip(owned).map(bodies).collect()
    }

    /// The display name of a variable: original name, suffixed with the
    /// id to keep alpha-renamed homonyms distinct.
    pub fn var_name(&self, v: VarId) -> String {
        format!("{}%{}", self.var_names[v.0 as usize], v.0)
    }

    /// Unparses a simple expression for display and golden tests.
    pub fn simple_to_sexpr(&self, se: &SimpleExpr) -> Sexpr {
        match se {
            SimpleExpr::Var(_, v) => Sexpr::sym_of(&self.var_name(*v)),
            SimpleExpr::Const(_, k) => match k {
                Constant::Int(n) => Sexpr::Int(*n),
                Constant::Bool(b) => Sexpr::Bool(*b),
                Constant::Char(c) => Sexpr::Char(*c),
                Constant::Str(s) => Sexpr::Str(s.clone()),
                k => Sexpr::list_of([Sexpr::sym_of("quote"), k.to_sexpr()]),
            },
            SimpleExpr::Prim(_, op, args) => {
                let mut xs = vec![Sexpr::sym_of(op.name())];
                xs.extend(args.iter().map(|a| self.simple_to_sexpr(a)));
                Sexpr::List(xs)
            }
            SimpleExpr::Lambda(_, id) => {
                let lam = self.lambda(*id);
                Sexpr::list_of([
                    Sexpr::sym_of("lambda"),
                    Sexpr::list_of([Sexpr::sym_of(&self.var_name(lam.param))]),
                    self.tail_to_sexpr(&lam.body),
                ])
            }
        }
    }

    /// Unparses a tail expression for display and golden tests.
    pub fn tail_to_sexpr(&self, te: &TailExpr) -> Sexpr {
        match te {
            TailExpr::Simple(se) => self.simple_to_sexpr(se),
            TailExpr::If(_, c, t, e) => Sexpr::list_of([
                Sexpr::sym_of("if"),
                self.simple_to_sexpr(c),
                self.tail_to_sexpr(t),
                self.tail_to_sexpr(e),
            ]),
            TailExpr::CallProc(_, p, args) => {
                let mut xs = vec![Sexpr::Sym(self.proc(*p).name.clone())];
                xs.extend(args.iter().map(|a| self.simple_to_sexpr(a)));
                Sexpr::List(xs)
            }
            TailExpr::PushApp(_, ctx, body) => {
                Sexpr::list_of([self.simple_to_sexpr(ctx), self.tail_to_sexpr(body)])
            }
        }
    }

    /// Renders the whole program as concrete syntax.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        for d in &self.defs {
            let mut head = vec![Sexpr::Sym(d.name.clone())];
            head.extend(d.params.iter().map(|p| Sexpr::sym_of(&self.var_name(*p))));
            let form = Sexpr::list_of([
                Sexpr::sym_of("define"),
                Sexpr::List(head),
                self.tail_to_sexpr(&d.body),
            ]);
            out.push_str(&pe_sexpr::pretty(&form));
            out.push('\n');
        }
        out
    }
}

fn calls_in_tail(te: &TailExpr, out: &mut Vec<u32>) {
    match te {
        TailExpr::Simple(_) => {}
        TailExpr::If(_, _, t, e) => {
            calls_in_tail(t, out);
            calls_in_tail(e, out);
        }
        TailExpr::CallProc(_, pid, _) => out.push(pid.0),
        TailExpr::PushApp(_, _, body) => calls_in_tail(body, out),
    }
}

/// Calls `f` on every lambda `te` creates directly (not through the
/// bodies of further lambdas).
fn lambdas_created(te: &TailExpr, f: &mut impl FnMut(LamId)) {
    fn simple(se: &SimpleExpr, f: &mut impl FnMut(LamId)) {
        match se {
            SimpleExpr::Lambda(_, id) => f(*id),
            SimpleExpr::Prim(_, _, args) => args.iter().for_each(|a| simple(a, f)),
            SimpleExpr::Var(_, _) | SimpleExpr::Const(_, _) => {}
        }
    }
    match te {
        TailExpr::Simple(se) => simple(se, f),
        TailExpr::If(_, c, t, e) => {
            simple(c, f);
            lambdas_created(t, f);
            lambdas_created(e, f);
        }
        TailExpr::CallProc(_, _, args) => args.iter().for_each(|a| simple(a, f)),
        TailExpr::PushApp(_, ctx, body) => {
            simple(ctx, f);
            lambdas_created(body, f);
        }
    }
}

/// Free variables of a simple expression, with lambda leaves contributing
/// their (already computed) free-variable sets.
pub fn free_simple(p: &DProgram, se: &SimpleExpr, out: &mut BTreeSet<VarId>) {
    match se {
        SimpleExpr::Var(_, v) => {
            out.insert(*v);
        }
        SimpleExpr::Const(_, _) => {}
        SimpleExpr::Prim(_, _, args) => {
            for a in args {
                free_simple(p, a, out);
            }
        }
        SimpleExpr::Lambda(_, id) => out.extend(p.lambda(*id).freevars.iter().copied()),
    }
}

/// Free variables of a tail expression.
pub fn free_tail(p: &DProgram, te: &TailExpr, out: &mut BTreeSet<VarId>) {
    match te {
        TailExpr::Simple(se) => free_simple(p, se, out),
        TailExpr::If(_, c, t, e) => {
            free_simple(p, c, out);
            free_tail(p, t, out);
            free_tail(p, e, out);
        }
        TailExpr::CallProc(_, _, args) => {
            for a in args {
                free_simple(p, a, out);
            }
        }
        TailExpr::PushApp(_, ctx, body) => {
            free_simple(p, ctx, out);
            free_tail(p, body, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::desugar::desugar;
    use crate::parse::parse_source;

    #[test]
    fn freevars_are_sorted_and_deduped() {
        let p = parse_source(
            "(define (f x y) ((lambda (z) (cons x (cons y (cons z (cons x '()))))) y))",
        )
        .unwrap();
        let d = desugar(&p).unwrap();
        let lam = &d.lambdas[0];
        assert_eq!(lam.freevars.len(), 2);
        assert!(lam.freevars.windows(2).all(|w| w[0] < w[1]));
    }
}
