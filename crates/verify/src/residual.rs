//! Verification of Unmix residual programs.
//!
//! Unmix specialization produces surface-language
//! [`Program`]s, not S₀ — so the S₀ passes do
//! not apply directly.  This module re-runs the relevant subset on the
//! surface AST: well-formedness (scoping with `let`, procedure
//! resolution, arity agreement), a first-orderness certificate (the
//! residual of a first-order subject must contain no `lambda` and no
//! computed application), and the reachability / dead-parameter lints.

use crate::report::{Diagnostic, Pass, Report};
use pe_frontend::ast::{Definition, Expr, Program};
use std::collections::{HashMap, HashSet};

/// Verifies an Unmix residual program with the given entry procedure.
pub fn verify_program(p: &Program, entry: &str) -> Report {
    let mut out = Vec::new();

    let arities: HashMap<&str, usize> =
        p.defs.iter().map(|d| (&*d.name, d.params.len())).collect();
    if !arities.contains_key(entry) {
        out.push(Diagnostic::error(
            Pass::WellFormed,
            None,
            format!("entry procedure {entry} is not defined"),
        ));
    }

    let mut seen = HashSet::new();
    for d in &p.defs {
        if !seen.insert(&*d.name) {
            out.push(Diagnostic::error(
                Pass::WellFormed,
                Some(&d.name),
                "duplicate procedure definition",
            ));
        }
        let mut scope: HashSet<&str> = HashSet::new();
        for prm in &d.params {
            if !scope.insert(prm) {
                out.push(Diagnostic::error(
                    Pass::WellFormed,
                    Some(&d.name),
                    format!("duplicate parameter {prm}"),
                ));
            }
        }
        check_expr(d, &d.body, &mut scope, &arities, &mut out);
    }

    lint(p, entry, &mut out);
    Report::new(out)
}

fn check_expr<'a>(
    d: &Definition,
    e: &'a Expr,
    scope: &mut HashSet<&'a str>,
    arities: &HashMap<&str, usize>,
    out: &mut Vec<Diagnostic>,
) {
    match e {
        Expr::Var(_, v) => {
            if !scope.contains(&**v) {
                out.push(Diagnostic::error(
                    Pass::WellFormed,
                    Some(&d.name),
                    format!("unbound variable {v}"),
                ));
            }
        }
        Expr::Const(_, _) => {}
        Expr::If(_, c, t, f) => {
            check_expr(d, c, scope, arities, out);
            check_expr(d, t, scope, arities, out);
            check_expr(d, f, scope, arities, out);
        }
        Expr::Prim(_, op, args) => {
            if args.len() != op.arity() {
                out.push(Diagnostic::error(
                    Pass::WellFormed,
                    Some(&d.name),
                    format!(
                        "primitive {op} applied to {} argument(s), expected {}",
                        args.len(),
                        op.arity()
                    ),
                ));
            }
            for a in args {
                check_expr(d, a, scope, arities, out);
            }
        }
        Expr::Call(_, callee, args) => {
            match arities.get(&**callee) {
                None => out.push(Diagnostic::error(
                    Pass::WellFormed,
                    Some(&d.name),
                    format!("call to undefined procedure {callee}"),
                )),
                Some(&n) if n != args.len() => out.push(Diagnostic::error(
                    Pass::WellFormed,
                    Some(&d.name),
                    format!("call to {callee} with {} argument(s), expected {n}", args.len()),
                )),
                Some(_) => {}
            }
            for a in args {
                check_expr(d, a, scope, arities, out);
            }
        }
        Expr::Let(_, v, rhs, body) => {
            check_expr(d, rhs, scope, arities, out);
            let fresh = scope.insert(v);
            check_expr(d, body, scope, arities, out);
            if fresh {
                scope.remove(&**v);
            }
        }
        Expr::Lambda(_, v, body) => {
            out.push(Diagnostic::error(
                Pass::Preservation,
                Some(&d.name),
                "higher-order construct (lambda) in residual program",
            ));
            let fresh = scope.insert(v);
            check_expr(d, body, scope, arities, out);
            if fresh {
                scope.remove(&**v);
            }
        }
        Expr::App(_, f, a) => {
            out.push(Diagnostic::error(
                Pass::Preservation,
                Some(&d.name),
                "computed application in residual program",
            ));
            check_expr(d, f, scope, arities, out);
            check_expr(d, a, scope, arities, out);
        }
    }
}

fn lint(p: &Program, entry: &str, out: &mut Vec<Diagnostic>) {
    let by_name: HashMap<&str, &Definition> = p.defs.iter().map(|d| (&*d.name, d)).collect();
    let mut reachable: HashSet<&str> = HashSet::new();
    let mut work = vec![entry];
    while let Some(name) = work.pop() {
        let Some((&k, d)) = by_name.get_key_value(name) else { continue };
        if !reachable.insert(k) {
            continue;
        }
        d.body.walk(&mut |e| {
            if let Expr::Call(_, callee, _) = e {
                if !reachable.contains(&**callee) {
                    if let Some((&c, _)) = by_name.get_key_value(&**callee) {
                        work.push(c);
                    }
                }
            }
        });
    }
    for d in &p.defs {
        if !reachable.contains(&*d.name) {
            out.push(Diagnostic::warning(
                Pass::Lint,
                Some(&d.name),
                format!("unreachable from entry {entry}"),
            ));
        }
        if &*d.name != entry {
            let mut used: HashSet<String> = HashSet::new();
            d.body.walk(&mut |e| {
                if let Expr::Var(_, v) = e {
                    used.insert(v.to_string());
                }
            });
            for prm in &d.params {
                if !used.contains(&**prm) {
                    out.push(Diagnostic::warning(
                        Pass::Lint,
                        Some(&d.name),
                        format!("dead parameter {prm}"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        pe_frontend::parse_source(src).expect("test program parses")
    }

    #[test]
    fn accepts_a_first_order_residual() {
        let p = parse(
            "(define (loop-0 n acc)
               (if (zero? n) acc (loop-0 (- n 1) (let ((m (* n n))) (+ m acc)))))",
        );
        let r = verify_program(&p, "loop-0");
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn rejects_scoping_arity_and_higher_order_defects() {
        // The parser already refuses arity mismatches and unbound
        // variables, so corrupt a valid program post-parse — exactly
        // what this pass exists to catch in generated residuals.
        let mut p = parse(
            "(define (main x) (helper x x))
             (define (helper a b) ((lambda (f) (f a)) b))",
        );
        let Expr::Call(_, _, args) = &mut p.defs[0].body else {
            panic!("main body is a call");
        };
        args.pop();
        args[0] = Expr::Var(pe_frontend::ast::Label(0), "y".into());
        let r = verify_program(&p, "main");
        let text = r.to_string();
        assert!(text.contains("error[well-formed] main: unbound variable y"), "{text}");
        assert!(
            text.contains("error[well-formed] main: call to helper with 1 argument(s), expected 2"),
            "{text}"
        );
        assert!(
            text.contains("error[preservation] helper: higher-order construct (lambda)"),
            "{text}"
        );
        assert!(
            text.contains("error[preservation] helper: computed application"),
            "{text}"
        );
    }

    #[test]
    fn missing_entry_and_unreachable_def() {
        let p = parse("(define (a x) x) (define (b x) x)");
        let r = verify_program(&p, "ghost");
        let text = r.to_string();
        assert!(text.contains("entry procedure ghost is not defined"), "{text}");
        assert!(text.contains("warning[lint] a: unreachable from entry ghost"), "{text}");
        assert!(text.contains("warning[lint] b: unreachable from entry ghost"), "{text}");
    }
}
