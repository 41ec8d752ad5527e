//! Pass 4 — residual-quality lints.
//!
//! Everything here is a *warning*: the program is correct, but the
//! specializer (or a hand-written subject) left something behind that a
//! good residual program would not contain — procedures no call chain
//! can reach, parameters nobody reads, or procedures whose whole body is
//! `%fail`.

use crate::report::{Diagnostic, Pass};
use pe_core::{S0Program, S0Tail};

/// Runs the pass.  Reachability is [`S0Program::reachable`], over the
/// call positions.
pub fn check(p: &S0Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let warn = |proc_name: &str, msg: String| Diagnostic::warning(Pass::Lint, Some(proc_name), msg);
    let entry = match p.procs.get(p.entry) {
        Some(q) => q.name.clone(),
        None => format!("at position {}", p.entry),
    };
    for (i, (pr, reached)) in p.procs.iter().zip(p.reachable()).enumerate() {
        if !reached {
            out.push(warn(&pr.name, format!("unreachable from entry {entry}")));
        }
        if matches!(pr.body, S0Tail::Fail(_)) {
            out.push(warn(&pr.name, "body is only %fail".to_string()));
        }
        if i != p.entry {
            let mut used = vec![false; pr.params.len()];
            pr.body.vars(&mut |k| {
                if let Some(u) = used.get_mut(k) {
                    *u = true;
                }
            });
            for (prm, _) in pr.params.iter().zip(used).filter(|(_, u)| !u) {
                out.push(warn(&pr.name, format!("dead parameter {prm}")));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::{S0Proc, S0Simple};

    #[test]
    fn flags_unreachable_dead_param_and_fail_only() {
        let prog = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(1, vec![S0Simple::Var(0)]),
                },
                S0Proc {
                    name: "helper".into(),
                    params: vec!["x".into(), "unused".into()],
                    body: S0Tail::Return(S0Simple::Var(0)),
                },
                S0Proc {
                    name: "orphan".into(),
                    params: vec![],
                    body: S0Tail::Fail("never".into()),
                },
            ],
        };
        let text: Vec<String> = check(&prog).iter().map(ToString::to_string).collect();
        let text = text.join("\n");
        assert!(text.contains("warning[lint] orphan: unreachable from entry main"), "{text}");
        assert!(text.contains("warning[lint] orphan: body is only %fail"), "{text}");
        assert!(text.contains("warning[lint] helper: dead parameter unused"), "{text}");
        // `main`'s own param is exempt (the entry's interface is fixed),
        // and `helper` is reachable.
        assert!(!text.contains("helper: unreachable"), "{text}");
    }

    #[test]
    fn a_duplicated_name_resolves_to_its_first_definition() {
        // `main` calls the first `f` (position 1), which calls `helper`;
        // the second `f` is unreachable whatever its name.
        let call = |callee| S0Tail::TailCall(callee, vec![]);
        let ret = |n| S0Tail::Return(S0Simple::Const(pe_frontend::ast::Constant::Int(n)));
        let proc_ = |name: &str, body| S0Proc { name: name.into(), params: vec![], body };
        let prog = S0Program {
            entry: 0,
            procs: vec![
                proc_("main", call(1)),
                proc_("f", call(3)),
                proc_("f", ret(1)),
                proc_("helper", ret(2)),
            ],
        };
        let text: Vec<String> = check(&prog).iter().map(ToString::to_string).collect();
        assert_eq!(text, ["warning[lint] f: unreachable from entry main"]);
        let pass1: Vec<String> =
            crate::wellformed::check(&prog).iter().map(ToString::to_string).collect();
        assert!(
            pass1.iter().any(|d| d.contains("f: duplicate procedure definition")),
            "{pass1:?}"
        );
    }
}
