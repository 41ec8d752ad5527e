//! A reference evaluator for S₀ — the semantics the back ends must
//! implement.
//!
//! This is a direct loop over the S₀ program (tail calls never grow the
//! host stack); the production executor with the C-translation's
//! register discipline and instruction counters lives in the `pe-vm`
//! crate, and the C back end in `pe-backend-c`.

use pe_flow::s0::{S0Program, S0Simple, S0Tail};
use pe_interp::value::{apply_prim, Value};
use pe_interp::{Datum, Fuel, InterpError, Limits};
use pe_frontend::Prim;
use std::rc::Rc;

/// A runtime closure: flat vector of label + captured values.
#[derive(Debug, Clone, PartialEq)]
pub struct S0Closure {
    /// The lambda label stored by `make-closure`.
    pub label: u32,
    /// The captured values.
    pub freevals: Rc<Vec<V>>,
}

type V = Value<S0Closure>;

/// `frame` holds the current procedure's parameter values by position.
fn eval_simple(s: &S0Simple, frame: &[V], fuel: &mut Fuel) -> Result<V, InterpError> {
    match s {
        S0Simple::Var(k) => frame
            .get(*k)
            .cloned()
            .ok_or_else(|| InterpError::Unbound(format!("parameter position {k}"))),
        S0Simple::Const(k) => Ok(Value::from_constant(k)),
        S0Simple::Prim(op, args) => {
            let vals = args
                .iter()
                .map(|a| eval_simple(a, frame, fuel))
                .collect::<Result<Vec<_>, _>>()?;
            if matches!(op, Prim::Cons) {
                fuel.alloc(1)?;
            }
            Ok(apply_prim(*op, &vals)?)
        }
        S0Simple::MakeClosure(l, args) => {
            fuel.alloc(1)?;
            let vals = args
                .iter()
                .map(|a| eval_simple(a, frame, fuel))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Value::Closure(S0Closure { label: *l, freevals: Rc::new(vals) }))
        }
        S0Simple::ClosureLabel(a) => match eval_simple(a, frame, fuel)? {
            Value::Closure(c) => Ok(Value::Int(i64::from(c.label))),
            v => Err(InterpError::NotAProcedure(v.to_string())),
        },
        S0Simple::ClosureFreeval(a, i) => match eval_simple(a, frame, fuel)? {
            Value::Closure(c) => c
                .freevals
                .get(*i)
                .cloned()
                .ok_or_else(|| InterpError::Unbound(format!("freeval {i}"))),
            v => Err(InterpError::NotAProcedure(v.to_string())),
        },
    }
}

/// Runs the entry procedure of an S₀ program on first-order inputs.
///
/// # Errors
///
/// Returns an [`InterpError`] on dynamic faults, `%fail` forms, fuel
/// exhaustion or a closure-valued result.
pub fn run(
    p: &S0Program,
    args: &[Datum],
    limits: Limits,
) -> Result<Datum, InterpError> {
    run_with(p, args, limits, &mut pe_trace::NullSink)
}

/// Like [`run`], reporting step/alloc counters — and the governor
/// meter snapshot on a trap — to `sink`.
///
/// # Errors
///
/// As [`run`].
pub fn run_with(
    p: &S0Program,
    args: &[Datum],
    limits: Limits,
    sink: &mut dyn pe_trace::Sink,
) -> Result<Datum, InterpError> {
    let mut fuel = Fuel::new(&limits);
    let result = exec(p, args, &mut fuel);
    if sink.enabled() {
        sink.counter(pe_trace::Counter::EvalSteps, fuel.steps_used());
        sink.counter(pe_trace::Counter::EvalAllocs, fuel.cells_used());
        if result.is_err() {
            let snap = fuel.snapshot();
            pe_trace::trap_gauges(sink, snap.steps, snap.cells, snap.peak_depth as u64);
        }
    }
    result
}

fn exec(p: &S0Program, args: &[Datum], fuel: &mut Fuel) -> Result<Datum, InterpError> {
    let undefined = |i: usize| InterpError::NoSuchProc(format!("at position {i}"));
    let entry = p.procs.get(p.entry).ok_or_else(|| undefined(p.entry))?;
    if entry.params.len() != args.len() {
        return Err(InterpError::EntryArity {
            name: entry.name.clone(),
            expected: entry.params.len(),
            got: args.len(),
        });
    }
    let mut frame: Vec<V> = args.iter().map(Datum::embed).collect();
    let mut body = &entry.body;
    // A flat loop (tail calls never recurse into the host stack), so
    // only the fuel and heap budgets apply here.
    loop {
        fuel.step()?;
        match body {
            S0Tail::Return(s) => {
                let v = eval_simple(s, &frame, fuel)?;
                return v.to_datum().ok_or(InterpError::ResultNotFirstOrder);
            }
            S0Tail::If(c, t, e) => {
                body = if eval_simple(c, &frame, fuel)?.is_truthy() { t } else { e };
            }
            S0Tail::TailCall(callee, cargs) => {
                let def = p.procs.get(*callee).ok_or_else(|| undefined(*callee))?;
                frame = cargs
                    .iter()
                    .map(|a| eval_simple(a, &frame, fuel))
                    .collect::<Result<Vec<_>, _>>()?;
                body = &def.body;
            }
            S0Tail::Fail(msg) => return Err(InterpError::NotAProcedure(msg.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_flow::s0::S0Proc;
    use pe_frontend::ast::Constant;
    use pe_frontend::Prim;

    fn main(params: &[&str], body: S0Tail) -> S0Program {
        let params = params.iter().map(|&v| v.to_string()).collect();
        S0Program { entry: 0, procs: vec![S0Proc { name: "main".into(), params, body }] }
    }

    #[test]
    fn closures_roundtrip_through_make_and_freeval() {
        let p = main(
            &["x"],
            S0Tail::Return(S0Simple::ClosureFreeval(
                Box::new(S0Simple::MakeClosure(
                    7,
                    vec![S0Simple::Const(Constant::Int(10)), S0Simple::Var(0)],
                )),
                1,
            )),
        );
        assert_eq!(run(&p, &[Datum::Int(42)], Limits::default()), Ok(Datum::Int(42)));
    }

    #[test]
    fn closure_label_reads_back() {
        let p = main(
            &[],
            S0Tail::Return(S0Simple::ClosureLabel(Box::new(S0Simple::MakeClosure(24, vec![])))),
        );
        assert_eq!(run(&p, &[], Limits::default()), Ok(Datum::Int(24)));
    }

    #[test]
    fn fail_faults() {
        let p = main(&[], S0Tail::Fail("boom".into()));
        assert!(matches!(
            run(&p, &[], Limits::default()),
            Err(InterpError::NotAProcedure(m)) if m == "boom"
        ));
    }

    #[test]
    fn tail_loop_is_flat() {
        let p = main(
            &["n"],
            S0Tail::If(
                S0Simple::Prim(Prim::ZeroP, vec![S0Simple::Var(0)]),
                Box::new(S0Tail::Return(S0Simple::Const(Constant::Int(0)))),
                Box::new(S0Tail::TailCall(
                    0,
                    vec![S0Simple::Prim(
                        Prim::Sub,
                        vec![S0Simple::Var(0), S0Simple::Const(Constant::Int(1))],
                    )],
                )),
            ),
        );
        assert_eq!(run(&p, &[Datum::Int(2_000_000)], Limits::default()), Ok(Datum::Int(0)));
    }

    #[test]
    fn positions_past_their_lists_are_errors() {
        let unbound = main(&["x"], S0Tail::Return(S0Simple::Var(1)));
        let callee = main(&[], S0Tail::TailCall(4, vec![]));
        let entry = S0Program { entry: 2, ..main(&[], S0Tail::Fail("never".into())) };
        for (p, want) in [
            (unbound, InterpError::Unbound("parameter position 1".into())),
            (callee, InterpError::NoSuchProc("at position 4".into())),
            (entry, InterpError::NoSuchProc("at position 2".into())),
        ] {
            let args: Vec<Datum> = p.procs[0].params.iter().map(|_| Datum::Nil).collect();
            assert_eq!(run(&p, &args, Limits::default()), Err(want));
        }
    }
}
