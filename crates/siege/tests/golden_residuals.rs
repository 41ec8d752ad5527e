//! Golden residuals: pins the compiler's output and its front-end
//! analyses across refactors.
//!
//! For the seven Fig. 8 programs (at their benchmark arguments) and for
//! a fixed-seed batch of generated programs, the test hashes
//!
//! * the residual S₀ text (`Pipeline::compile(..).to_source()`),
//! * the emitted C text (`Pipeline::emit_c`), and
//! * the §4.2 flow facts and §4.5 generalization sets: every variable's
//!   abstract value, every `cons` site's components, the returned and
//!   context lambdas, and `GenAnalysis`'s critical lambdas, critical
//!   cons sites and stack candidates, and
//! * the size-change termination facts of `pe_sct::analyze`: every
//!   procedure's verdict, the exempt and eager parameters, every label's
//!   verdict and on-stack flag, and the divergence witness, and
//! * the flow optimizer's counters and the rendered `pe_verify::verify`
//!   reports of the residual compiled without the flow optimizer and of
//!   five fixed mutants of the optimized residual (see [`verify_text`]),
//!
//! with FNV-1a (fixed, seedless, identical on every platform) and
//! compares them against values recorded from a known-good build.  A
//! change that alters any residual byte or any analysis fact fails here;
//! a change that means to alter them must re-record the tables (the
//! failure message prints fresh ones) and say why.

use pe_core::{CompileOptions, Fuel, S0Proc, S0Program, S0Simple, S0Tail};
use pe_frontend::ast::Constant;
use pe_frontend::dast::{SimpleExpr, TailExpr};
use pe_frontend::{DProgram, FlowAnalysis, GenAnalysis, Prim};
use pe_interp::Datum;
use pe_siege::gen::gen_case;
use pe_siege::rng::Rng;
use pe_verify::{Pass, Severity};
use realistic_pe::{suite, Pipeline};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Generated programs pinned, and the seed of their stream.
const GEN_CASES: usize = 200;
const GEN_SEED: u64 = 0x601D_E2E5;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn cons_sites(p: &DProgram) -> Vec<u32> {
    fn simple(se: &SimpleExpr, out: &mut Vec<u32>) {
        if let SimpleExpr::Prim(l, op, args) = se {
            if *op == Prim::Cons {
                out.push(l.0);
            }
            args.iter().for_each(|a| simple(a, out));
        }
    }
    fn tail(te: &TailExpr, out: &mut Vec<u32>) {
        match te {
            TailExpr::Simple(se) => simple(se, out),
            TailExpr::If(_, c, t, e) => {
                simple(c, out);
                tail(t, out);
                tail(e, out);
            }
            TailExpr::CallProc(_, _, args) => args.iter().for_each(|a| simple(a, out)),
            TailExpr::PushApp(_, ctx, body) => {
                simple(ctx, out);
                tail(body, out);
            }
        }
    }
    let mut out = Vec::new();
    p.defs.iter().for_each(|d| tail(&d.body, &mut out));
    p.lambdas.iter().for_each(|l| tail(&l.body, &mut out));
    out
}

/// Every fact the flow and generalization analyses compute, rendered.
fn analysis_text(p: &DProgram) -> String {
    let flow = FlowAnalysis::analyze(p);
    let gen = GenAnalysis::analyze(p, &flow);
    let mut s = String::new();
    for v in 0..p.var_names.len() {
        let v = pe_frontend::dast::VarId(v as u32);
        let _ = writeln!(s, "{v} {:?} {:?}", flow.var(v), flow.var_lambdas(v));
    }
    for site in cons_sites(p) {
        let _ = writeln!(s, "cons {site} {:?}", flow.cons_components(site));
    }
    let _ = writeln!(s, "ret {:?}", flow.returned_lambdas());
    let _ = writeln!(s, "ctx {:?}", flow.context_lambdas());
    let _ = writeln!(s, "critical lams {:?}", gen.critical_lams);
    let _ = writeln!(s, "critical cons {:?}", gen.critical_cons);
    let _ = writeln!(s, "stack {:?}", gen.stack_candidates);
    s
}

/// Every fact the size-change termination analysis computes for
/// `entry`, rendered.
fn sct_text(p: &DProgram, entry: &str) -> String {
    let flow = FlowAnalysis::analyze(p);
    let a = pe_sct::analyze(p, &flow, entry);
    let mut s = String::new();
    let _ = writeln!(s, "procs {:?}", a.named_verdicts(p));
    let _ = writeln!(s, "exempt {:?}", a.verdicts.exempt_vars);
    let _ = writeln!(s, "eager {:?}", a.verdicts.eager_vars);
    let bodies = p.defs.iter().map(|d| &d.body).chain(p.lambdas.iter().map(|l| &l.body));
    for body in bodies {
        body.for_each_label(&mut |l| {
            let stack = a.verdicts.on_stack(l.0);
            let _ = writeln!(s, "label {} {} {stack}", l.0, a.verdicts.at_label(l.0));
        });
    }
    let _ = writeln!(s, "divergence {:?}", a.divergence);
    s
}

/// The `(pass, severity)` pairs a verify column has shown.
type Seen = BTreeSet<(&'static str, bool)>;

/// Calls `f` on every tail of `p` in pre-order, with its procedure's
/// parameter count, until it returns true.
fn first_tail(p: &mut S0Program, f: &mut impl FnMut(&mut S0Tail, usize) -> bool) -> bool {
    fn go(t: &mut S0Tail, n: usize, f: &mut impl FnMut(&mut S0Tail, usize) -> bool) -> bool {
        if f(t, n) {
            return true;
        }
        match t {
            S0Tail::If(_, a, b) => go(a, n, f) || go(b, n, f),
            _ => false,
        }
    }
    p.procs.iter_mut().any(|q| go(&mut q.body, q.params.len(), f))
}

/// Calls `f` on every simple expression of `p` in pre-order.
fn each_simple(p: &mut S0Program, f: &mut impl FnMut(&mut S0Simple)) {
    fn simple(s: &mut S0Simple, f: &mut impl FnMut(&mut S0Simple)) {
        f(s);
        match s {
            S0Simple::Var(_) | S0Simple::Const(_) => {}
            S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
                args.iter_mut().for_each(|a| simple(a, f));
            }
            S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => simple(a, f),
        }
    }
    fn tail(t: &mut S0Tail, f: &mut impl FnMut(&mut S0Simple)) {
        match t {
            S0Tail::Return(s) => simple(s, f),
            S0Tail::If(c, a, b) => {
                simple(c, f);
                tail(a, f);
                tail(b, f);
            }
            S0Tail::TailCall(_, args) => args.iter_mut().for_each(|a| simple(a, f)),
            S0Tail::Fail(_) => {}
        }
    }
    p.procs.iter_mut().for_each(|q| tail(&mut q.body, f));
}

/// Rewrites the arguments of the first call that has any, given its
/// procedure's parameter count; false when no call does.
fn at_first_call(p: &mut S0Program, f: impl Fn(&mut Vec<S0Simple>, usize)) -> bool {
    first_tail(p, &mut |t, n| match t {
        S0Tail::TailCall(_, args) if !args.is_empty() => {
            f(args, n);
            true
        }
        _ => false,
    })
}

/// The five fixed S₀ mutants of an optimized residual, by name; `None`
/// where the residual has nothing to mutate.
fn mutants(p: &S0Program) -> Vec<(&'static str, Option<S0Program>)> {
    let mut out = Vec::new();
    let mut m = p.clone();
    let hit = at_first_call(&mut m, |args, _| {
        args.pop();
    });
    out.push(("drop-last-arg", hit.then_some(m)));
    let mut m = p.clone();
    let hit = at_first_call(&mut m, |args, n| args[0] = S0Simple::Var(n));
    out.push(("unbound-arg", hit.then_some(m)));

    let (mut m, mut allocated, mut first) = (p.clone(), BTreeSet::new(), None);
    each_simple(&mut m, &mut |s| {
        if let S0Simple::MakeClosure(l, args) = s {
            allocated.insert(*l);
            if first.is_none() && !args.is_empty() {
                first = Some(*l);
            }
        }
    });
    if let Some(label) = first {
        each_simple(&mut m, &mut |s| match s {
            S0Simple::MakeClosure(l, args) if *l == label => {
                args.pop();
            }
            _ => {}
        });
    }
    out.push(("drop-capture", first.map(|_| m)));

    let ghost = allocated.iter().next_back().map_or(0, |l| l + 1);
    let mut m = p.clone();
    let hit = first_tail(&mut m, &mut |t, _| match t {
        S0Tail::If(c, _, _) if c.dispatch_test().is_some() => {
            if let S0Simple::Prim(_, args) = c {
                for a in args {
                    if let S0Simple::Const(k) = a {
                        *k = Constant::Int(i64::from(ghost));
                    }
                }
            }
            true
        }
        _ => false,
    });
    out.push(("retarget-dispatch", hit.then_some(m)));

    let mut m = p.clone();
    m.procs.push(S0Proc {
        name: "golden-dead".into(),
        params: vec!["unused".into()],
        body: S0Tail::Fail("unreachable".into()),
    });
    out.push(("dead-proc", Some(m)));
    out
}

/// Renders a verify report and records its `(pass, severity)` pairs.
fn render(p: &S0Program, seen: &mut Seen) -> String {
    let report = pe_verify::verify(p);
    for d in &report.diagnostics {
        seen.insert((d.pass.name(), d.severity == Severity::Error));
    }
    report.to_string()
}

/// The flow counters of `entry`'s residual and the verify reports of
/// its residual compiled with `flow: false` and of five mutants of its
/// optimized residual:
///
/// * the first call with arguments loses its last argument;
/// * that call's first argument becomes an unbound variable: the
///   position just past its procedure's parameters;
/// * every record of the first label that captures anything loses its
///   last capture;
/// * the first dispatch test is retargeted to a label no
///   `make-closure` allocates;
/// * an unreachable, `%fail`-only procedure with an unused parameter
///   is appended.
fn verify_text(pipe: &Pipeline, entry: &str, seen: &mut Seen) -> String {
    let opts = CompileOptions { flow: false, ..CompileOptions::default() };
    let base = match pe_core::compile(&pipe.dprog, entry, &opts) {
        Ok(p) => p,
        Err(e) => return e.to_string(),
    };
    let mut s = format!("flow: false\n{}\n", render(&base, seen));
    let (opt, st) = match pe_flow::optimize(base, &mut Fuel::new(&opts.limits)) {
        Ok((opt, st, _)) => (opt, st),
        Err((trap, _)) => return format!("{s}optimize: {trap:?}"),
    };
    let _ = writeln!(
        s,
        "counters {} {} {} {} {} {}",
        st.cfg_nodes,
        st.cfg_edges,
        st.copies_propagated,
        st.arms_folded,
        st.slots_pruned,
        st.dead_bindings
    );
    for (name, mutant) in mutants(&opt) {
        let text = mutant.map_or_else(|| "n/a".to_string(), |m| render(&m, seen));
        let _ = writeln!(s, "{name}\n{text}");
    }
    s
}

/// `(residual S₀, emitted C, analysis facts, SCT facts, verify
/// reports)` hashes of one program; a front-end error is pinned by its
/// message in every slot, a compile error in the output slots.
fn hashes(source: &str, entry: &str, args: &[Datum], seen: &mut Seen) -> Hashes {
    let pipe = match Pipeline::new(source) {
        Ok(p) => p,
        Err(e) => {
            let h = fnv1a(e.to_string().as_bytes());
            return (h, h, h, h, h);
        }
    };
    let facts = fnv1a(analysis_text(&pipe.dprog).as_bytes());
    let sct = fnv1a(sct_text(&pipe.dprog, entry).as_bytes());
    let opts = CompileOptions::default();
    let s0 = match pipe.compile(entry, &opts) {
        Ok(s0) => fnv1a(s0.to_source().as_bytes()),
        Err(e) => fnv1a(e.to_string().as_bytes()),
    };
    let c = match pipe.emit_c(entry, args, &opts, &mut pe_trace::NullSink) {
        Ok(c) => fnv1a(c.source.as_bytes()),
        Err(e) => fnv1a(e.to_string().as_bytes()),
    };
    let verify = fnv1a(verify_text(&pipe, entry, seen).as_bytes());
    (s0, c, facts, sct, verify)
}

/// One program's five hashes.
type Hashes = (u64, u64, u64, u64, u64);

/// Fails listing the differing programs (with the source of the first)
/// and the freshly computed table, ready to paste in if the change was
/// intended.
fn report(diffs: &[String], table: &str) {
    assert!(
        diffs.is_empty(),
        "golden residuals changed:\n{}\nfresh table:\n{table}",
        diffs.join("\n")
    );
}

#[test]
fn fig8_residuals_are_pinned() {
    let (mut diffs, mut table) = (Vec::new(), String::new());
    for (i, b) in suite::SUITE.iter().enumerate() {
        let got = hashes(b.source, b.entry, &b.bench_inputs(), &mut Seen::new());
        let _ = writeln!(
            table,
            "    (\"{}\", {:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
            b.name, got.0, got.1, got.2, got.3, got.4
        );
        let want = FIG8.get(i).copied().unwrap_or(("", 0, 0, 0, 0, 0));
        if (want.0, (want.1, want.2, want.3, want.4, want.5)) != (b.name, got) {
            diffs.push(format!("{}: want {want:x?}, got {got:x?}", b.name));
        }
    }
    assert_eq!(suite::SUITE.len(), FIG8.len());
    report(&diffs, &table);
}

/// Also checks that the verify column, over these programs and the
/// Fig. 8 ones, exercises the error paths of passes 1, 2 and 3 and the
/// warning paths of passes 2, 4 and 6.
#[test]
fn generated_residuals_are_pinned() {
    let mut master = Rng::new(GEN_SEED);
    let (mut diffs, mut table, mut seen) = (Vec::new(), String::new(), Seen::new());
    for i in 0..GEN_CASES {
        let case = gen_case(&mut master.fork());
        let got = hashes(&case.source, &case.entry, &case.args, &mut seen);
        let _ = writeln!(
            table,
            "    ({:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
            got.0, got.1, got.2, got.3, got.4
        );
        let want = GENERATED.get(i).copied().unwrap_or_default();
        if want != got {
            let source = if diffs.is_empty() { case.source.as_str() } else { "" };
            diffs.push(format!("case {i}: want {want:x?}, got {got:x?}\n{source}"));
        }
    }
    assert_eq!(GENERATED.len(), GEN_CASES);
    report(&diffs, &table);
    for b in suite::SUITE {
        let pipe = Pipeline::new(b.source).expect("suite programs parse");
        verify_text(&pipe, b.entry, &mut seen);
    }
    let want = [
        (Pass::WellFormed, true),
        (Pass::ClosureShape, true),
        (Pass::Preservation, true),
        (Pass::ClosureShape, false),
        (Pass::Lint, false),
        (Pass::Flow, false),
    ];
    for (pass, error) in want {
        assert!(seen.contains(&(pass.name(), error)), "no {pass} (error: {error}) in {seen:?}");
    }
}

/// `(name, S₀ hash, C hash, analysis hash, SCT hash, verify hash)` per
/// Fig. 8 program.
const FIG8: &[(&str, u64, u64, u64, u64, u64)] = &[
    ("deriv", 0x82f07dd5711f5e9e, 0x9483a8780ecae688, 0x0a77054d44786b2b, 0xa3977a8867093b1a, 0x4fb54e1371b40f4c),
    ("tak", 0x5e8e4cdcf840e05c, 0x5461902a3205fe91, 0x48097f70be943658, 0x279fc1fc6c387d55, 0xd7e6d0df90dbd235),
    ("cpstak", 0x489e883633c32b7a, 0xb6acaa3067552bc5, 0xa1dcc2cfb86d9bca, 0x14cbe5e01ef381ab, 0xf08587cc99e3ba1e),
    ("takl", 0xb0c3cac10233379f, 0xada6f11b3943849e, 0xd4b05ac7bbe6bffc, 0x7328118610d3b486, 0x12aa725462b5eee1),
    ("fibclos", 0x39b4effd10438931, 0x3fd1b78c14ba9c46, 0xb98080aab87b956e, 0xe3966bbc6eaf38ed, 0x664a6409ea642b0c),
    ("cps-append", 0x0891035b14351f3a, 0xdf87c9e2b3a3ea3e, 0x2b3352d70863c1f2, 0xb69977767037887b, 0x34cb3bbfe5742116),
    ("queens", 0xacb4421457dbc2cb, 0x29aa7aa560d34b1f, 0xdca8654ea778bd45, 0xff68e9916edcb632, 0xfa3ce2d7afd529aa),
];

/// `(S₀ hash, C hash, analysis hash, SCT hash, verify hash)` per
/// generated program.
const GENERATED: &[Hashes] = &[
    (0x57d3e4cfb0e76147, 0xf148d1e9dea0306c, 0xd32c150ad55750c6, 0x3c4649776e08911d, 0x4f91aba476b49a8a),
    (0x3ab51d1981faa633, 0x5766871a496300af, 0xad0ec36715d3d7f7, 0xb260a3db6648022d, 0x0f12e6f7cea89bea),
    (0x94ef4c14ea9eb290, 0xfb6f5a06c265b9e0, 0xb9267521fd015ee1, 0xfdb8d4bba9689041, 0x0f12e6f7cea89bea),
    (0x44314c198795a8cc, 0xf46d5de67403158a, 0xc44ca47b762cc96f, 0xf9e1283ee2358e24, 0x0f12e6f7cea89bea),
    (0x8c9fcf9473364f39, 0x8385a4f6fde83d58, 0xabdd998fcfaab53b, 0xb3183ec583f5a799, 0x0f12e6f7cea89bea),
    (0x8d262d14e6755fa7, 0x2ba85813b817e7e3, 0x438a4e537551b9ae, 0xc5c6718ccab86f81, 0x0f12e6f7cea89bea),
    (0x66a0e8199b078c18, 0xaeeb17fa73537cd4, 0x4ed194b69ddaaa03, 0x78bc55ce15b65c50, 0x0f12e6f7cea89bea),
    (0xcba6fc42c91a6889, 0x75ef03596332e510, 0xafe5e392e7430be3, 0x25e41996956dcc7d, 0x0f12e6f7cea89bea),
    (0x6e48b769d8424d58, 0x34889ac01e70ccb3, 0x91b8eeb8faa1c80f, 0xedef6b9421df4e9c, 0x0f12e6f7cea89bea),
    (0x8d262d14e6755fa7, 0x599a273029f72d64, 0x41494fd1f42bd081, 0x8785a4bbc17409d5, 0x0f12e6f7cea89bea),
    (0x10fc7889ba49f3d2, 0x6acf788b584efb8b, 0x07f7ee44c6237753, 0x0dcf31db197211db, 0x0f12e6f7cea89bea),
    (0xa4b7b2b0480bfff4, 0x297c0bc0abc9113c, 0x42e202e94e733c05, 0x36d7fde62f13dc0e, 0x0f12e6f7cea89bea),
    (0x21f47b9b7da68333, 0xe94f1287fc88e2da, 0x95862ff6d4f0f390, 0xbc2e7a5f5eb09e89, 0x0f12e6f7cea89bea),
    (0x77a4f4c9fa257701, 0x92e23cf66bbbf125, 0xf07b80d08e3390a9, 0x7f74dce12bdaf8a5, 0x8a2d7095b916d726),
    (0x66a0e8199b078c18, 0x263eb2d38148a2ce, 0xd0fcc99508978ec9, 0x4de914b084f4518e, 0x0f12e6f7cea89bea),
    (0xced83f765ed10567, 0xdd57c893314af784, 0x0d9e941e6e83a67a, 0x807f98c6d6da0d89, 0x0f12e6f7cea89bea),
    (0xa83144897eb154be, 0xfb829d2f3d9bdbb3, 0x45d22e85eebbcafd, 0x50ffc944e42ef129, 0x0f12e6f7cea89bea),
    (0x83b1775f1976d56c, 0x9df53967179a9cf9, 0xd9665fc474539094, 0x1211e477ce529b6d, 0x0f12e6f7cea89bea),
    (0x58abe99b6917ad1e, 0xaf31cb6eb0e5ebb4, 0x3d282f8730d3227a, 0x804317d787ea62fa, 0x0f12e6f7cea89bea),
    (0x864216975a9ca387, 0xe7e0957b42c84c55, 0xbc57531834bfbea6, 0x1b123aabca2a47c9, 0x58100613235476dc),
    (0x44a3a16098580166, 0x504454794a9949ad, 0x6c7af2b657570071, 0xf07eee631b54f57d, 0xe3e6398a4ea30eeb),
    (0x8d262d14e6755fa7, 0x43f4c172a532b5ef, 0xc0e67c7680150342, 0x5ebc50dd136df29d, 0x0f12e6f7cea89bea),
    (0xcba6fc42c91a6889, 0xdc50f27a7e2d3db2, 0xd405add6327d26ee, 0x42008402fae9b4e2, 0x0f12e6f7cea89bea),
    (0xfe26febd554851db, 0xe373c9b31dd80754, 0xa64efd8aec97af4b, 0x5268047e06690212, 0x485f55715106f7f8),
    (0x1ebeedb3bfd92390, 0xa44f33e9191440dd, 0xe048d2f4111faba0, 0x412242189e79ec34, 0x508a5183a981d897),
    (0x92b5ac0d254b94db, 0xafc5fc5f8bd9406c, 0x05d74fc7fcd21955, 0x87a226fe59657a3e, 0x6ff413cc97ffb714),
    (0x64195e97b26f0653, 0x18adafe56cbae2c7, 0x6977e3d03778dc1c, 0x9f88ca3fe95260ee, 0x1dc82f7e243ebca8),
    (0x446ad8ec7afaa24a, 0x39e6a947b4f186fe, 0x702e05c1e29434d2, 0x92f07fef902bd690, 0x0f12e6f7cea89bea),
    (0x555cb8c13b9895b8, 0x9e6c6a933b69ee47, 0xb6ecedb5ba6b51af, 0xf7a124203df5ac9b, 0x0f12e6f7cea89bea),
    (0x0859c989b567bb79, 0xb80c4b8d767b650c, 0x903f2fd3c2d5ad68, 0x03919f63b5ff26fd, 0x0f12e6f7cea89bea),
    (0x94ef4c14ea9eb290, 0xa51140422b89f58f, 0x13699576556162b6, 0x3a1e62d782803ffa, 0x0f12e6f7cea89bea),
    (0xcba6fc42c91a6889, 0x3432e1fd7da7489f, 0xce2d330449f2cbfc, 0xaefd6cb37cc11670, 0x0f12e6f7cea89bea),
    (0xaf83dd148bda1ed6, 0xfc08db1eae4b9629, 0x838ae9e3ae8d0c65, 0xc77e7f52d442af81, 0xe846625c37d09068),
    (0x91797c57793eeb4c, 0x9487721659ca949e, 0x8bb3631eda24ecba, 0xfe65aa9ae6e43b67, 0x8a2d7095b916d726),
    (0x113c52dadeddb3a4, 0xaf14dffd9e72faf4, 0x4b49f367a21afb29, 0x4c780030f1540fa8, 0x0f12e6f7cea89bea),
    (0x93e32dc9ac7f9c75, 0xc2dd3162e99464ff, 0x7245fe8ff1739dcf, 0x05167f492b4a7d4b, 0x0f12e6f7cea89bea),
    (0x5880b1fcd9f11b84, 0x188fe02ec2969a30, 0x804541fa1a2bfab3, 0xfb61b3293988e526, 0x0f12e6f7cea89bea),
    (0x8b3ce14853d05025, 0xefde9aa94e0ae92d, 0x590a0d0c884742d5, 0x975916f48b48d42f, 0x0f12e6f7cea89bea),
    (0xbc1902391b69f9bd, 0xf151fcb6fc1229a8, 0x560db09ab4b54983, 0xb7ad169540a54896, 0x0f12e6f7cea89bea),
    (0x0845a76f546522f7, 0x9a3fbdf83063432b, 0xa6cb4027e240cc80, 0x68da2711ab3c29dd, 0xf7fe0f65d7e0bec7),
    (0x43e7bdb480aba278, 0xe410802d331d8edd, 0xc3c14a5d108b56a7, 0xd751a0420167fd8e, 0x0f12e6f7cea89bea),
    (0xd3877389973f0d9b, 0x25daa67f588f931d, 0x49fdd76cb499900d, 0xa8150711c7ab5778, 0x0f12e6f7cea89bea),
    (0x44314c198795a8cc, 0x65d1993ae5e9ce65, 0x5527034e490d75f8, 0x46a5519f74919dc5, 0x0f12e6f7cea89bea),
    (0xb177a682f9ed0ab9, 0x2ca915822bfc2904, 0xf66b2787cf3606a6, 0xb06b868247757714, 0x5c782a57e9e2ca75),
    (0x66a0e8199b078c18, 0x0565004caaade333, 0x612beb5623c49b64, 0x52f37a8cfaf70f77, 0x0f12e6f7cea89bea),
    (0xc6fa721e4fa719cb, 0xda547eac237ae330, 0x85b2707fe9a475e6, 0x97afc6234e7736d7, 0x8a2d7095b916d726),
    (0xff065e89afef5800, 0xdf3ff4762ccb2329, 0x7a785e564b380bc6, 0x019cbccb22695aae, 0x0f12e6f7cea89bea),
    (0x83b1775f1976d56c, 0x91a7b34d0ce65450, 0xd660ffd33b127d53, 0x6ebb5086e3bf6625, 0x0f12e6f7cea89bea),
    (0x8d262d14e6755fa7, 0x3bc0313e95b32cae, 0x85f0fb1f9dea3ce4, 0xa56a1cc12cd1c246, 0x0f12e6f7cea89bea),
    (0x304760ceb736ee1b, 0x131314404a540c7f, 0xde470a26c88fe6da, 0x812a6ca0a7529acb, 0x0f12e6f7cea89bea),
    (0x3bbd786a55cd03fa, 0x1222677e15acc21b, 0xded48e1c19de13c5, 0x3dbb9e46b3122440, 0x0f12e6f7cea89bea),
    (0x8d262d14e6755fa7, 0x2003148cea359701, 0x54ea94711b036ccb, 0x0c30696ca53f0c3a, 0x0f12e6f7cea89bea),
    (0x94ef4c14ea9eb290, 0xbd0ec8f2f3ada8de, 0x82f6c30e430c6c27, 0xc466502afff7aa77, 0x0f12e6f7cea89bea),
    (0xe4af7ed53c69f8ce, 0xcdd4157bab977662, 0xbf5f870068bddb14, 0xc83bcc7897372eb8, 0x0f12e6f7cea89bea),
    (0xfd0a73e8a6e113a0, 0xd310a0163ff09a56, 0xfc090ecb17e1a6b6, 0x82e26ab53c277757, 0x0f12e6f7cea89bea),
    (0x11ecd7f5869e5d4f, 0x039f17a3a36be07c, 0xb6800818b895bed1, 0xab1638cffd9fbd8b, 0x2c0f586e6c1a1647),
    (0xf288fe66c2d196b7, 0xaa918df0fc962918, 0x34cf29438cd9ad1e, 0xa0b8f50f39fb5ad5, 0x8a2d7095b916d726),
    (0x677c590293902206, 0x8b4b5510eef1c73b, 0x8976429aa1a40e22, 0xda58c33c365b2edf, 0x0f12e6f7cea89bea),
    (0xfcebc20496ea2da1, 0x2ddd21b775e096ea, 0x3a9fbf3e90c24a94, 0x6ced493c19138c62, 0x3933a856fedfb78e),
    (0x8d262d14e6755fa7, 0x1c60c3e9f969739c, 0xa9d70db861c1a320, 0x47704b44420e4ae6, 0x0f12e6f7cea89bea),
    (0xd6b233de52259200, 0xea61b5a40b03ac00, 0xb42dba5d9548c6f7, 0xb1fce255ed9dc98b, 0x0f12e6f7cea89bea),
    (0x8d262d14e6755fa7, 0xa6633f6c0b8b7b0f, 0x19cf745836e16a70, 0xe48df5d84b1a15d4, 0x0f12e6f7cea89bea),
    (0xee8cec89a6d82bb6, 0x13462160773e4e2e, 0xb0de8e16ad5f1d04, 0xb39a419038258544, 0x0f12e6f7cea89bea),
    (0xb654071071d010a7, 0x42f33d3997236108, 0x5dccb664cb981e11, 0xe2506d2a81a9ae89, 0x0f12e6f7cea89bea),
    (0xab499019c1bcce90, 0xe483c93455f6f4f0, 0xbceaa2832df879a9, 0xa98a320efde61ac4, 0x0f12e6f7cea89bea),
    (0x0859c989b567bb79, 0x4789478dd15492ce, 0x45b3982d0f1e482a, 0xa6664a942f7a1d34, 0x0f12e6f7cea89bea),
    (0xdd03a2899cda1034, 0x155006de473ff54d, 0x82290ffbbdbf5694, 0xb2dd868f3b723265, 0x0f12e6f7cea89bea),
    (0xd3877389973f0d9b, 0x7bc32c7af5d8aab0, 0x582c58e6e4a92726, 0x5ed3f6fc055a3262, 0x0f12e6f7cea89bea),
    (0x3bc4681bdd1b81a0, 0x9b6b9f6af82686be, 0x3808596b92894c08, 0x0f8518303e135766, 0x0f12e6f7cea89bea),
    (0xfffc59706713ac37, 0xed96158377569f58, 0x0939adc39e270cf2, 0x3e2151a6d3af252f, 0x0f12e6f7cea89bea),
    (0xcba6fc42c91a6889, 0x0e01da89d63087fd, 0x83a5b979ba8d5924, 0x7b9f15b4d2f9a65e, 0x0f12e6f7cea89bea),
    (0xd14bb1453955ac13, 0x8c52a6ffcb872761, 0x9a44bbfbb1ccd680, 0xf68aa52b5812f54b, 0x0f12e6f7cea89bea),
    (0x0d7e7812177d6949, 0x7a98855e58634ff1, 0x0261f1905c0c9895, 0x1855aa6fe58108d2, 0x0f12e6f7cea89bea),
    (0xd1a6d5095cb4c21e, 0xb305ae36d439676f, 0xafa0250883096745, 0x765910905bc7d652, 0xd16372c9229346e5),
    (0x1d7deb284cfd1226, 0x2088c996a8012bb0, 0xd2432c5f876260f2, 0x2251520e0e33b462, 0x0f12e6f7cea89bea),
    (0xed415b5cc584379b, 0xf1e5b481cfaf9822, 0x98210c8d1c3de92c, 0xe50caedb97407b21, 0x0f12e6f7cea89bea),
    (0xa3807119bd937ba7, 0x71bc307e2f0f8713, 0x201a93779f1d4baa, 0xdbaab095ac4c0ee3, 0x0f12e6f7cea89bea),
    (0xcba6fc42c91a6889, 0x0e01da89d63087fd, 0x75469cd6ece593a6, 0xafd28fea9a956733, 0x0f12e6f7cea89bea),
    (0x4fd5ea9bb91d445c, 0x8ce3cdc55d12e8aa, 0x342d87393a3c96c7, 0x3991e732ff7093cf, 0x0f12e6f7cea89bea),
    (0x0c487f7ff0db888e, 0x807818d4495935c7, 0xa850dc29ce066a0e, 0xe49c9e99dc03bcd3, 0x0f12e6f7cea89bea),
    (0x0f8cce4daf22a2d3, 0xae22d68625bb3db8, 0x9900ce3fb76dc305, 0x2365163aef23b3f5, 0x0f12e6f7cea89bea),
    (0x89101e11df075754, 0xde32023b8b7c23a5, 0xed558472222470e6, 0xc299c0c57f1099d7, 0x1759f6527d5f5ce4),
    (0x4101a20b638a81a8, 0x925e687e9c66336d, 0x28251899826241c2, 0x2688bb3172ee1d2e, 0x0f12e6f7cea89bea),
    (0xdd03a2899cda1034, 0x0576cf2b767d5d34, 0xa2d87f1ef608315e, 0xb68f7a2f018a7a30, 0x0f12e6f7cea89bea),
    (0x87e9f16462693bbe, 0x89b2f1bfb1e5119c, 0x84536f8f7473f76c, 0xeccc50179162a06b, 0x0f12e6f7cea89bea),
    (0x73acdf94d8498e8e, 0x5ade8523bfa24efb, 0x4d3add11342aeace, 0x7a8a5dd4db645ddb, 0x0f12e6f7cea89bea),
    (0xee8cec89a6d82bb6, 0xe98b8310eaa3529b, 0x8cce4eebd4607216, 0x41e48588d4ef93d3, 0x0f12e6f7cea89bea),
    (0x94ef4c14ea9eb290, 0x78bd9317a77800aa, 0x8d4e06a4dccde4ec, 0x02a9eef8048fcbcf, 0x0f12e6f7cea89bea),
    (0x978e7e692c998d97, 0x5ee2a6841f72fb85, 0x007ca1c7938e552c, 0x952e4a37146df96e, 0x0f12e6f7cea89bea),
    (0x70da121e418745d7, 0x7a8504f695a5d513, 0x6cc8aa49769c8c5f, 0x5e47fbc2c96fea4b, 0x106a1607c9fa8b9c),
    (0x67821594d52ad154, 0x27cbf99852a91e84, 0x44d0c0ea846d62ab, 0x000943cb96929d3f, 0x1eaff144b3d5cf85),
    (0x530a0d370294ee0e, 0xed44257a0d4935f5, 0x340fc01aab2f56f7, 0x99b444e3ed38d7a1, 0x0f12e6f7cea89bea),
    (0xafba35cb9cfd5321, 0x93878c901101ad25, 0xce3b0c37a023c018, 0x89df1daaea0855bb, 0x0f12e6f7cea89bea),
    (0x870a66f066a624ff, 0x7be8a4626269d91b, 0xd78364a429a1d38c, 0xa85d714deba08921, 0x6e8584f2139b552e),
    (0x94ef4c14ea9eb290, 0xf2113a1e7b68fcb2, 0x27d3951f4736876e, 0x2ba9738a4f18b393, 0x0f12e6f7cea89bea),
    (0x54747619907ecb4e, 0xd81ad250dc8e3c3b, 0x1ddceb14bcf1aa92, 0x8be639d87315df3a, 0x0f12e6f7cea89bea),
    (0xcc8ea1cb785fed1e, 0x9fe8c13e98aa7472, 0xa70aca4cca4c7b23, 0x14e3907088b007ed, 0x8a2d7095b916d726),
    (0x10fc7889ba49f3d2, 0xa27c76bf80dbaedc, 0xa10863808595b583, 0xd723496bb414644d, 0x0f12e6f7cea89bea),
    (0xa4f3352c6c250efd, 0x1a58ed90cf7b5b9f, 0x998604540681b290, 0xbf70ef9073888a2a, 0x0f12e6f7cea89bea),
    (0xaf5ea112a8f51f03, 0x344fc3c087916e13, 0x035af2df74c9ec5a, 0xa944af8ae6c532f3, 0xb30a239f969d2c04),
    (0xc83b70ce8a6d8608, 0xfa3ace742b0e5ec5, 0x3d4b71fb8f62c959, 0x3bb33e9a3f8bf186, 0x0f12e6f7cea89bea),
    (0xe4d2804ac13d63ac, 0x97ad96b07fd9e540, 0xf0e21b28094d3141, 0xc6db4a00b22800f6, 0x0f12e6f7cea89bea),
    (0x0a55f6865d671e76, 0x3998f0a919c8f0b7, 0x499e5a0a533d4228, 0x1d7bea38eb569c11, 0x0d5bda2822b7058c),
    (0xb25f1a7c7eb779f7, 0x243a13d7813f6d77, 0xe5350e45b6dd820d, 0xcab99fc527b7b249, 0x6bb42a9efb8c7356),
    (0xee8cec89a6d82bb6, 0xb718fb989599d021, 0x0e7dd7de1166eb44, 0x22baf4aa719ce61e, 0x0f12e6f7cea89bea),
    (0xba3b4e35e533b35d, 0x451b08d78d2ed1ac, 0xc0cc628e9bd3f019, 0xb06d06269187359f, 0x0f12e6f7cea89bea),
    (0xab3348de3975479b, 0xa3f7abb2bde0f66c, 0x39c994a550ee8ba1, 0xdd89e57d276802cf, 0x0f12e6f7cea89bea),
    (0x54747619907ecb4e, 0x8ddd27a892b7cfe8, 0xc30ec861de135073, 0x077064cf2360c257, 0x0f12e6f7cea89bea),
    (0xecfd29f31ab50f43, 0xf7c42d807ae17c34, 0x93078439e566d812, 0xf1630ede289fd593, 0x0f12e6f7cea89bea),
    (0xda2366d55ce84530, 0xf21e86aa3dffa0a7, 0xdb7353bb7c5276da, 0xbb90003f78a176a2, 0x0f12e6f7cea89bea),
    (0xa83144897eb154be, 0x6dd803f170ca6e93, 0x1c67a5768430d1bd, 0x897a8f0bf9906f9f, 0x0f12e6f7cea89bea),
    (0x9bfb04bc9f9c683b, 0x6ce48b47efd23198, 0x7e97c8a26f5f5a81, 0xe4bddbf1f25487b5, 0x0f12e6f7cea89bea),
    (0x66a0e8199b078c18, 0x08c2684e53af3de2, 0xc6d2e703241ab382, 0xa1e1dfacd921575c, 0x0f12e6f7cea89bea),
    (0xab499019c1bcce90, 0x4f36793fbb94a788, 0xf8be0635086e0b48, 0xcf1caf6eb9a0bbd1, 0x0f12e6f7cea89bea),
    (0x88685bfefd1a9cca, 0x16724b3c118e3dad, 0xad6ec1bcd90928eb, 0xff6302ace098b8d7, 0x96b50b8ca8f21d79),
    (0x94ef4c14ea9eb290, 0x34db8840ef1eb19e, 0xd9c399aec5a14462, 0xab70f512ae752dd9, 0x0f12e6f7cea89bea),
    (0xcd402798f404f68b, 0xab22b7eaec85cb93, 0xed89b3fa8d2efdaa, 0x85efe3f78ffcff16, 0x873b41562169e44b),
    (0xf13a89d8274c595a, 0xd400bdaff7c4d047, 0xa17f8e7d0c573a8a, 0x84164c7b2ed09011, 0x8a2d7095b916d726),
    (0x74a06c716f039750, 0x90eb644d70a63ee8, 0xb4bfd0bb9b66ff1e, 0x0a19aea0c160c6ca, 0x9aec389544f339fd),
    (0x3c5eb7e131a35c38, 0xe2ea316a04d7a911, 0x18417e228632d191, 0x898bbbdb9e290ba5, 0x8a2d7095b916d726),
    (0xc31512904cf0fe2b, 0xf5a3862f8d87c643, 0x2e80922661198697, 0xc64ec3615a4ae960, 0x4f91aba476b49a8a),
    (0x419fef6cb3937efb, 0x387e20c16c91a30c, 0xd3c7cc471e01837c, 0x2f7d8678a5443457, 0x8a2d7095b916d726),
    (0xbed8aa912e3e9606, 0x6b0ad5cef2ccdeae, 0x1233f4b65d68c8d5, 0x0cef80b48837354e, 0xd401054921d93096),
    (0x44314c198795a8cc, 0xaf723c7207a12ba2, 0x3813016abedb5d6c, 0xc8a6e5263492e218, 0x0f12e6f7cea89bea),
    (0xb03ebdab359d9709, 0x95343034abe998dd, 0x5b4c077b00c768b0, 0x7bc537925227c2e9, 0x0f12e6f7cea89bea),
    (0x09b74e3523f609b4, 0xf45e12293e224ed3, 0xd10238b754c888d6, 0x3cb15f7f53627862, 0x51c6e07d5e4b6b56),
    (0x08664f3c57883211, 0x947aeb06bf896f44, 0x3aea0e4c490d16e9, 0x003f139624abfc9b, 0x8a2d7095b916d726),
    (0xd4a1ff7ccc978728, 0xd6623139b30c4e75, 0x6a669e3c82f40e10, 0x8cae8d939ab14be4, 0xef5199ca9a72eadf),
    (0xed1e5961028279bb, 0x532b9fc0f116b990, 0x7b7f90bf98f0112d, 0x403562088919d389, 0x0f12e6f7cea89bea),
    (0xfe60606126e5a87c, 0xb48fa6313ced8a10, 0xe5279de726cd3b8c, 0x4847af46703c8af4, 0x8a2d7095b916d726),
    (0x48e97ebba246ccb9, 0x62d13517d0773e10, 0x1eda554deba04765, 0xabae2119d78f29a9, 0x0f12e6f7cea89bea),
    (0x7d7ac1cc755c5414, 0x0365faae506df31f, 0x012c8b4c100dd1da, 0x4830d3e1b5be8269, 0x0f12e6f7cea89bea),
    (0x843a0cf3fd9f4007, 0xf09fe2bd4e4ad619, 0xd865b4080a19ae99, 0x6f5803e58252b7d4, 0x8a2d7095b916d726),
    (0x94ef4c14ea9eb290, 0x4d5f6219d0a2b0ac, 0x24f8d8e5a2cc8f8b, 0x774698981ea0631b, 0x0f12e6f7cea89bea),
    (0x0859c989b567bb79, 0xfc4aa7a2d5fb67ee, 0x85d50a81e8b79a12, 0xb2baaaed2248b581, 0x0f12e6f7cea89bea),
    (0xedde40138940377b, 0x27c8a52141ea1743, 0xd808c7c9a0875898, 0xfdf0d2ff8a4bf85e, 0xccdb07b173ca1682),
    (0xdd03a2899cda1034, 0x4258ec257b9f7415, 0x37bc585e5ebf2a1e, 0xb7f08dd69253518a, 0x0f12e6f7cea89bea),
    (0x20a8b930b089adef, 0x9e296f920519aec5, 0x4799cce43d2fc51d, 0xe4d92f881206110c, 0x0f12e6f7cea89bea),
    (0x1ae166a40a8ef63f, 0xe1b241591f88ac2e, 0xaf3253093635ecf0, 0xa2dc28eca144cec8, 0x5522cee707157fb7),
    (0x0e716d4690ef2458, 0x2269bdfe86e489fc, 0x49833b6b303401c6, 0x4706104dc732b4ac, 0x0f12e6f7cea89bea),
    (0x278dab3df129c8cb, 0x63058cc7ecc70fce, 0xa815c57fea438eb2, 0x5e90f1cb460ebfcc, 0xce1eb29c6a34c2cd),
    (0x8d262d14e6755fa7, 0x682583a6c31f6a0a, 0xe6226fa060d09ad5, 0x5ef90a08a5416ecd, 0x0f12e6f7cea89bea),
    (0x08c08117abdbf2da, 0xcb556463f74cede6, 0x9a0dfa3a182e8e8b, 0x1fc3a7bae2894687, 0x0f12e6f7cea89bea),
    (0xff1cd0277da34796, 0x9738af475873f8bc, 0x5d9065c77f7fa636, 0x473d549a353ddc97, 0xb768d71c9da331b0),
    (0x83c0abc21c94cb48, 0xd73a857dd51056ab, 0x4a2d39e2b21830c4, 0xc6864851bf5e80d4, 0x8a2d7095b916d726),
    (0xe79e56ea5ae0c16e, 0xebe21d8c8989788a, 0x42b772ea8083f7b7, 0xbc350bfc69d347b0, 0x0f12e6f7cea89bea),
    (0xf13e8f1e532d93e8, 0x1502327933f29189, 0xd046d8e503cff747, 0x79a7dcdfab8baadb, 0x0f12e6f7cea89bea),
    (0x1510d5a825a761e1, 0xeffba61d1d171738, 0xa15e450ed7aac5bc, 0xcf63132644ac83aa, 0x99082c6b9c80d49a),
    (0x46871ee31a229d18, 0x6a609c344506ae54, 0x9bb07d4d17ebeafe, 0xb8aa65630a45a1be, 0x598c4c50b4c58302),
    (0xb3fa0a4321788b7e, 0xa40787948099f665, 0xcc21113618d6b17f, 0x6dfa4f9fe22c28be, 0x0f802e83d5c1664d),
    (0xf6ea110c08055ca0, 0xac3b3e1403b707c2, 0xe6a9bbe38a731ca5, 0x9a4b972fb370580b, 0x44e988b0829deb6b),
    (0x93d4f7937e499081, 0x9976a726f2c0de1f, 0x6ebf95a8ec2610e0, 0xf8a5e9c80c1d8d99, 0x0f12e6f7cea89bea),
    (0x34f299fd329d003d, 0xaeea3ca95664295a, 0xa52f1f7d1ff83f6b, 0x841ffdeef177d4b3, 0x8a2d7095b916d726),
    (0xcba6fc42c91a6889, 0x3432e1fd7da7489f, 0xd0a5bf00db070527, 0x0ccb769414dbe169, 0x0f12e6f7cea89bea),
    (0xcba6fc42c91a6889, 0x3be927cd5ccbbd11, 0x20d46958b4e1c550, 0xb2d32af3eabc95de, 0x0f12e6f7cea89bea),
    (0x772f6269dd5e4bb1, 0x45b35435de004237, 0xfba8d26d8360c9bf, 0x5e09ed4315b57994, 0x0f12e6f7cea89bea),
    (0x8dc1c171bf1be33d, 0x76bea1544cd13851, 0x21975c48438986a3, 0x0ed5cecaf59a9517, 0x8a2d7095b916d726),
    (0xa238cb79e2bbc632, 0x23ae103f2db7c675, 0x709503e2bc590f98, 0xbfaff5a3657b346c, 0x8a2d7095b916d726),
    (0x66a0e8199b078c18, 0x17c2e5930bef8ef7, 0x39f5e22b41032b5d, 0x690823e3a097ed0e, 0x0f12e6f7cea89bea),
    (0x8b3ce14853d05025, 0x26725fca1663a7f7, 0xdc4757e606f47271, 0x07312878b5e0aa43, 0x0f12e6f7cea89bea),
    (0x023c0e1e8cbbb73d, 0xd1e48e97214b9d4c, 0x0c00e4dd24ae4f6f, 0xe683e9df93316ca7, 0xe3dcf868b2749da2),
    (0x216f7be35280c79a, 0x0eea96b46782a663, 0x28d32d77e6abe369, 0x1606b780ad8a7468, 0x0f12e6f7cea89bea),
    (0x94ef4c14ea9eb290, 0xc5b5223171cd3894, 0x79345c0151915d64, 0x1482fd7e37708caa, 0x0f12e6f7cea89bea),
    (0x4ce197198c837495, 0x75bb6c4e63f9ffcf, 0xa43a64460727e879, 0xfa2bc95f34f1e68d, 0x0f12e6f7cea89bea),
    (0x530a0d370294ee0e, 0xcac6192abaf6492f, 0x8706d4f7b4572970, 0x45bb368e8706f05d, 0x0f12e6f7cea89bea),
    (0x4728351f69a3dbb9, 0x235a389e05c4a70d, 0xbe4c9905e8e0e193, 0x66fa8d9c251b5a21, 0x07740731853ecad1),
    (0x6b0b5d0d1aa0d978, 0xe23549f37e39e47c, 0x7cd1000f832e0dde, 0xbc450d6f70829521, 0xff348ca42b85d52a),
    (0x48ed3848160df659, 0x2a1647da8d61372f, 0x0095d578f752b0e7, 0x8364ef788e959ec1, 0x0f12e6f7cea89bea),
    (0xd772fded7f955d95, 0x9b0a4f760d5251b0, 0x0080003d1bbb722b, 0xf7c355b3fe697363, 0x0f12e6f7cea89bea),
    (0x7d7ac1cc755c5414, 0x2b929e51bf5b723d, 0x1e09ed1cab095a15, 0x3bb412137600a584, 0x0f12e6f7cea89bea),
    (0x2cde911c0cf85567, 0xd3ca21f02752226e, 0xfb5a7b587e66e5d5, 0x3e238aa0fd31cdce, 0xa969c0930ca0f667),
    (0x3e1bca8a226daa07, 0xa4bc32fdb2fb8412, 0xdaa6cc6c6ef7c89e, 0x18e3404add21670a, 0x8a2d7095b916d726),
    (0x66a0e8199b078c18, 0xd0c9c16a71e0bc38, 0x251c5cae62e2a057, 0x758ed0ed84d806b7, 0x0f12e6f7cea89bea),
    (0xe5b3ed89a1c7dbfd, 0xdcd2892febc43846, 0x0f41b178096958fa, 0x63f2b5190023b0a6, 0x0f12e6f7cea89bea),
    (0x66a0e8199b078c18, 0xe8f18f6b02b54c9b, 0xbae19e43021256be, 0x6aa5c79e8d64ec3f, 0x0f12e6f7cea89bea),
    (0x782a4219a505c2ca, 0x86c506ad0e09d5d5, 0x90ef35696d123131, 0xcaf590916fc63acf, 0x0f12e6f7cea89bea),
    (0x61018c178c6e464d, 0x1f26f73fa4eb1a87, 0xb709e5abb3f48e0b, 0x9724fd1f8c6ddc8e, 0x0f12e6f7cea89bea),
    (0x7ba5f15225509c58, 0x3df4f8655b314ef6, 0xd3f69e369d1ed54e, 0x2ed10356edbde97e, 0x0f12e6f7cea89bea),
    (0x3ab51d1981faa633, 0xbc7a478f521c399e, 0x06f663af85128edd, 0xd5f0cc6864a44fcf, 0x0f12e6f7cea89bea),
    (0xa83144897eb154be, 0xb24c78417162f199, 0x5ca1c0335b82490d, 0x8adfa703aedfeaac, 0x0f12e6f7cea89bea),
    (0xee8cec89a6d82bb6, 0xb718fb989599d021, 0x9d286fd839a80bba, 0xa9b9f1b04bf70cce, 0x0f12e6f7cea89bea),
    (0x591b03cc91004a6f, 0x55848a2321178464, 0xfb8fb179721ab693, 0x2058c27704ff454f, 0x0f12e6f7cea89bea),
    (0xa1b0d724b19f9697, 0xd6e6c6fe404d33eb, 0x40dbc956d4e5230c, 0xf5a1af3adc1cf4e4, 0x0f12e6f7cea89bea),
    (0x112ca107431cd6c4, 0x354d681c9a878641, 0x5791bba77f7d8928, 0x7a2fb6371977258f, 0x4f91aba476b49a8a),
    (0xf5b35d4fb7023e62, 0xf958cab09fd59280, 0xd2978a3a578ced53, 0x4c302b6e6af47276, 0x0f12e6f7cea89bea),
    (0xf663bf89ab0d3ad7, 0xc7973b0e7aab2cb4, 0xd894b85a4d006ad2, 0x3398cee1960bcf90, 0x0f12e6f7cea89bea),
    (0x417c697f886cc02c, 0xdb92f555bb3d3a8e, 0x7f4f660aa00578b3, 0xb00da4ec99bb84fc, 0x653788c53d8dc4d3),
    (0x2fb6eef448313ae4, 0x34fae81f6ed22834, 0x0c3f806f8c26c12f, 0x1c5b06cbe26d265f, 0x0f12e6f7cea89bea),
    (0x1e39e4593e71e7f8, 0x93eccd4bc99ce23e, 0xcec25ba44b4759a4, 0xa6d566e8621d0e5c, 0x8a2d7095b916d726),
    (0x66a0e8199b078c18, 0x2f66ac22d8ee6ee4, 0x591d186ea34bec00, 0xb86d983c1143101f, 0x0f12e6f7cea89bea),
    (0xe6a780052c8fabf4, 0x97fbea8e323ebd66, 0x6c3a58f611696c11, 0x4ca008fda8b41859, 0x8a2d7095b916d726),
    (0x8b7f307bad30cdd8, 0xac3cb24755ccc3ab, 0x2eef529ff48f7cad, 0xc266cfee73a37b55, 0x8a2d7095b916d726),
    (0xbdbc03534000a8e6, 0xdbbd3c5e8f0925f5, 0x335d5da493a03639, 0x5a7fd58c01279bc7, 0xee527ef8854f3a4e),
    (0xab499019c1bcce90, 0xf7d37543fc663bff, 0xefa2972216599f4e, 0xfc92efb942a969ae, 0x0f12e6f7cea89bea),
    (0xcba6fc42c91a6889, 0x0e01da89d63087fd, 0xc02ec4a3595305c8, 0xb852609d413f115d, 0x0f12e6f7cea89bea),
    (0x6cf2ef7e3c54a4c6, 0xda0a2bfb3ab3e892, 0x408b0f9584624dcc, 0x7797350acad9e433, 0x1a431e217415753c),
    (0x142258463f5b7198, 0x7d794de47979fdf0, 0x8f53e153073ef587, 0x9ce9a03f4ed7f433, 0x0f12e6f7cea89bea),
    (0xf543ccafc4e701cf, 0xe87f1a810724288e, 0x3caa2cc855febac1, 0x649c10539255f0c3, 0x0f12e6f7cea89bea),
    (0x89dbb43c08ff6e13, 0xb63b0126f511bcf6, 0x1be4981721ed6e9d, 0x276c50d11ce59fa7, 0x0f12e6f7cea89bea),
    (0x0e1321a45c8137f1, 0x5b8abfb91d026410, 0xa4bbc9fdfa89a438, 0x6586f3f068473485, 0x0f12e6f7cea89bea),
];
