//! The emitted C under the differential oracle.
//!
//! Generated programs (the golden-residual stream) and hand-written
//! edge cases are compiled to S₀, run on the VM, and emitted as C that
//! is built with `cc -O1` and run.  The C has no fuel, so a case whose
//! VM run ends in a budget trap is skipped.  Otherwise the binary must
//! print the VM's value, or exit non-zero where the VM reports a
//! runtime error.  Skipped when no `cc` is installed.
//!
//! The collector cases allocate far past the emitted C's first space:
//! they run under a budget the VM answers in, once with each setting of
//! move elision, and one of them runs the C under a 64 MiB address-space
//! limit at a size only a collecting heap survives.

use pe_core::{CompileOptions, S0Proc, S0Program, S0Simple, S0Tail};
use pe_frontend::ast::{Constant, Prim};
use pe_interp::{Datum, InterpError, Limits};
use pe_siege::gen::gen_case;
use pe_siege::oracle::oracle_limits;
use pe_siege::rng::Rng;
use realistic_pe::{emit_c, COptions, Pipeline};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Generated programs checked, from the start of the golden-residual
/// stream (`tests/golden_residuals.rs`).
const GEN_CASES: usize = 48;
const GEN_SEED: u64 = 0x601D_E2E5;

/// Wall-clock bound on one `cc` run and on one binary run.
const TIMEOUT: Duration = Duration::from_secs(60);

fn cc_available() -> bool {
    Command::new("cc").arg("--version").output().is_ok()
}

/// One program to check: a name, its source, entry and arguments, the
/// budget its compile and VM run get, and the emitter's options.
struct Case {
    name: String,
    source: String,
    entry: String,
    args: Vec<Datum>,
    limits: Limits,
    opts: COptions,
}

impl Case {
    fn new(name: &str, source: &str, entry: &str, args: &[&str]) -> Case {
        Case {
            name: name.to_string(),
            source: source.to_string(),
            entry: entry.to_string(),
            args: args
                .iter()
                .map(|a| Datum::parse(a).expect("argument parses"))
                .collect(),
            limits: oracle_limits(),
            opts: COptions::default(),
        }
    }

    /// The case under the default budget, once with move elision and
    /// once without.
    fn collector(name: &str, source: &str, entry: &str, args: &[&str]) -> [Case; 2] {
        [true, false].map(|elide_moves| Case {
            name: format!("{name} (elide {elide_moves})"),
            limits: Limits::default(),
            opts: COptions { elide_moves },
            ..Case::new(name, source, entry, args)
        })
    }
}

/// What the VM said about a case, reduced to what the C must match.
#[derive(Debug, Clone, PartialEq)]
enum Expect {
    /// The binary must print this and exit 0.
    Value(String),
    /// The binary must exit non-zero (a runtime error).
    Trap(String),
    /// Not comparable: a budget trap (the C has no fuel), a
    /// higher-order result, or a compile the budget refused.
    Skip(String),
}

/// A case after compilation: plain text only, so it can leave the
/// big-stack thread.
struct Compiled {
    name: String,
    source: String,
    expect: Expect,
    /// The emitted C, unless the case is skipped.
    c: Option<String>,
    /// An address-space limit for the binary, in KiB.
    ulimit_kib: Option<u64>,
}

/// Compiles the case under its budget, runs it on the VM and emits its
/// C.
fn compile(case: Case) -> Compiled {
    let (expect, c) = vm_and_c(&case);
    Compiled {
        name: case.name,
        source: case.source,
        expect,
        c,
        ulimit_kib: None,
    }
}

fn vm_and_c(case: &Case) -> (Expect, Option<String>) {
    let limits = case.limits;
    let pipe = match Pipeline::new(&case.source) {
        Ok(p) => p,
        Err(e) => return (Expect::Skip(format!("parse: {e}")), None),
    };
    let opts = CompileOptions {
        limits,
        ..CompileOptions::default()
    };
    let s0 = match pipe.compile(&case.entry, &opts) {
        Ok(s0) => s0,
        Err(e) => return (Expect::Skip(format!("compile: {e}")), None),
    };
    let vm = pe_vm::Vm::compile(&s0).expect("a verified residual loads");
    let expect = match vm.run(&case.args, limits) {
        Ok((d, _)) => Expect::Value(d.to_string()),
        Err(InterpError::Trap(t)) if t.is_budget() => return (Expect::Skip(t.to_string()), None),
        Err(InterpError::FuelExhausted) => return (Expect::Skip("fuel".to_string()), None),
        Err(InterpError::ResultNotFirstOrder) => {
            return (Expect::Skip("higher-order result".to_string()), None)
        }
        Err(e) => Expect::Trap(e.to_string()),
    };
    (expect, Some(emit_c(&s0, &case.args, &case.opts).source))
}

/// Runs `cmd` to completion or kills it after [`TIMEOUT`].
fn run_bounded(cmd: &mut Command) -> Result<Output, String> {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    loop {
        if child.try_wait().map_err(|e| e.to_string())?.is_some() {
            return child.wait_with_output().map_err(|e| e.to_string());
        }
        if start.elapsed() > TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("timed out after {TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Builds the C with `cc -O1` in `dir` and runs the binary, under an
/// address-space limit of `ulimit_kib` when one is given.
fn build_and_run(dir: &Path, i: usize, c: &str, ulimit_kib: Option<u64>) -> Result<Output, String> {
    let src = dir.join(format!("case{i}.c"));
    let bin: PathBuf = dir.join(format!("case{i}"));
    std::fs::write(&src, c).map_err(|e| e.to_string())?;
    let cc = run_bounded(Command::new("cc").arg("-O1").arg("-o").arg(&bin).arg(&src))?;
    if !cc.status.success() {
        return Err(format!(
            "cc failed:\n{}",
            String::from_utf8_lossy(&cc.stderr)
        ));
    }
    match ulimit_kib {
        None => run_bounded(&mut Command::new(&bin)),
        // The limit binds the child shell and the binary it becomes.
        Some(kib) => run_bounded(
            Command::new("sh")
                .arg("-c")
                .arg(format!("ulimit -v {kib}; exec \"$0\""))
                .arg(&bin),
        ),
    }
}

/// Per-case verdict of the C against the VM.
#[derive(Debug)]
enum Verdict {
    Agree,
    BothTrap,
    Skipped,
    Split(String),
}

/// Builds the cases and compiles them on a big stack, then builds and
/// runs the C on `available_parallelism()` threads.
fn check(cases: impl FnOnce() -> Vec<Case> + Send, tag: &str) -> Vec<(Compiled, Verdict)> {
    check_compiled(|| cases().into_iter().map(compile).collect(), tag)
}

/// [`check`] over cases already compiled (on a big stack).
fn check_compiled(
    cases: impl FnOnce() -> Vec<Compiled> + Send,
    tag: &str,
) -> Vec<(Compiled, Verdict)> {
    let compiled: Vec<Compiled> = realistic_pe::with_big_stack(cases);
    let dir = std::env::temp_dir().join(format!("pe-c-differential-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let verdicts: Vec<Mutex<Option<Verdict>>> = compiled.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(case) = compiled.get(i) else { break };
                let verdict = match &case.c {
                    None => Verdict::Skipped,
                    Some(c) => judge(&case.expect, build_and_run(&dir, i, c, case.ulimit_kib)),
                };
                *verdicts[i].lock().unwrap() = Some(verdict);
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    let verdicts = verdicts
        .into_iter()
        .map(|v| v.into_inner().unwrap().expect("every case judged"));
    compiled.into_iter().zip(verdicts).collect()
}

fn judge(expect: &Expect, run: Result<Output, String>) -> Verdict {
    let out = match run {
        Ok(out) => out,
        Err(e) => return Verdict::Split(e),
    };
    let printed = String::from_utf8_lossy(&out.stdout).trim().to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).trim().to_string();
    match expect {
        Expect::Value(v) if out.status.success() && &printed == v => Verdict::Agree,
        Expect::Trap(_) if !out.status.success() => Verdict::BothTrap,
        _ => Verdict::Split(format!(
            "VM {expect:?}, C exit {:?} printed {printed:?} stderr {stderr:?}",
            out.status.code()
        )),
    }
}

/// Fails on any split, naming the case and its source.
fn assert_no_split(results: &[(Compiled, Verdict)]) {
    let splits: Vec<String> = results
        .iter()
        .filter_map(|(c, v)| match v {
            Verdict::Split(why) => Some(format!("{}: {why}\n{}", c.name, c.source)),
            _ => None,
        })
        .collect();
    assert!(
        splits.is_empty(),
        "C and VM disagree:\n{}",
        splits.join("\n\n")
    );
}

fn generated(seed: u64, n: usize) -> Vec<Case> {
    let mut master = Rng::new(seed);
    (0..n)
        .map(|i| {
            let g = gen_case(&mut master.fork());
            Case {
                name: format!("gen-{seed:#x}-{i}"),
                source: g.source,
                entry: g.entry,
                args: g.args,
                limits: oracle_limits(),
                opts: COptions::default(),
            }
        })
        .collect()
}

#[test]
fn generated_programs_agree_with_the_vm() {
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    let results = check(
        || {
            let mut cases = generated(GEN_SEED, GEN_CASES);
            // A generated program whose `*` overflows: the C used to wrap.
            cases.extend(generated(0x5EED_0001, 111).pop());
            cases
        },
        "gen",
    );
    assert_no_split(&results);
    let count = |f: fn(&Verdict) -> bool| results.iter().filter(|(_, v)| f(v)).count();
    let agree = count(|v| matches!(v, Verdict::Agree));
    let both_trap = count(|v| matches!(v, Verdict::BothTrap));
    eprintln!(
        "{agree} agree, {both_trap} both trap, {} skipped of {}",
        count(|v| matches!(v, Verdict::Skipped)),
        results.len()
    );
    let (last, verdict) = results.last().expect("cases");
    assert!(
        matches!((&last.expect, verdict), (Expect::Trap(m), Verdict::BothTrap) if m.contains("*: fixnum overflow")),
        "{}: {verdict:?} {:?}",
        last.name,
        last.expect
    );
    assert!(
        agree >= GEN_CASES / 2,
        "only {agree} of {GEN_CASES} generated programs compared values"
    );
}

#[test]
fn scalar_edge_cases_agree_with_the_vm() {
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    // Values just inside and outside the small-integer table, and eq?
    // on integers allocated separately, on symbols, #f and '().
    let edges = "(define (f x)
                   (cons (sub1 x) (cons x (cons (add1 x)
                     (cons (eq? (add1 (sub1 x)) x) (cons (eq? (* x 2) (+ x x)) '()))))))";
    let eqs = "(define (g s l)
                 (cons (eq? s 'a) (cons (eq? s 'b) (cons (eq? (null? l) #f)
                   (cons (eq? (cdr l) '()) (cons (eqv? (car l) 300) (cons (equal? l '(300)) '())))))))";
    let overflow = |name: &str, body: &str, arg: &str| {
        Case::new(name, &format!("(define (f x) {body})"), "f", &[arg])
    };
    let cases = || {
        vec![
            Case::new("edge -17", edges, "f", &["-17"]),
            Case::new("edge -16", edges, "f", &["-16"]),
            Case::new("edge 255", edges, "f", &["255"]),
            Case::new("edge 256", edges, "f", &["256"]),
            Case::new("eq symbols", eqs, "g", &["a", "(300)"]),
            Case::new("eq other", eqs, "g", &["c", "(7 8)"]),
            overflow("add overflow", "(+ x 1)", "9223372036854775807"),
            overflow("mul overflow", "(* x x)", "4294967296"),
            overflow(
                "quotient overflow",
                "(quotient (- x 1) -1)",
                "-9223372036854775807",
            ),
            overflow(
                "remainder overflow",
                "(remainder (- x 1) -1)",
                "-9223372036854775807",
            ),
            overflow("no overflow", "(* x -1)", "9223372036854775807"),
        ]
    };
    let results = check(cases, "edges");
    assert_no_split(&results);
    let expected = [
        Some("(-18 -17 -16 #t #t)"),
        Some("(-17 -16 -15 #t #t)"),
        Some("(254 255 256 #t #t)"),
        Some("(255 256 257 #t #t)"),
        Some("(#t #f #t #t #t #t)"),
        Some("(#f #f #t #f #f #f)"),
        None,
        None,
        None,
        None,
        Some("-9223372036854775807"),
    ];
    for ((case, verdict), want) in results.iter().zip(expected) {
        match want {
            Some(v) => {
                assert_eq!(case.expect, Expect::Value(v.to_string()), "{}", case.name);
                assert!(
                    matches!(verdict, Verdict::Agree),
                    "{}: {verdict:?}",
                    case.name
                );
            }
            None => assert!(
                matches!(verdict, Verdict::BothTrap),
                "{}: {verdict:?}",
                case.name
            ),
        }
    }
}

#[test]
fn text_edge_cases_agree_with_the_vm() {
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    // Strings, symbols and characters that the C tables must hold with
    // C escapes and the C must print as the VM does: a tab, quotes, a
    // backslash, a newline, control characters, non-ASCII text, and a
    // NUL inside a string, which the string table's lengths keep.  A
    // symbol holding NUL is left out: its C string ends there.
    let text = "(define (f s)
                  (cons s (cons \"tab\\there \\\"q\\\" back\\\\slash\\nline \u{1}\u{7f}\u{2028} é\"
                    (cons 'sym\u{7f}λ '()))))";
    let chars = "(define (g c) (cons c (cons #\\é (cons #\\→ (cons #\\a '())))))";
    let nul = "(define (f x) (cons x \"a\u{0}b\"))";
    let cases = || {
        vec![
            Case::new("text", text, "f", &["\"λ\\\"\""]),
            Case::new("chars", chars, "g", &["#\\λ"]),
            Case::new("nul", nul, "f", &["1"]),
        ]
    };
    let results = check(cases, "text");
    assert_no_split(&results);
    let expected = [
        "(\"λ\\\"\" \"tab\there \\\"q\\\" back\\\\slash\\nline \u{1}\u{7f}\u{2028} é\" sym\u{7f}λ)",
        "(#\\λ #\\é #\\→ #\\a)",
        "(1 . \"a\u{0}b\")",
    ];
    for ((case, verdict), want) in results.iter().zip(expected) {
        assert_eq!(
            case.expect,
            Expect::Value(want.to_string()),
            "{}",
            case.name
        );
        assert!(
            matches!(verdict, Verdict::Agree),
            "{}: {verdict:?}",
            case.name
        );
    }
}

/// `go` sums the lengths of `n` fresh three-element lists, and `len`
/// walks each one non-tail-recursively, so every step pushes heap
/// contexts; no more than a few cells are ever live.  The answer is
/// `3n`.
const GO_LEN: &str = "(define (go n acc)
                        (if (zero? n) acc (go (sub1 n) (+ acc (len (cons n (cons n (cons n '()))))))))
                      (define (len l) (if (null? l) 0 (add1 (len (cdr l)))))";

/// The collector cases written as source, with the value each prints.
fn collector_sources() -> Vec<([Case; 2], String)> {
    // Live data that outgrows the first space: 20,000 boxed integers.
    let grow = "(define (build n acc) (if (zero? n) (sum acc 0) (build (sub1 n) (cons (+ n 1000) acc))))
                (define (sum l s) (if (null? l) s (sum (cdr l) (+ s (car l)))))";
    // Closures that capture a pair and another closure, kept in a list.
    let closures = "(define (mk n acc)
                      (if (zero? n) (apply-all acc 0)
                          (mk (sub1 n)
                              (cons (let ((p (cons n (+ n 300))))
                                      (let ((f (lambda (x) (+ x (car p)))))
                                        (lambda (y) (f (+ y (cdr p))))))
                                    acc))))
                    (define (apply-all l s) (if (null? l) s (apply-all (cdr l) ((car l) s))))";
    // Non-tail recursion whose heap contexts outgrow the first space.
    let deep = "(define (sumto n) (if (zero? n) 0 (+ n (sumto (sub1 n)))))";
    // Strings, characters and symbols inside structures that stay live
    // across the collections the garbage in `len` causes.
    let text = "(define (len l) (if (null? l) 0 (add1 (len (cdr l)))))
                (define (loop n c keep)
                  (if (zero? n) (cons c keep)
                      (loop (sub1 n) (+ c (len (list n n n)))
                            (if (zero? (remainder n 2000)) (cons (list 'k #\\x \"s\\\"q\" #\\λ n) keep) keep))))";
    // A result built across three labels and printed at the end.
    let labels = "(define (a n acc) (if (zero? n) acc (b (sub1 n) (cons n acc))))
                  (define (b n acc) (if (zero? n) acc (c (sub1 n) (cons 'b acc))))
                  (define (c n acc) (if (zero? n) acc (a (sub1 n) (cons (cons \"c\" #\\c) acc))))";
    let mut built = String::from("(");
    for n in 1..=3000 {
        match n % 3 {
            0 => built.push_str(&n.to_string()),
            2 => built.push('b'),
            _ => built.push_str("(\"c\" . #\\c)"),
        }
        built.push(if n < 3000 { ' ' } else { ')' });
    }
    let k = "(k #\\x \"s\\\"q\" #\\λ";
    let kept = format!("(30000 {k} 2000) {k} 4000) {k} 6000) {k} 8000) {k} 10000))");
    vec![
        (Case::collector("go/len", GO_LEN, "go", &["10000", "0"]), "30000".into()),
        (Case::collector("grow", grow, "build", &["20000", "()"]), "220010000".into()),
        (Case::collector("closures", closures, "mk", &["3000", "()"]), "9903000".into()),
        (Case::collector("deep", deep, "sumto", &["20000"]), "200010000".into()),
        (Case::collector("text", text, "loop", &["10000", "0", "()"]), kept),
        (Case::collector("labels", labels, "a", &["3000", "()"]), built),
    ]
}

fn var(k: usize) -> S0Simple {
    S0Simple::Var(k)
}

fn int(n: i64) -> S0Simple {
    S0Simple::Const(Constant::Int(n))
}

fn op(p: Prim, args: Vec<S0Simple>) -> S0Simple {
    S0Simple::Prim(p, args)
}

fn def(name: &str, params: &[&str], body: S0Tail) -> S0Proc {
    S0Proc {
        name: name.into(),
        params: params.iter().map(|&p| p.into()).collect(),
        body,
    }
}

/// A global left stale by move elision across collections, then a
/// label of larger arity.  `main` allocates a pair `p` first, so it lies
/// at the start of the first space, and passes it in `g3` to `mkl`,
/// which builds a list `l` of twenty closures.  `churn` (two
/// parameters) then collects many times, and `fin` (four, the last never
/// named, so every move into it is elided) collects again, while `l`,
/// live throughout, is copied back to the start of that space at every
/// other collection: right where the stale `g3` points.  Only resetting
/// the unnamed globals keeps the collector off that pointer.  Prints
/// 4501710: `fin`'s sum of 1..3000 plus the 1..20 the closures hold.
fn stale_global() -> S0Program {
    let call = S0Tail::TailCall;
    let nil = S0Simple::Const(Constant::Nil);
    let cons = |a: S0Simple, d: S0Simple| op(Prim::Cons, vec![a, d]);
    S0Program {
        entry: 0,
        procs: vec![
            def(
                "main",
                &["n"],
                call(
                    1,
                    vec![
                        nil.clone(),
                        int(20),
                        var(0),
                        cons(op(Prim::Add, vec![var(0), int(1000)]), cons(var(0), nil.clone())),
                    ],
                ),
            ),
            def(
                "mkl",
                &["l", "i", "n", "p"],
                S0Tail::If(
                    op(Prim::ZeroP, vec![var(1)]),
                    Box::new(call(2, vec![var(0), var(2)])),
                    Box::new(call(
                        1,
                        vec![
                            cons(S0Simple::MakeClosure(0, vec![var(1)]), var(0)),
                            op(Prim::Sub1, vec![var(1)]),
                            var(2),
                            var(3),
                        ],
                    )),
                ),
            ),
            def(
                "churn",
                &["l", "n"],
                S0Tail::If(
                    op(Prim::ZeroP, vec![var(1)]),
                    Box::new(call(3, vec![var(0), int(3000), int(0), int(7)])),
                    Box::new(call(
                        2,
                        vec![
                            var(0),
                            op(
                                Prim::Car,
                                vec![cons(op(Prim::Sub1, vec![var(1)]), cons(var(1), nil.clone()))],
                            ),
                        ],
                    )),
                ),
            ),
            def(
                "fin",
                &["l", "k", "s", "junk"],
                S0Tail::If(
                    op(Prim::ZeroP, vec![var(1)]),
                    Box::new(call(4, vec![var(0), var(2)])),
                    Box::new(call(
                        3,
                        vec![
                            var(0),
                            op(Prim::Sub1, vec![var(1)]),
                            op(
                                Prim::Add,
                                vec![
                                    var(2),
                                    op(Prim::Car, vec![cons(var(1), cons(var(2), nil.clone()))]),
                                ],
                            ),
                            int(7),
                        ],
                    )),
                ),
            ),
            def(
                "sum-l",
                &["l", "s"],
                S0Tail::If(
                    op(Prim::NullP, vec![var(0)]),
                    Box::new(S0Tail::Return(var(1))),
                    Box::new(call(
                        4,
                        vec![
                            op(Prim::Cdr, vec![var(0)]),
                            op(
                                Prim::Add,
                                vec![
                                    var(1),
                                    S0Simple::ClosureFreeval(
                                        Box::new(op(Prim::Car, vec![var(0)])),
                                        0,
                                    ),
                                ],
                            ),
                        ],
                    )),
                ),
            ),
        ],
    }
}

/// Runs a hand-built S₀ program on the VM under the default budget and
/// emits its C.
fn compile_s0(name: &str, s0: &S0Program, args: &[Datum], opts: &COptions) -> Compiled {
    let vm = pe_vm::Vm::compile(s0).expect("the program loads");
    let expect = match vm.run(args, Limits::default()) {
        Ok((d, _)) => Expect::Value(d.to_string()),
        Err(e) => Expect::Trap(e.to_string()),
    };
    Compiled {
        name: name.to_string(),
        source: s0.to_source(),
        expect,
        c: Some(emit_c(s0, args, opts).source),
        ulimit_kib: None,
    }
}

#[test]
fn collector_cases_agree_with_the_vm() {
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    let mut want: Vec<String> = Vec::new();
    let cases = || {
        let mut compiled = Vec::new();
        for (pair, value) in collector_sources() {
            for case in pair {
                compiled.push(compile(case));
                want.push(value.clone());
            }
        }
        let stale = stale_global();
        for elide_moves in [true, false] {
            let name = format!("stale global (elide {elide_moves})");
            compiled.push(compile_s0(&name, &stale, &[Datum::Int(6000)], &COptions { elide_moves }));
            want.push("4501710".into());
        }
        compiled
    };
    let results = check_compiled(cases, "gc");
    assert_no_split(&results);
    assert_eq!(results.len(), want.len());
    for ((case, verdict), want) in results.iter().zip(want) {
        assert_eq!(case.expect, Expect::Value(want), "{}", case.name);
        assert!(matches!(verdict, Verdict::Agree), "{}: {verdict:?}", case.name);
    }
}

#[test]
fn ten_million_steps_run_in_64_mib() {
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    // The go/len loop at n = 10⁷ allocates gigabytes, never more than a
    // few cells of them live at once; the VM's answer at n = 10⁴ is
    // checked above, and the loop's closed form is 3n.  Under a 64 MiB
    // address-space limit only a collecting heap prints it.
    let cases = || {
        let pipe = Pipeline::new(GO_LEN).expect("parses");
        let s0 = pipe.compile("go", &CompileOptions::default()).expect("compiles");
        let args = [Datum::Int(10_000_000), Datum::Int(0)];
        [true, false]
            .map(|elide_moves| Compiled {
                name: format!("go/len 10^7 (elide {elide_moves})"),
                source: GO_LEN.to_string(),
                expect: Expect::Value("30000000".to_string()),
                c: Some(emit_c(&s0, &args, &COptions { elide_moves }).source),
                ulimit_kib: Some(64 << 10),
            })
            .into()
    };
    let results = check_compiled(cases, "ulimit");
    assert_no_split(&results);
    assert!(results.iter().all(|(_, v)| matches!(v, Verdict::Agree)));
}
