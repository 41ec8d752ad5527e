//! The emitted C under the differential oracle.
//!
//! Generated programs (the golden-residual stream) and hand-written
//! edge cases are compiled to S₀, run on the VM, and emitted as C that
//! is built with `cc -O1` and run.  The C has no fuel, so a case whose
//! VM run ends in a budget trap is skipped.  Otherwise the binary must
//! print the VM's value, or exit non-zero where the VM reports a
//! runtime error.  Skipped when no `cc` is installed.

use pe_core::CompileOptions;
use pe_interp::{Datum, InterpError};
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

/// One program to check: a name, its source, entry and arguments.
struct Case {
    name: String,
    source: String,
    entry: String,
    args: Vec<Datum>,
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
        }
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
}

/// Compiles the case under the oracle's budget, runs it on the VM and
/// emits its C.
fn compile(case: Case) -> Compiled {
    let (expect, c) = vm_and_c(&case);
    Compiled {
        name: case.name,
        source: case.source,
        expect,
        c,
    }
}

fn vm_and_c(case: &Case) -> (Expect, Option<String>) {
    let limits = oracle_limits();
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
    (
        expect,
        Some(emit_c(&s0, &case.args, &COptions::default()).source),
    )
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

/// Builds the C with `cc -O1` in `dir` and runs the binary.
fn build_and_run(dir: &Path, i: usize, c: &str) -> Result<Output, String> {
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
    run_bounded(&mut Command::new(&bin))
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
    let compiled: Vec<Compiled> =
        realistic_pe::with_big_stack(|| cases().into_iter().map(compile).collect());
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
                    Some(c) => judge(&case.expect, build_and_run(&dir, i, c)),
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
    // backslash, a newline, control characters and non-ASCII text.  NUL
    // is left out: a C string ends at it.
    let text = "(define (f s)
                  (cons s (cons \"tab\\there \\\"q\\\" back\\\\slash\\nline \u{1}\u{7f}\u{2028} é\"
                    (cons 'sym\u{7f}λ '()))))";
    let chars = "(define (g c) (cons c (cons #\\é (cons #\\→ (cons #\\a '())))))";
    let cases = || {
        vec![
            Case::new("text", text, "f", &["\"λ\\\"\""]),
            Case::new("chars", chars, "g", &["#\\λ"]),
        ]
    };
    let results = check(cases, "text");
    assert_no_split(&results);
    let expected = [
        "(\"λ\\\"\" \"tab\there \\\"q\\\" back\\\\slash\\nline \u{1}\u{7f}\u{2028} é\" sym\u{7f}λ)",
        "(#\\λ #\\é #\\→ #\\a)",
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
