//! End-to-end §5 tests: the whole Fig. 8 suite through the C back end,
//! compiled with the system C compiler and executed, outputs compared
//! with the VM.  Skipped when no `cc` is installed.

use realistic_pe::{COptions, CompileOptions, Limits, NullSink, Pipeline, SUITE};
use std::process::Command;

fn cc_available() -> bool {
    Command::new("cc").arg("--version").output().is_ok()
}

#[test]
fn whole_suite_through_c() {
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    let dir = std::env::temp_dir().join(format!("pe-suite-c-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let args = b.test_inputs();
        let opts = CompileOptions::default();
        let s0 = pipe.compile(b.entry, &opts).unwrap();
        let c = realistic_pe::emit_c(&s0, &args, &COptions::default());
        let c_path = dir.join(format!("{}.c", b.name));
        let bin = dir.join(b.name);
        std::fs::write(&c_path, &c.source).unwrap();
        let out = Command::new("cc")
            .arg("-O1")
            .arg("-o")
            .arg(&bin)
            .arg(&c_path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}: cc failed:\n{}",
            b.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let out = Command::new(&bin).output().unwrap();
        assert!(out.status.success(), "{}: {}", b.name, String::from_utf8_lossy(&out.stderr));
        let c_result = String::from_utf8_lossy(&out.stdout).trim().to_string();

        let (vm_result, _) = pipe.run_compiled(b.entry, &args, &opts, Limits::default()).unwrap();
        assert_eq!(c_result, vm_result.to_string(), "{}: C vs VM", b.name);
        assert_eq!(c_result, b.test_expect, "{}: C vs expected", b.name);
    }
}

#[test]
fn c_sources_are_self_contained_ansi_ish() {
    // Every generated file must compile alone, optimized, with
    // warnings-as-errors on the constructs we control: the whole suite
    // plus a program without symbols or strings (whose tables and
    // print cases are absent).
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    let dir = std::env::temp_dir().join(format!("pe-ansi-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tiny = Pipeline::new("(define (f x) (+ x 1))").unwrap();
    let mut cases = vec![(
        "f",
        tiny.emit_c("f", &[realistic_pe::Datum::Int(1)], &CompileOptions::default(), &mut NullSink)
            .unwrap(),
    )];
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let c = pipe
            .emit_c(b.entry, &b.bench_inputs(), &CompileOptions::default(), &mut NullSink)
            .unwrap();
        cases.push((b.name, c));
    }
    for (name, c) in cases {
        let c_path = dir.join(format!("{name}.c"));
        std::fs::write(&c_path, &c.source).unwrap();
        let out = Command::new("cc")
            // The fixed runtime header legitimately contains helpers a
            // given program does not call.
            .args(["-O2", "-Wall", "-Wextra", "-Werror", "-Wno-unused-function", "-o"])
            .arg(dir.join(name))
            .arg(&c_path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: warnings in generated C:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
