//! A workload's programs and the operations the benchmark times on them:
//! compile (source text to S₀, VM code and C), run on the VM, and run
//! as a `cc -O2` binary.  Every answer is checked against the Fig. 3
//! standard interpreter's, computed once per set-up.

use crate::stats::ms_since;
use pe_backend_c::{emit_c, COptions, CProgram};
use pe_core::CompileOptions;
use pe_interp::{Datum, Limits};
use pe_vm::Vm;
use realistic_pe::Pipeline;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Attempted and failed operations.  A failure is an error, a trap, a
/// rejection, or an answer that differs from the reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; returns `ok` so callers can time only
    /// successes.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// One program of a workload, compiled and checked at set-up.
pub struct Prog {
    pub name: String,
    pub source: String,
    pub entry: String,
    pub args: Vec<Datum>,
    /// The Fig. 3 standard interpreter's answer: the oracle.  The
    /// specializer is never its own reference.
    pub expect: Datum,
    /// `Pipeline::compile(..).to_source()`: the residual the composed
    /// traced pipeline and every pe-serve response must reproduce.
    pub residual: String,
    pub pipe: Pipeline,
    pub vm: Vm,
    /// The emitted C for `args`.
    pub c: CProgram,
    /// The `cc -O2` binary, when the workload runs C.
    pub binary: Option<PathBuf>,
}

fn err(name: &str, stage: &str, e: impl std::fmt::Display) -> String {
    format!("{name}: {stage}: {e}")
}

impl Prog {
    /// Parses, computes the reference answer under `reference_limits`,
    /// compiles, and checks the VM's answer against the reference.
    pub fn new(
        name: &str,
        source: &str,
        entry: &str,
        args: Vec<Datum>,
        reference_limits: Limits,
    ) -> Result<Prog, String> {
        let pipe = Pipeline::new(source).map_err(|e| err(name, "parse", e))?;
        let expect = pipe
            .run_standard(entry, &args, reference_limits)
            .map_err(|e| err(name, "reference", e))?;
        let s0 = pipe
            .compile(entry, &CompileOptions::default())
            .map_err(|e| err(name, "compile", e))?;
        let vm = Vm::compile(&s0).map_err(|e| err(name, "vm load", e))?;
        let c = emit_c(&s0, &args, &COptions::default());
        let prog = Prog {
            name: name.to_string(),
            source: source.to_string(),
            entry: entry.to_string(),
            args,
            expect,
            residual: s0.to_source(),
            pipe,
            vm,
            c,
            binary: None,
        };
        if !prog.run_vm().1 {
            return Err(err(name, "vm", "answer differs from the reference"));
        }
        Ok(prog)
    }

    /// Emits C, builds it with `cc -O2` in `dir`, and checks one run of
    /// the binary.  Returns the `cc` wall time in seconds.
    pub fn build_c(&mut self, dir: &Path) -> Result<f64, String> {
        let c_path = dir.join(format!("{}.c", self.name));
        let bin = dir.join(&self.name);
        std::fs::write(&c_path, &self.c.source).map_err(|e| err(&self.name, "write C", e))?;
        let t0 = Instant::now();
        let out = Command::new("cc")
            .args(["-O2", "-pipe", "-o"])
            .arg(&bin)
            .arg(&c_path)
            .env("TMPDIR", dir)
            .output()
            .map_err(|e| err(&self.name, "cc", e))?;
        let secs = t0.elapsed().as_secs_f64();
        if !out.status.success() {
            return Err(err(&self.name, "cc", String::from_utf8_lossy(&out.stderr)));
        }
        self.binary = Some(bin);
        if !self.run_c().1 {
            return Err(err(&self.name, "C", "answer differs from the reference"));
        }
        Ok(secs)
    }

    /// One `Vm::run`: (milliseconds, answer equals the reference).
    pub fn run_vm(&self) -> (f64, bool) {
        let t0 = Instant::now();
        let r = self.vm.run(&self.args, Limits::default());
        let ms = ms_since(t0);
        (ms, matches!(r, Ok((d, _)) if d == self.expect))
    }

    /// One spawn-to-exit run of the binary: (milliseconds, printed
    /// answer equals the reference).
    pub fn run_c(&self) -> (f64, bool) {
        let Some(bin) = &self.binary else {
            return (0.0, false);
        };
        let t0 = Instant::now();
        let out = Command::new(bin).output();
        let ms = ms_since(t0);
        let ok = out.is_ok_and(|o| {
            o.status.success()
                && String::from_utf8_lossy(&o.stdout).trim() == self.expect.to_string()
        });
        (ms, ok)
    }

    /// One untraced compile, as a user runs it: source text →
    /// `Pipeline::new` → `Pipeline::compile` (verified S₀) →
    /// `Vm::compile` → `emit_c`.  Returns (milliseconds, the output has
    /// the reference's C size).
    pub fn compile_once(&self) -> (f64, bool) {
        let t0 = Instant::now();
        let c = Pipeline::new(&self.source).ok().and_then(|pipe| {
            let s0 = pipe.compile(&self.entry, &CompileOptions::default()).ok()?;
            let vm = Vm::compile(&s0).ok()?;
            std::hint::black_box(&vm);
            Some(emit_c(&s0, &self.args, &COptions::default()))
        });
        let ms = ms_since(t0);
        (ms, c.is_some_and(|c| c.size_bytes() == self.c.size_bytes()))
    }
}

/// Summed spawn-to-exit time of every built binary in `progs`, or
/// `None` when any run failed (a failed pass is never timed).
pub fn c_pass(progs: &[Prog], tally: &mut Tally) -> Option<f64> {
    let mut total = 0.0;
    let mut ok = true;
    for p in progs.iter().filter(|p| p.binary.is_some()) {
        let (ms, good) = p.run_c();
        ok &= tally.record(good);
        total += ms;
    }
    ok.then_some(total)
}

/// Summed `Vm::run` time over `progs`, or `None` when any run failed.
pub fn vm_pass(progs: &[Prog], tally: &mut Tally) -> Option<f64> {
    let mut total = 0.0;
    let mut ok = true;
    for p in progs {
        let (ms, good) = p.run_vm();
        ok &= tally.record(good);
        total += ms;
    }
    ok.then_some(total)
}

/// One untraced compile of every program: (pass milliseconds when every
/// compile succeeded, per-program milliseconds).
pub fn compile_pass(progs: &[Prog], tally: &mut Tally) -> (Option<f64>, Vec<f64>) {
    let mut per = Vec::with_capacity(progs.len());
    let mut ok = true;
    for p in progs {
        let (ms, good) = p.compile_once();
        ok &= tally.record(good);
        per.push(ms);
    }
    (ok.then(|| per.iter().sum()), per)
}

/// A scratch directory for C files and binaries, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `.bench_build/perfbench/<tag>-<pid>` under the current
    /// directory.
    pub fn create(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_build")
            .join("perfbench")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
