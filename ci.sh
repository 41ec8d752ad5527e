#!/bin/sh
# Offline CI: build, test, lint, and run the static-verification audit.
# The workspace has no external dependencies, so everything here works
# without network access.
set -eux

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc with warnings denied: every intra-doc link must resolve, so a
# doc comment that still names a deleted or renamed function fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo run --release -p realistic-pe --example verify

# pe-flow translation validation: the whole Gabriel suite is compiled
# with the flow optimizer off and on, differentially executed on the
# VM, and every optimized residual must re-pass verification with zero
# arm-lint warnings (the `verify` example above exits non-zero on any).  The
# --flow report must render and schema-validate its event stream.
cargo test -q -p realistic-pe --test flow_integration
cargo run --release -p realistic-pe --example pe-explain -- --flow > /dev/null

# pe-sct termination analysis: every benchmark classified, sct on/off
# differentially executed on the VM, zero pass-7 termination warnings,
# and suite-wide dynamic widenings must drop under static control.  The
# --sct report must render and schema-validate its event stream.
cargo test -q -p realistic-pe --test sct_integration
cargo run --release -p realistic-pe --example pe-explain -- --sct > /dev/null

# Fault injection: hostile input against every entry point (including
# the printer-totality and pretty/read round-trip tests), then the
# deep-input stack smoke in the DEBUG profile (unoptimized frames are
# the worst case for host-stack recursion, so unbounded recursion
# aborts here rather than in a user's process).
cargo test -q -p pe-faultline
cargo run -p pe-faultline --example stack_smoke

# Trace smoke: pe-explain in JSONL mode self-validates its own stream
# (schema, span balance) and exits non-zero on any violation; the
# human-readable report and the trap census must render without error.
cargo run --release -p realistic-pe --example pe-explain -- --json tak > /dev/null
cargo run --release -p realistic-pe --example pe-explain -- deriv fibclos > /dev/null
cargo run --release -p pe-faultline --example trap_census > /dev/null

# pe-prof cost attribution: every benchmark's traced compile + profiled
# VM run must produce a per-residual-procedure attribution table whose
# per-phase sums balance against the span totals within 5%, and whose
# event stream (attr + hist lines included) passes the JSONL schema.
# Exits non-zero on unbalanced books or a schema violation.
cargo run --release -p realistic-pe --example pe-explain -- --prof > /dev/null

# The offline benchmark harness in quick mode: compiles and times the
# whole Gabriel suite on every engine (small inputs, few reps) so each
# CI run checks the harness end to end.  Its report goes under target/,
# so the committed full-mode BENCH_pe.json stays as it is.  --check
# gates against the committed baseline: large timing multiples or >5%
# growth in the deterministic size metrics fail the run.
cargo run --release -p pe-bench -- --quick --out target/BENCH_pe.quick.json \
    --check BENCH_baseline.json

# The repository benchmark under perfbench/ is a workspace of its own,
# so the root build and tests above never compile it.  Build and test
# it here, so a public-API change in a crate it links (pe-vm, pe-interp,
# …) cannot break the benchmark unnoticed.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The benchmark's own correctness checks, which its tests never reach:
# one short traced run per workload.  A traced run exits non-zero
# unless the compile it composes layer by layer reproduces
# `Pipeline::compile`, and its last line reads `"correct": true` only
# when every answer checked out (serve-mix compares them byte for
# byte).
for w in fig8 gen-large serve-mix; do
    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 1 > target/perfbench-ci.out
    tail -n 1 target/perfbench-ci.out | grep -q '^{"correct": true,'
done

# pe-siege robustness harness.  First the corpus gate: every minimal
# reproducer ever banked under crates/siege/corpus must stay clean
# (differential agreement across all eight engines plus a crash-free
# budget ladder).  Then the fixed-seed quick campaign: 400 generated
# programs + mutants through the full oracle/chaos/shrink loop —
# deterministic, <30s, exits non-zero on any panic, value split, or
# ladder violation, and writes a schema-validated report under target/
# (the committed SIEGE_pe.json is the full-mode soak's).
cargo run --release -p pe-siege -- --replay
cargo run --release -p pe-siege -- --quick --out target/SIEGE_pe.quick.json

# pe-serve determinism gate: the compile service answers a fixed
# request mix (suite + seed-pinned generated programs, with duplicates)
# cold on N threads, warm from the artifact cache, and warm-started
# from memo snapshots on a capacity-starved cache — every pass must be
# byte-identical to a sequential reference and the hit/miss accounting
# must balance.  Deterministic, <30s, exits non-zero on any divergence.
cargo run --release -p pe-serve -- --gate
