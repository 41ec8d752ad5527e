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

# `cargo test -q` above already ran realistic-pe's `flow_integration`
# (the Gabriel suite compiled with the flow optimizer off and on,
# differentially executed on the VM, every optimized residual
# re-verified with zero arm-lint warnings) and `sct_integration` (every
# benchmark classified, sct on/off differentially executed, zero pass-7
# warnings, fewer dynamic widenings under static control), and
# pe-faultline's hostile-input tests.  What remains is what no test
# target runs.  The --flow and --sct reports must render and
# schema-validate their event streams.
cargo run --release -p realistic-pe --example pe-explain -- --flow > /dev/null
cargo run --release -p realistic-pe --example pe-explain -- --sct > /dev/null

# The deep-input stack smoke in the DEBUG profile: unoptimized frames
# are the worst case for host-stack recursion, so unbounded recursion
# aborts here rather than in a user's process.
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
# gates against the committed baseline, and what it gates is the
# deterministic work: every exact work count and size may grow by at
# most 5%.  A phase time fails only past baseline × 2.5 + 25 ms, and
# the baselines are 0.05–1.1 ms, so quick mode catches no real
# slowdown; timing is measured by perfbench, not gated here.
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
