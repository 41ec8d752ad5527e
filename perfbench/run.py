#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fig8|gen-large|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

The crate is built in release mode, offline, into $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to standard error.  The
benchmark's last line of standard output is its JSON result.  When the
build fails (e.g. the workspace crates are missing) this exits with the
build's status and prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
