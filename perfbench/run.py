#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload asp_router --seed 1 --seconds 10 --trace 0

The benchmark is a cargo package of its own (perfbench/Cargo.toml). It is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build in the
current directory), then run with the same arguments. Its last line of
standard output is the result as one JSON object; build output goes to
standard error. Traced runs write their spans under the target directory,
in perfbench-spans/.
"""

import os
import subprocess
import sys


def main() -> int:
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr).returncode
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "planp-perfbench")
    args = sys.argv[1:] + ["--out", os.path.join(target, "perfbench-spans")]
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
