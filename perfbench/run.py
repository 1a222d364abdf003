#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve_repeat|serve_churn|build_road \\
        --seed N --seconds S --trace 0|1

The benchmark is the Rust package next to this file; it is built from
source with cargo (release profile) into $CARGO_TARGET_DIR, or into
.bench_build when that is unset. Build output goes to standard error. The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
header with the seed, the held-out seed and the host fingerprint.

The exit code is non-zero, and no result is printed, when the build or
the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def commit():
    """The git commit of the checkout, or "unknown" outside a repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [binary,
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--workdir", os.path.join(target, "perfbench-work"),
         "--commit", commit()],
        cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
