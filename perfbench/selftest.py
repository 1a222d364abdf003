#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload, untraced and
traced, must print every metric BENCHMARK.json names, each with its unit,
and report no failed operation.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Exits non-zero and names the problem when a check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A short run per workload and mode, on one fixed seed.
SECONDS = 2
SEED = 7


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, json.JSONDecodeError) as e:
        return None, f"no result line ({e})"


def check(result, expected):
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(
            f"error rate {result.get('failed')}/{result.get('attempted')} is not 0"
        )
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"missing metric {name}")
        elif got.get("unit") != unit:
            problems.append(f"{name} has unit {got.get('unit')!r}, not {unit!r}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    rate = metrics.get("error_rate", {}).get("value", 0)
    if rate != 0:
        problems.append(f"error_rate is {rate}, not 0")
    extra = set(metrics) - set(expected)
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in modes.items():
            result, error = run(workload, trace)
            problems = [error] if error else check(result, expected)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} --trace {trace}: {status}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
