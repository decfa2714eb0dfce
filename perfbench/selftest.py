#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at a tiny length, once with
--trace 0 and once with --trace 1, through perfbench/run.py, and checks
that each last output line parses as the result object, that the run
is correct with nothing failed, and that it carries exactly the
BENCHMARK.json metrics of that mode, each a finite number with the
declared unit. Lists every mismatch and exits non-zero if there is
any.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seed", "1", "--seconds", "1", "--instructions", "200000"]


def check(label, stdout, expected_units):
    """Return the problems with one run's result line."""
    try:
        result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        return [f"{label}: last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"{label}: result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result['attempted']}")
    metrics = result["metrics"]
    for name in sorted(set(expected_units) ^ set(metrics)):
        where = "missing" if name in expected_units else "unexpected"
        problems.append(f"{label}: {where} metric {name}")
    for name, unit in expected_units.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{label}: {name} value {value!r}")
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r}, "
                            f"expected {unit!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload["name"], "--trace", str(trace)]
            proc = subprocess.run(cmd + TINY, cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            units = {m["name"]: m["unit"] for m in spec[kind]}
            found = check(label, proc.stdout, units)
            print(f"{label}: {'ok' if not found else 'FAILED'} "
                  f"({len(units)} metrics)")
            problems += found
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
