#!/usr/bin/env python3
"""Measure mellowsim and append one point to BENCH_perf.json.

For every workload in BENCHMARK.json, runs `python3 perfbench/run.py`
five times with --trace 0 and five times with --trace 1, at
--seed 1 --seconds 3, and records the median, first and third
quartile and unit of every end-to-end and per-layer metric
BENCHMARK.json declares. It then builds bench/micro_kernel under the
release-lto preset and runs it five times for the event and
request-queue loop timings, recorded the same way. The point is
tagged with the host's core count.

BENCH_perf.json is a trajectory, not a snapshot (schema_version 2):
each invocation appends one point keyed by git SHA and date, so a
regression shows up as a bend in the curve rather than a flaky gate.
Re-running on the same commit replaces that commit's point. An
unreadable or foreign file starts a fresh trajectory.

Usage:
  tools/perf_report.py [--output BENCH_perf.json] [--skip-build]
                       [--events N] [--instructions N] [--jobs N]

--instructions is passed through to run.py (default: its own length);
--events is micro_kernel's MELLOWSIM_PERF_EVENTS.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(REPO_ROOT, "build-lto")
REPEATS = 5
SEED = 1
SECONDS = 3


def run(cmd, **kwargs):
    print("+ " + " ".join(cmd), flush=True)
    return subprocess.run(cmd, check=True, **kwargs)


def summarize(samples, unit):
    """Median and quartiles of `samples` (inclusive method)."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "unit": unit}


def result_metrics(stdout, units):
    """Metric values of one run.py result line, checked against `units`.

    Raises ValueError unless the run is correct, nothing failed and it
    carries exactly the metrics named in `units`.
    """
    result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        raise ValueError(f"run not clean: correct={result.get('correct')} "
                         f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        raise ValueError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    return {name: float(entry["value"]) for name, entry in metrics.items()}


def kernel_metrics(stdout):
    """`perf.<name> <value>` lines of micro_kernel as {name: value}."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("perf."):
            key, _, value = line.partition(" ")
            out[key[len("perf."):]] = float(value)
    return out


def make_point(spec, run_workload, run_kernel, config):
    """One trajectory point: provenance plus every summary.

    `run_workload(name, trace)` returns the stdout of one run.py
    invocation; `run_kernel()` returns the stdout of one micro_kernel
    run.
    """
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        summaries = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[kind]}
            samples = [result_metrics(run_workload(name, trace), units)
                       for _ in range(REPEATS)]
            for metric, unit in units.items():
                summaries[metric] = summarize(
                    [s[metric] for s in samples], unit)
        workloads[name] = summaries
    samples = [kernel_metrics(run_kernel()) for _ in range(REPEATS)]
    kernel = {metric: summarize([s[metric] for s in samples], "ns")
              for metric in samples[0]}
    return {
        "git_sha": git_head_sha(),
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
        },
        "config": config,
        "workloads": workloads,
        "kernel": kernel,
    }


def git_head_sha():
    """Current commit SHA, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True)
        return proc.stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        return None


def load_trajectory(path):
    """The runs (oldest first) of the trajectory at `path`.

    An unreadable or foreign file starts a fresh trajectory.
    """
    try:
        with open(path) as f:
            old = json.load(f)
    except (OSError, ValueError):
        return []
    if (not isinstance(old, dict) or old.get("bench") != "perf"
            or old.get("schema_version") != 2):
        return []
    runs = old.get("runs", [])
    return runs if isinstance(runs, list) else []


def append_run(runs, point):
    """Append `point`, replacing any prior entry for the same commit.

    Points with a null git_sha (runs outside a git checkout) replace
    one another too, so re-runs never stack identical-looking points.
    """
    sha = point.get("git_sha")
    return [r for r in runs if r.get("git_sha") != sha] + [point]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT, "BENCH_perf.json"))
    parser.add_argument("--skip-build", action="store_true",
                        help="use the existing build-lto micro_kernel")
    parser.add_argument("--events", type=int, default=2_000_000,
                        help="micro_kernel event count")
    parser.add_argument("--instructions", type=int,
                        help="detailed instructions per perfbench "
                             "simulation (default: run.py's)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="build parallelism for micro_kernel")
    args = parser.parse_args()

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    if not args.skip_build:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            run(["cmake", "--preset", "release-lto"], cwd=REPO_ROOT)
        run(["cmake", "--build", BUILD_DIR, "-j", str(args.jobs),
             "--target", "micro_kernel"], cwd=REPO_ROOT)

    def run_workload(name, trace):
        cmd = [sys.executable, os.path.join(REPO_ROOT, "perfbench", "run.py"),
               "--workload", name, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace)]
        if args.instructions is not None:
            cmd += ["--instructions", str(args.instructions)]
        return run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                   text=True).stdout

    def run_kernel():
        env = dict(os.environ, MELLOWSIM_PERF_EVENTS=str(args.events))
        proc = run([os.path.join(BUILD_DIR, "bench", "micro_kernel")],
                   env=env, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        return proc.stdout

    config = {
        "repeats": REPEATS,
        "seed": SEED,
        "seconds": SECONDS,
        "instructions": args.instructions,
        "events": args.events,
        "kernel_preset": "release-lto",
    }
    point = make_point(spec, run_workload, run_kernel, config)

    runs = append_run(load_trajectory(args.output), point)
    with open(args.output, "w") as f:
        json.dump({"bench": "perf", "schema_version": 2, "runs": runs},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output} ({len(runs)} run(s) in trajectory)")


if __name__ == "__main__":
    main()
