#!/usr/bin/env python3
"""Run the perf harness and emit BENCH_perf.json.

Builds the release-lto preset (Release + IPO), runs bench/micro_kernel
for the kernel-level metrics, then times a reduced
fig11_policy_lifetime slice as the system-level figure.

BENCH_perf.json is a trajectory, not a snapshot (schema_version 2):
each invocation APPENDS a run keyed by git SHA and date to the `runs`
list, so regressions show up as a bend in the curve rather than a
flaky gate. Re-running on the same commit replaces that commit's
entry instead of duplicating it, and a legacy single-run file
(schema_version 1) is migrated in place as the trajectory's first
point.

Usage:
  tools/perf_report.py [--output BENCH_perf.json] [--skip-build]
                       [--events N] [--instrs N] [--fig11-instrs N]

Scaling knobs mirror the benchmarks' own environment variables; the
defaults keep a full run under ~2 minutes on one core.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(REPO_ROOT, "build-lto")


def run(cmd, **kwargs):
    print("+ " + " ".join(cmd), flush=True)
    return subprocess.run(cmd, check=True, **kwargs)


def build(jobs):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run(["cmake", "--preset", "release-lto"], cwd=REPO_ROOT)
    run(["cmake", "--build", BUILD_DIR, "-j", str(jobs)], cwd=REPO_ROOT)


def parse_metrics(text):
    """Parse `perf.<group>.<name> <value>` lines into a nested dict."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("perf."):
            continue
        key, _, value = line.partition(" ")
        parts = key.split(".")[1:]
        node = out
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        try:
            node[parts[-1]] = float(value)
        except ValueError:
            node[parts[-1]] = value
    return out


def run_micro_kernel(events, instrs):
    env = dict(os.environ)
    env["MELLOWSIM_PERF_EVENTS"] = str(events)
    env["MELLOWSIM_INSTRS"] = str(instrs)
    proc = run([os.path.join(BUILD_DIR, "bench", "micro_kernel")],
               env=env, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    return parse_metrics(proc.stdout)


def run_fig11_slice(instrs):
    env = dict(os.environ)
    env["MELLOWSIM_INSTRS"] = str(instrs)
    env["MELLOWSIM_WARMUP"] = str(max(instrs // 4, 1))
    env["MELLOWSIM_JOBS"] = "1"
    binary = os.path.join(BUILD_DIR, "bench", "fig11_policy_lifetime")
    t0 = time.monotonic()
    proc = run([binary], env=env, capture_output=True, text=True)
    host_sec = time.monotonic() - t0
    lines = proc.stdout.count("\n")
    return {"instrs": instrs, "host_sec": round(host_sec, 3),
            "output_lines": lines}


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
    """Existing trajectory at `path`, migrating a v1 snapshot.

    Returns the list of runs (oldest first). A schema_version 1 file
    was a single run with no provenance; it becomes the first
    trajectory point with null sha/date rather than being thrown away.
    An unreadable or foreign file starts a fresh trajectory.
    """
    try:
        with open(path) as f:
            old = json.load(f)
    except (OSError, ValueError):
        return []
    if not isinstance(old, dict) or old.get("bench") != "perf":
        return []
    if old.get("schema_version") == 2:
        runs = old.get("runs", [])
        return runs if isinstance(runs, list) else []
    # v1: one anonymous run.
    return [{
        "git_sha": None,
        "date": None,
        "host": old.get("host"),
        "config": old.get("config"),
        "metrics": old.get("metrics"),
    }]


def append_run(runs, run):
    """Append `run`, replacing any prior entry for the same commit.

    Anonymous runs (git_sha null — a v1 migration point or a run
    outside a git checkout) get the same replace-not-duplicate
    treatment: they are indistinguishable by commit, so at most one
    survives and the newest wins. Otherwise every re-run outside git
    would stack an identical-looking point onto the trajectory, and a
    legacy file that was migrated more than once would carry several
    null-sha ghosts.
    """
    sha = run.get("git_sha")
    runs = [r for r in runs if r.get("git_sha") != sha]
    runs.append(run)
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT, "BENCH_perf.json"))
    parser.add_argument("--skip-build", action="store_true",
                        help="use the existing build-lto binaries")
    parser.add_argument("--events", type=int, default=2_000_000,
                        help="micro_kernel event count")
    parser.add_argument("--instrs", type=int, default=1_000_000,
                        help="micro_kernel system-slice instructions")
    parser.add_argument("--fig11-instrs", type=int, default=2_000_000,
                        help="fig11 slice instructions per run")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    if not args.skip_build:
        build(args.jobs)

    metrics = run_micro_kernel(args.events, args.instrs)
    metrics["fig11_slice"] = run_fig11_slice(args.fig11_instrs)

    run_entry = {
        "git_sha": git_head_sha(),
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
        },
        "config": {
            "preset": "release-lto",
            "events": args.events,
            "instrs": args.instrs,
            "fig11_instrs": args.fig11_instrs,
        },
        "metrics": metrics,
    }

    runs = append_run(load_trajectory(args.output), run_entry)
    report = {
        "bench": "perf",
        "schema_version": 2,
        "runs": runs,
    }
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output} ({len(runs)} run(s) in trajectory)")


if __name__ == "__main__":
    main()
