#!/usr/bin/env python3
"""Unit tests for tools/perf_report.py.

Covers the summary statistics, the trajectory file handling and the
shape of a new point, with fake runners in place of perfbench/run.py
and micro_kernel, so no build and no benchmark run is needed.

Run directly (`python3 tools/test_perf_report.py`) or via the
`tools.perf_report_unit` ctest entry.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_report  # noqa: E402

with open(os.path.join(perf_report.REPO_ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

KERNEL_STDOUT = ("# micro_kernel: events=1000\n"
                 "perf.event.ns_per_event 60.5\n"
                 "perf.rq.ns_per_op 150.25\n")


def result_line(kind, value=1.0):
    """A run.py stdout whose result carries every `kind` metric."""
    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in SPEC[kind]}
    result = {"attempted": 11, "correct": True, "failed": 0,
              "metrics": metrics}
    return "# a comment line\n" + json.dumps(result) + "\n"


class SummarizeTest(unittest.TestCase):
    def test_odd_count(self):
        self.assertEqual(perf_report.summarize([5, 1, 4, 2, 3], "s"),
                         {"median": 3, "q1": 2, "q3": 4, "unit": "s"})

    def test_even_count_interpolates(self):
        got = perf_report.summarize([4.0, 1.0, 3.0, 2.0], "ns")
        self.assertEqual(got, {"median": 2.5, "q1": 1.75, "q3": 3.25,
                               "unit": "ns"})

    def test_identical_samples(self):
        got = perf_report.summarize([7.0] * 5, "MB")
        self.assertEqual((got["q1"], got["median"], got["q3"]),
                         (7.0, 7.0, 7.0))


class TrajectoryTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "BENCH_perf.json")

    def tearDown(self):
        self.dir.cleanup()

    def write(self, text):
        with open(self.path, "w") as f:
            f.write(text)

    def test_append_replaces_same_sha(self):
        runs = [{"git_sha": "a", "n": 1}, {"git_sha": "b", "n": 2}]
        got = perf_report.append_run(runs, {"git_sha": "a", "n": 3})
        self.assertEqual(got, [{"git_sha": "b", "n": 2},
                               {"git_sha": "a", "n": 3}])

    def test_append_new_sha_keeps_history(self):
        runs = [{"git_sha": "a"}, {"git_sha": None}]
        got = perf_report.append_run(runs, {"git_sha": "c"})
        self.assertEqual([r["git_sha"] for r in got], ["a", None, "c"])

    def test_reads_existing_trajectory(self):
        runs = [{"git_sha": "a"}, {"git_sha": "b"}]
        self.write(json.dumps({"bench": "perf", "schema_version": 2,
                               "runs": runs}))
        self.assertEqual(perf_report.load_trajectory(self.path), runs)

    def test_missing_file_starts_fresh(self):
        self.assertEqual(perf_report.load_trajectory(self.path), [])

    def test_unreadable_file_starts_fresh(self):
        self.write("{not json")
        self.assertEqual(perf_report.load_trajectory(self.path), [])

    def test_foreign_file_starts_fresh(self):
        for doc in ({"bench": "other", "schema_version": 2, "runs": [{}]},
                    {"bench": "perf", "schema_version": 1, "metrics": {}},
                    {"bench": "perf", "schema_version": 2, "runs": {}},
                    [1, 2, 3]):
            self.write(json.dumps(doc))
            self.assertEqual(perf_report.load_trajectory(self.path), [],
                             doc)


class MakePointTest(unittest.TestCase):
    def setUp(self):
        self.calls = []

        def run_workload(name, trace):
            self.calls.append((name, trace))
            kind = "end_to_end" if trace == 0 else "per_layer"
            return result_line(kind, value=float(len(self.calls)))

        self.point = perf_report.make_point(
            SPEC, run_workload, lambda: KERNEL_STDOUT, {"seed": 1})

    def test_carries_exactly_the_benchmark_metric_set(self):
        names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        workloads = self.point["workloads"]
        self.assertEqual(set(workloads),
                         {w["name"] for w in SPEC["workloads"]})
        for name, metrics in workloads.items():
            self.assertEqual(set(metrics), names, name)
            for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
                entry = metrics[metric["name"]]
                self.assertEqual(set(entry), {"median", "q1", "q3", "unit"})
                self.assertEqual(entry["unit"], metric["unit"])
                self.assertLessEqual(entry["q1"], entry["median"])
                self.assertLessEqual(entry["median"], entry["q3"])

    def test_runs_each_workload_and_mode_five_times(self):
        expected = [(w["name"], t) for w in SPEC["workloads"]
                    for t in (0, 1) for _ in range(perf_report.REPEATS)]
        self.assertEqual(self.calls, expected)

    def test_kernel_loop_timings(self):
        kernel = self.point["kernel"]
        self.assertEqual(set(kernel), {"event.ns_per_event",
                                       "rq.ns_per_op"})
        self.assertEqual(kernel["rq.ns_per_op"],
                         {"median": 150.25, "q1": 150.25, "q3": 150.25,
                          "unit": "ns"})

    def test_provenance_and_no_retired_sections(self):
        self.assertIsInstance(self.point["host"]["cpus"], int)
        self.assertEqual(self.point["config"], {"seed": 1})
        self.assertEqual(set(self.point),
                         {"git_sha", "date", "host", "config", "workloads",
                          "kernel"})
        text = json.dumps(self.point)
        for retired in ("fig11_slice", "steady_allocs",
                        "alloc_counter_enabled"):
            self.assertNotIn(retired, text)

    def test_rejects_a_result_with_a_missing_metric(self):
        line = json.loads(result_line("end_to_end").splitlines()[-1])
        del line["metrics"]["wall_s"]
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        with self.assertRaises(ValueError):
            perf_report.result_metrics(json.dumps(line), units)

    def test_rejects_an_incorrect_result(self):
        line = json.loads(result_line("end_to_end").splitlines()[-1])
        line["correct"] = False
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        with self.assertRaises(ValueError):
            perf_report.result_metrics(json.dumps(line), units)


if __name__ == "__main__":
    unittest.main()
