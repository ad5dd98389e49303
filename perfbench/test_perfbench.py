"""Tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The statistics and trace helpers are checked on fixed inputs; the smoke
test builds the program and runs every workload in both modes for a
fraction of a second; the last test checks that the benchmark refuses to
report from a directory that holds only itself.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402
import run  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Statistics(unittest.TestCase):
    def test_quantile_interpolates_between_ranks(self):
        self.assertEqual(report.quantile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(report.quantile([7], 0.9), 7)
        self.assertAlmostEqual(report.quantile(list(range(101)), 0.99), 99)

    def test_interval_union_merges_overlaps(self):
        self.assertEqual(
            report.interval_union([(20, 25), (0, 10), (5, 15)]), 20)

    def test_self_time_excludes_child_spans(self):
        names = ["cli.round", "cli.compress", "bits.load"]
        # [name, start, end, parent, req, tid]
        spans = [[0, 0, 100, -1, 0, 1], [1, 10, 60, 0, 0, 1],
                 [2, 20, 30, 1, 0, 1], [2, 40, 50, 1, 0, 1]]
        table = report.layer_table(spans, names)
        self.assertEqual(table["cli"]["count"], 2)
        self.assertAlmostEqual(table["cli"]["self_ms"], (50 + 30) / 1e6)
        self.assertAlmostEqual(table["cli"]["busy_ms"], 100 / 1e6)
        self.assertAlmostEqual(table["bits"]["self_ms"], 20 / 1e6)
        self.assertAlmostEqual(table["bits"]["busy_ms"], 20 / 1e6)


class Spec(unittest.TestCase):
    def test_workloads_match_the_harness(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(set(report.TAIL_PCT), set(run.WORKLOADS))

    def test_ledger_lists_every_per_layer_metric_once(self):
        spec = load_spec()
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [row[0] for row in report.LEDGER])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(bounds["setup_s"], 0.25)


class Harness(unittest.TestCase):
    def test_smoke_runs_every_workload_in_both_modes(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
            capture_output=True, text=True, timeout=1500)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout[-3000:] + proc.stderr[-3000:])
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(last, {"smoke": True, "passed": 8, "failed": 0})

    def test_refuses_without_the_sources(self):
        bare = os.path.join(ROOT, report.BUILD_DIR, "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli_bulk",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
