#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 perfbench/test_run.py

1. A short run of every workload (tiny inputs for the plan workloads),
   untraced and traced, emits exactly the metrics BENCHMARK.json names,
   each with its unit, and passes its correctness checks. Every scaled
   time is also printed as measured, next to the host speed.
2. A run whose output is deliberately corrupted (one plan cost, or the
   served cost, off by one) fails its correctness check: exit status 1 and
   "correct": false.
3. A serve_churn run whose second-half latencies are scaled up (--drift)
   fails its stationarity check.
4. A directory holding only BENCHMARK.json and perfbench/ (no program
   sources) makes run.py exit non-zero without printing a result.

Builds into $CARGO_TARGET_DIR (default .bench_build) like run.py does.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, extra=(), cwd=ROOT, script=RUN):
    # serve_churn's stationarity check compares the window's halves, so its
    # window is long enough to give each half some 60 updates (its inputs
    # have one size; see Scale in common.h).
    if workload == "serve_churn":
        size = ["--seconds", "6"]
    else:
        size = ["--seconds", "1", "--small"]
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3",
           "--trace", str(trace)] + size + list(extra)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, workload, trace, specs):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = result_line(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in specs}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_end_to_end_metrics(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = self.check_metrics(workload, 0, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_scaled_times_come_with_raw_values(self):
        # Every time is reported scaled to the reference host; the line
        # before the result carries the host speed and the raw values.
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                proc = run(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                raw_line = proc.stdout.strip().splitlines()[-2]
                prefix = "perfbench raw (host speed "
                self.assertTrue(raw_line.startswith(prefix), raw_line)
                speed = float(raw_line[len(prefix):].split(")")[0])
                self.assertGreater(speed, 0)
                raw = json.loads(raw_line.split("): ", 1)[1])
                self.assertIn("setup_s", raw)
                self.assertIn("op_p50_ms", raw)
                metrics = result_line(proc)["metrics"]
                for name, value in raw.items():
                    self.assertIn(metrics[name]["unit"], ("s", "ms", "1/s"))
                    self.assertGreater(value, 0, name)

    def test_per_layer_metrics(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self.check_metrics(workload, 1, SPEC["per_layer"])


class CorruptionTest(unittest.TestCase):
    def test_corrupted_output_fails_the_check(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                proc = run(workload, 0, ["--corrupt"])
                self.assertEqual(proc.returncode, 1, proc.stderr[-3000:])
                self.assertFalse(result_line(proc)["correct"])
                self.assertIn("check failed", proc.stderr)


class StationarityTest(unittest.TestCase):
    def test_drifting_window_fails_the_check(self):
        proc = run("serve_churn", 0, ["--drift"])
        self.assertEqual(proc.returncode, 1, proc.stderr[-3000:])
        self.assertFalse(result_line(proc)["correct"])
        self.assertIn("window halves disagree", proc.stderr)


class MissingSourcesTest(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_result(self):
        alone = tempfile.mkdtemp(prefix="perfbench-alone-",
                                 dir=os.path.join(ROOT, ".bench_build"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("plan_private", cwd=alone,
                       script=os.path.join(alone, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                self.assertNotIn('"metrics"', line)
        finally:
            shutil.rmtree(alone)


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    unittest.main()
