#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from anywhere (builds through run.py on first use):

    python3 e2ebench/test_e2ebench.py

- A short run of every workload, untraced and traced, prints exactly
  the declared metrics with their units, and every per-layer metric is
  measured (not bypassed) by at least one workload.
- A forced statistics mismatch (--inject-mismatch) fails the run.
- Identical seeds give identical exact counts.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SHORT_SECONDS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DECLARED = {
    "0": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    "1": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}
EXACT_COUNTS = ["ldpc.decoder.avg_iterations", "ldpc.decoder.lane_occupancy",
                "engine.frame_errors", "engine.bit_errors"]


def run(workload, trace, seed="1", extra=()):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", seed,
         "--seconds", SHORT_SECONDS, "--trace", trace, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ShortMode(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        measured = set()
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result(proc)
                    self.assertEqual(
                        set(res), {"correct", "attempted", "failed",
                                   "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    metrics = res["metrics"]
                    self.assertEqual(set(metrics), set(DECLARED[trace]))
                    for name, unit in DECLARED[trace].items():
                        self.assertEqual(metrics[name]["unit"], unit, name)
                        self.assertIsInstance(
                            metrics[name]["value"], (int, float), name)
                    if trace == "0":
                        for name in DECLARED["0"]:
                            self.assertGreater(metrics[name]["value"], 0,
                                               name)
                    for line in proc.stdout.splitlines():
                        fields = line.split()
                        if fields[:1] == ["metric"] and "(bypassed)" not in line:
                            measured.add(fields[1])
        self.assertEqual(set(DECLARED["1"]) - measured, set(),
                         "per-layer metrics no workload measures")


class Gates(unittest.TestCase):
    def test_forced_mismatch_fails(self):
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace, extra=["--inject-mismatch"])
                    self.assertNotEqual(proc.returncode, 0)
                    self.assertIn("correctness gate failed", proc.stderr)

    def test_identical_seeds_identical_counts(self):
        for workload in ("engine_c2_4p2db", "engine_c2_3p0db"):
            with self.subTest(workload=workload):
                a = result(run(workload, "1", seed="7"))["metrics"]
                b = result(run(workload, "1", seed="7"))["metrics"]
                for name in EXACT_COUNTS:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)
                self.assertGreater(a["ldpc.decoder.avg_iterations"]["value"],
                                   0)


if __name__ == "__main__":
    unittest.main()
