#!/usr/bin/env python3
"""Tests of the benchmark's command line against BENCHMARK.json.

    python3 perfbench/test_run.py

Run from the root of a checkout.  Builds the benchmark through run.py
if needed, then runs every workload briefly in both modes and checks
that the last line of output is the result object, that it carries
exactly the metrics BENCHMARK.json names for the mode, with their
units, and that every run passed the correctness gate.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join(os.path.dirname(
    os.path.abspath(__file__)), "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


class BenchmarkCli(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()

    def test_metric_names(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.spec[key]]
        names += [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_every_workload_emits_every_metric(self):
        for workload in self.spec["workloads"]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    out = run("--workload", workload["name"], "--seed", "5",
                              "--seconds", "1", "--trace", trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for value in result["metrics"].values():
                        self.assertTrue(math.isfinite(value["value"]))

    def test_bad_arguments_fail(self):
        self.assertNotEqual(run("--workload", "no-such-workload").returncode,
                            0)
        self.assertNotEqual(run("--workload", "saturated7", "--trace",
                                "2").returncode, 0)


if __name__ == "__main__":
    unittest.main()
