"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` (PG(3,2) and a 50-value sieve window)
and checks that each run emits exactly the metrics BENCHMARK.json names,
with their units; that a planted wrong expectation is counted as a failed
operation; and that the harness refuses to run, printing no result, when
the checkout holds only BENCHMARK.json and the benchmark directory.
"""

from __future__ import annotations

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
WORKLOADS = ("decide-cold", "verify-batch", "sieve-sweep", "enumerate-cache")


def bench(*extra, run=RUN, cwd=ROOT):
    return subprocess.run(
        [sys.executable, run, "--seed", "7", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        cls.units = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        names = [w["name"] for w in spec["workloads"]]
        if sorted(names) != sorted(WORKLOADS):
            raise AssertionError(f"BENCHMARK.json workloads {names}")

    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    res = result(bench("--workload", workload, "--trace",
                                       str(trace), "--tiny"))
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, self.units[trace])
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        self.assertEqual(
                            res["metrics"]["correct_frac"]["value"], 1.0)

    def test_planted_wrong_expectation_is_a_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result(bench("--workload", workload, "--trace", "0",
                                   "--tiny", "--plant"))
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertLess(res["metrics"]["correct_frac"]["value"], 1.0)

    def test_refuses_without_the_program(self):
        bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(
            ROOT, ".perfbench"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "sieve-sweep", "--trace", "0",
                         run=os.path.join(bare, "perfbench", "run.py"),
                         cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    unittest.main()
