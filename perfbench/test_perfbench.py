#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the trial binary like run.py does (under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench) and checks that the generated schedule is a
pure function of the seed, that BENCHMARK.json and run.py agree on every
metric name and unit and obey the benchmark contract, that the short smoke
mode prints a well-formed result, and that the benchmark refuses to run
outside the source tree.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_contract_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_names_and_units_match_run_py(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        for section, table in (("end_to_end", run.END_TO_END),
                               ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"])
                      for m in self.spec[section]}
            self.assertEqual(listed, table, section)


class TrialBinary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def schedule(self, workload, seed):
        return subprocess.run(
            [self.binary, "schedule", "--workload", workload, "--seed",
             str(seed), "--seconds", "10"],
            capture_output=True, text=True, check=True).stdout

    def test_same_seed_gives_byte_identical_schedule(self):
        for workload in run.WORKLOADS:
            first = self.schedule(workload, 7)
            self.assertRegex(first, r"checksum=[0-9a-f]{16} events=\d+")
            self.assertEqual(first, self.schedule(workload, 7))
            self.assertNotEqual(first, self.schedule(workload, 8))

    def smoke(self, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "engine_zipf_read", "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--smoke"],
            capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json(proc.stdout)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def test_smoke_end_to_end(self):
        metrics = self.smoke(0)
        self.assertEqual(set(metrics), set(run.END_TO_END))
        for name, m in metrics.items():
            self.assertEqual(m["unit"], run.END_TO_END[name][0])
            self.assertGreater(m["value"], 0, name)

    def test_smoke_per_layer(self):
        metrics = self.smoke(1)
        self.assertEqual(set(metrics), set(run.PER_LAYER))


class Isolated(unittest.TestCase):
    def test_refuses_without_the_source_tree(self):
        # Only BENCHMARK.json and perfbench/: nothing to build, so the run
        # must fail without printing a result.
        scratch = os.path.join(run.build_dir(), "isolated")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "engine_zipf_read", "--seed", "1", "--seconds", "1", "--trace",
             "0"], capture_output=True, text=True, cwd=scratch, timeout=180,
            env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, "b")))
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
