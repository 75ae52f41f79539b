#!/usr/bin/env python3
"""Smoke test of the repository benchmark at its smallest inputs.

Run from the repository root:

    python3 perfbench/test_perfbench.py

For every workload in BENCHMARK.json it runs perfbench/run.py with
--quick: twice untraced with one seed and once traced. It checks the
result line's shape, that every end-to-end metric (untraced) and every
per-layer metric (traced) prints with its unit, that no op failed, and
that the model digest is the same across the two untraced runs and
between the traced and untraced phases. It also checks that the
benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-2])["perfbench_report"],
            json.loads(lines[-1]))


class PerfbenchSmoke(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload(self):
        for w in BENCH["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                first, second, traced = (run(name, 0), run(name, 0),
                                         run(name, 1))
                for proc in (first, second, traced):
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                rep0, res0 = parse(first)
                rep1, _ = parse(second)
                rep2, res2 = parse(traced)
                self.check_metrics(res0, BENCH["end_to_end"])
                self.check_metrics(res2, BENCH["per_layer"])
                self.assertEqual(rep0["failures"], [])
                self.assertEqual(rep0["model_digest"], rep1["model_digest"])
                self.assertEqual(rep2["model_digest"], rep0["model_digest"])
                self.assertEqual(rep2["model_digest_traced"],
                                 rep0["model_digest"])
                self.assertEqual(
                    res2["metrics"]["trace.dropped_spans"]["value"], 0)
                for key in ("nproc", "pool_threads", "build_type",
                            "compiler", "git_revision", "coalesce_model"):
                    self.assertIn(key, rep0["machine"])
                self.assertEqual(rep0["seed"], SEED)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            proc = run(BENCH["workloads"][0]["name"], 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
