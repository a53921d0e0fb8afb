"""The benchmark's own tests.

Run from the repository root (about half a minute):

    python3 perfbench/selftest.py

They are not named test_*.py, so the repository's pytest run does not
collect them.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import pin
import run
from workloads import WORKLOADS, draw, every_request, request_key

# Cheap requests that between them reach every counted layer.
SMALL_LIST = [
    tuple(text.split())
    for text in (
        "closed-form --kind monotone --format json --mu 3,3",
        "closed-form --kind simple --mu 2,1,1",
        "table --kind simple --genus-max 5 --format csv --mu 3",
        "verify --kind simple --genus-max 1 --mu 3",
        "oracle --kind monotone --genus 1 --mu 3",
        "checks --kind monotone --d-max 4",
    )
]


class WorkloadTests(unittest.TestCase):
    def test_every_drawable_request_is_pinned(self):
        with open(run.REFERENCE_PATH, encoding="utf-8") as handle:
            reference = json.load(handle)
        for argv in every_request():
            self.assertIn(request_key(argv), reference)

    def test_draws_repeat_and_stay_in_pools(self):
        drawable = {request_key(argv) for argv in every_request()}
        for name, groups in WORKLOADS.items():
            defaults = [argv for group in groups for argv in group.requests(None)]
            self.assertEqual(draw(name, 0), defaults)
            for seed in range(1, 40):
                requests = draw(name, seed)
                self.assertEqual(requests, draw(name, seed))
                self.assertEqual(len(requests), len(defaults))
                self.assertLessEqual({request_key(a) for a in requests}, drawable)

    def test_pools_hold_their_defaults(self):
        for groups in WORKLOADS.values():
            for group in groups:
                self.assertLessEqual(set(group.defaults), set(group.pool))


class FormulaTests(unittest.TestCase):
    def test_formula_matches_cli_eval(self):
        for argv in (
            ("eval", "--kind", "simple", "--genus", "7", "--mu", "4,4,4"),
            ("eval", "--kind", "monotone", "--genus", "3", "--mu", "3,2"),
        ):
            code, stdout = pin.run_cli(argv)
            self.assertEqual(code, 0)
            self.assertEqual(stdout, pin.expected_eval(argv))


class TracedCountTests(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        reference = {}
        for argv in SMALL_LIST:
            code, stdout = pin.run_cli(argv)
            reference[request_key(argv)] = {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest()}
        checker = run.Checker(reference)
        budget = run.Budget(120.0)
        first = run.layer_totals(run.run_pass(SMALL_LIST, True, checker, budget))[1]
        second = run.layer_totals(run.run_pass(SMALL_LIST, True, checker, budget))[1]
        self.assertEqual(checker.failed, 0, "traced output must match untraced output")
        self.assertEqual(first, second)
        for name in run.PER_LAYER_COUNTS:
            self.assertGreater(first[name], 0, name)


class CommandTests(unittest.TestCase):
    def test_result_line_has_every_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "tabulate",
                 "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as bare:
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tabulate", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
