"""The benchmark's tracer still sees every layer boundary it wraps.

``perfbench/tracer.py`` replays one CLI request with the public functions
at layer boundaries wrapped, and reads its counts from their return values
(``Poly.degree``, ``total_pole_order``, term maps).  A refactor that renames
or reshapes one of them breaks ``--trace 1`` runs without failing anything
else, so each case here runs the tracer in a subprocess and pins its counts
and its stdout against the plain CLI.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

CASES = [
    (
        # affine.calls: one per edge of the engine's DP over block states,
        # a block choice with the m of the pair that leaves it
        "closed-form --kind monotone --mu 4,4,2,2 --format json",
        {
            "affine.calls": 620,
            "closedform.terms": 20,
            "exactarith.pf_terms": 40,
            "npoint.numerator_degree": 32,
            "npoint.pole_order": 40,
        },
    ),
    (
        # one part: the single loop cycle (1,) goes through the cycle sum
        "closed-form --kind monotone --mu 5 --format json",
        {
            "affine.calls": 5,
            "closedform.terms": 4,
            "exactarith.pf_terms": 8,
            "npoint.numerator_degree": 4,
            "npoint.pole_order": 8,
        },
    ),
    (
        "closed-form --kind simple --mu 4,2,1 --format json",
        {"affine.calls": 64, "closedform.terms": 8},
    ),
    (
        "oracle --kind simple --mu 3 --genus 0",
        {"oracle.constellations": 6, "oracle.queries": 1},
    ),
    (
        # the sweep builds each closed form through closedform's attributes;
        # its profiles share the DP's block states, so an edge that two
        # profiles reach calls affine once
        "checks --kind simple --d-max 4 --format json",
        {"affine.calls": 80, "closedform.terms": 21},
    ),
    (
        "verify --kind simple --mu 3 --genus-max 1",
        {
            "affine.calls": 3,
            "closedform.evaluations": 2,
            "closedform.terms": 1,
            "oracle.constellations": 60,
            "oracle.queries": 2,
        },
    ),
]


def run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=120,
    )


@pytest.mark.parametrize("request_line, counts", CASES, ids=[c[0] for c in CASES])
def test_tracer_counts_and_stdout(request_line, counts):
    argv = request_line.split()
    traced = run(str(TRACER), *argv)
    plain = run("-m", "hurwitz.cli", *argv)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    last = traced.stderr.splitlines()[-1]
    assert last.startswith("TRACE ")
    report = json.loads(last[len("TRACE "):])
    assert report["counts"] == counts
    assert "cli" in report["spans"]
