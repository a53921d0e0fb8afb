"""Pin the expected result of every request the benchmark can issue.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/pin.py

For each request it stores the exit code and the sha256 of stdout in
reference.json.  An `eval` request is pinned to the value of the closed-form
formula  normalization * sum coeff * b^(i-1) * k^b,  b = 2g + b_offset,
computed here from the request's `closed-form --format json` output, since
the CLI may fail to print so long a value; where the CLI does print it, the
two must agree.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

from run import REFERENCE_PATH, REQUEST_TIMEOUT_S, ROOT, child_env
from workloads import every_request, request_key


def run_cli(argv) -> tuple[int, bytes]:
    done = subprocess.run(
        [sys.executable, "-m", "hurwitz.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=REQUEST_TIMEOUT_S,
    )
    return done.returncode, done.stdout


def formula_value(form: dict, genus: int) -> Fraction:
    """normalization * sum over terms of coeff * b^(i-1) * k^b."""
    b = 2 * genus + form["b_offset"]
    total = sum(Fraction(t["coeff"]) * b ** (t["i"] - 1) * t["k"] ** b for t in form["terms"])
    return Fraction(form["normalization"]) * total


def render(value: Fraction) -> str:
    """The CLI's text rendering of a rational: "p/q", or "p" for an integer."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _option(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def expected_eval(argv) -> bytes:
    """stdout that `eval` (text format) should print, from the formula."""
    if "--format" in argv:
        raise ValueError("only text-format eval requests are pinned by formula")
    kind, mu, genus = _option(argv, "--kind"), _option(argv, "--mu"), int(_option(argv, "--genus"))
    code, document = run_cli(("closed-form", "--kind", kind, "--format", "json", "--mu", mu))
    if code != 0:
        raise RuntimeError(f"closed-form failed for {mu}")
    return (render(formula_value(json.loads(document), genus)) + "\n").encode()


def pin(argv) -> dict:
    code, stdout = run_cli(argv)
    if argv[0] != "eval":
        return {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest()}
    expected = expected_eval(argv)
    if code == 0 and stdout != expected:
        raise RuntimeError(f"CLI and formula disagree: {request_key(argv)}")
    return {"exit": 0, "sha256": hashlib.sha256(expected).hexdigest(), "pinned_by": "formula"}


def main() -> int:
    sys.set_int_max_str_digits(0)
    reference = {}
    for argv in every_request():
        reference[request_key(argv)] = pin(argv)
        print(request_key(argv), reference[request_key(argv)]["exit"], file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
