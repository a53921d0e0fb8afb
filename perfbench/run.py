"""Benchmark the hurwitz command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload monotone-forms --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 1

A workload is a list of `hurwitz` requests (see workloads.py); --seed picks
its profiles.  Every request runs in a fresh `python -m hurwitz.cli`
process, one at a time (a closed loop of one client), so each pays
interpreter start-up, imports and cold caches, as a user does.  The list is
run in passes until --seconds have gone by, and times are medians over the
passes.  Each request's exit code and stdout are checked against the pinned
reference (reference.json).

With --trace 0 the result holds the end-to-end metrics.  With --trace 1,
untraced passes alternate with traced passes, in which every request runs in
a fresh process through tracer.py; the result holds the per-layer times and
counts, and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A request fails on a non-zero exit, a
timeout, or a result that differs from the reference; correct is false only
when a request exits 0 with a wrong result, or the traced counts differ
between passes.  Progress goes to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracer import TRACE_PREFIX  # noqa: E402
from workloads import WORKLOADS, draw, request_key  # noqa: E402

REFERENCE_PATH = os.path.join(HERE, "reference.json")

# A request that runs longer than this counts as failed; with the run budget
# it keeps a regressed oracle from hanging the run past its time limit.
REQUEST_TIMEOUT_S = 30.0
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 11

PER_LAYER_TIMES = {
    # per-layer metric -> (span name, "total_s" or "self_s")
    "exactarith.partial_fractions_s": ("exactarith.partial_fractions", "total_s"),
    "exactarith.recombine_s": ("exactarith.recombine", "total_s"),
    "npoint.monotone_generating.self_s": ("npoint.monotone_generating", "self_s"),
    "npoint.enumerate_cycles_s": ("npoint.enumerate_cycles", "total_s"),
    "npoint.simple_generating.self_s": ("npoint.simple_generating", "self_s"),
    "oracle.count_constellations_s": ("oracle.count_constellations", "total_s"),
    "closedform.evaluate_s": ("closedform.evaluate", "total_s"),
    "cli.self_s": ("cli", "self_s"),
    "closedform.monotone_closed_form.self_s": ("closedform.monotone_closed_form", "self_s"),
    "closedform.simple_closed_form.self_s": ("closedform.simple_closed_form", "self_s"),
    "closedform.structure_checks_s": ("closedform.structure_checks", "total_s"),
}
PER_LAYER_COUNTS = (
    "npoint.cycles",
    "npoint.pole_order",
    "npoint.numerator_degree",
    "exactarith.pf_terms",
    "closedform.terms",
    "closedform.evaluations",
    "oracle.queries",
    "oracle.constellations",
    "affine.calls",
    "cli.output_bytes",
)


@dataclass
class Outcome:
    """One finished (or timed-out) request; stdout is kept only as its digest."""

    key: str
    exit_code: int | None
    digest: str
    output_bytes: int
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float

    @property
    def timed_out(self) -> bool:
        return self.exit_code is None


@dataclass
class Pass:
    """Totals of one run through a workload's request list."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    traces: list[dict] = field(default_factory=list)

    def add(self, outcome: Outcome) -> None:
        self.wall_s += outcome.wall_s
        self.cpu_s += outcome.cpu_s
        self.rss_mb = max(self.rss_mb, outcome.rss_mb)


class Budget:
    """The run's deadline; requests that would start after it are not run."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def request_timeout(self) -> float:
        return min(REQUEST_TIMEOUT_S, self.end - time.perf_counter())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _read_until(proc: subprocess.Popen, deadline: float) -> tuple[str, int, bytes] | None:
    """Read stdout and stderr to their end, or return None at the deadline.

    Stdout is hashed as it arrives rather than held: a forked child's
    ru_maxrss starts from the driver's resident size, so the driver must
    stay smaller than any request.
    """
    digest, size, errors = hashlib.sha256(), 0, []
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        selector.register(proc.stderr, selectors.EVENT_READ)
        while selector.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                return None
            for key, _ in selector.select(left):
                data = os.read(key.fd, 1 << 16)
                if not data:
                    selector.unregister(key.fileobj)
                elif key.fileobj is proc.stdout:
                    digest.update(data)
                    size += len(data)
                else:
                    errors.append(data)
    return digest.hexdigest(), size, b"".join(errors)


def run_process(key: str, command: list[str], budget: Budget) -> Outcome:
    """Run one child to its end (or kill it at its timeout) and reap it with wait4."""
    timeout = budget.request_timeout()
    if timeout <= 0:
        return Outcome(key, None, "", 0, b"run budget exhausted\n", 0.0, 0.0, 0.0)
    start = time.perf_counter()
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        streams = _read_until(proc, start + timeout)
        timed_out = streams is None
        if timed_out:
            proc.kill()
            streams = ("", 0, b"timed out\n")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    # Reaped here, so Popen must not wait for the child again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        key,
        None if timed_out else proc.returncode,
        *streams,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


class Checker:
    """Judges outcomes against the pinned exit codes and stdout digests."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def judge(self, outcome: Outcome) -> None:
        self.attempted += 1
        pinned = self.reference[outcome.key]
        ok = (
            not outcome.timed_out
            and outcome.exit_code == pinned["exit"]
            and outcome.digest == pinned["sha256"]
        )
        if not ok:
            self.failed += 1
            if outcome.exit_code == 0:
                self.wrong += 1
            reason = "timeout" if outcome.timed_out else f"exit {outcome.exit_code}"
            tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"  failed ({reason}): {outcome.key} {' '.join(tail)}", file=sys.stderr)


def _split_trace(outcome: Outcome) -> dict | None:
    """Remove the tracer's last stderr line from the outcome and parse it."""
    lines = outcome.stderr.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith(TRACE_PREFIX):
        return None
    outcome.stderr = "\n".join(lines[:-1]).encode()
    return json.loads(lines[-1][len(TRACE_PREFIX):])


def run_pass(requests, traced: bool, checker: Checker, budget: Budget) -> Pass:
    result = Pass()
    for argv in requests:
        key = request_key(argv)
        if traced:
            command = [sys.executable, os.path.join(HERE, "tracer.py"), *argv]
        else:
            command = [sys.executable, "-m", "hurwitz.cli", *argv]
        outcome = run_process(key, command, budget)
        trace = _split_trace(outcome) if traced else None
        checker.judge(outcome)
        result.add(outcome)
        if trace is not None:
            trace["counts"]["cli.output_bytes"] = outcome.output_bytes
            result.traces.append(trace)
    mode = "traced" if traced else "untraced"
    print(f"  {mode} pass: {result.wall_s:.3f} s wall, {result.cpu_s:.3f} s cpu", file=sys.stderr)
    return result


def measure_setup(budget: Budget) -> float:
    """Median wall time of a cold `python -c "import hurwitz.cli"`."""
    command = [sys.executable, "-c", "import hurwitz.cli"]
    times = []
    # The first import may compile bytecode, which a user pays once only.
    for _ in range(SETUP_REPEATS + 1):
        outcome = run_process("setup", command, budget)
        if outcome.exit_code != 0:
            raise RuntimeError("import hurwitz.cli failed: " + outcome.stderr.decode(errors="replace"))
        times.append(outcome.wall_s)
    return statistics.median(times[1:])


def _keep_going(start: float, rounds: int, seconds: float, budget: Budget) -> bool:
    """Start another round only if it should end within --seconds."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds and budget.request_timeout() > 0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(requests, seconds: float, checker: Checker, budget: Budget) -> dict:
    setup_s = measure_setup(budget)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(requests, False, checker, budget))
        if not _keep_going(start, len(passes), seconds, budget):
            break
    return {
        "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": _metric(statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": _metric(statistics.median(p.rss_mb for p in passes), "MB"),
        "setup_s": _metric(setup_s, "s"),
        "ok_ratio": _metric((checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }


def layer_totals(traced: Pass) -> tuple[dict, dict]:
    """Per-layer times and counts of one traced pass, summed over its requests."""
    times = dict.fromkeys(PER_LAYER_TIMES, 0.0)
    times["cli.import_s"] = 0.0
    counts = dict.fromkeys(PER_LAYER_COUNTS, 0)
    for trace in traced.traces:
        for metric, (span, kind) in PER_LAYER_TIMES.items():
            times[metric] += trace["spans"].get(span, {}).get(kind, 0.0)
        times["cli.import_s"] += trace["import_s"]
        for name, value in trace["counts"].items():
            counts[name] += value
    return times, counts


def per_layer(requests, seconds: float, checker: Checker, budget: Budget) -> tuple[dict, bool]:
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(requests, False, checker, budget))
        traced.append(run_pass(requests, True, checker, budget))
        if not _keep_going(start, len(traced), seconds, budget):
            break
    totals = [layer_totals(p) for p in traced]
    counts = totals[0][1]
    steady = all(c == counts for _, c in totals)
    if not steady:
        print("  traced counts differ between passes", file=sys.stderr)
    metrics = {
        name: _metric(statistics.median(t[name] for t, _ in totals), "s") for name in totals[0][0]
    }
    metrics["trace_overhead_s"] = _metric(
        statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain),
        "s",
    )
    for name, value in counts.items():
        metrics[name] = _metric(value, "count")
    return metrics, steady


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        checker = Checker(json.load(handle))
    requests = draw(name, seed)
    budget = Budget(RUN_BUDGET_S)
    mode = "traced" if trace else "untraced"
    print(f"{name} seed {seed} ({mode}): {len(requests)} requests", file=sys.stderr)
    if trace:
        metrics, steady = per_layer(requests, seconds, checker, budget)
    else:
        metrics, steady = end_to_end(requests, seconds, checker, budget), True
    return {
        "correct": checker.wrong == 0 and steady,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hurwitz", "cli.py")):
        print(f"error: hurwitz sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace)
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
