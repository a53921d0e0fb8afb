"""Run one hurwitz CLI request in this process, with spans at layer boundaries.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/tracer.py closed-form --kind monotone --mu 3,3

The request's stdout is passed through unchanged and the exit code is the
CLI's.  The trace goes to stderr as its last line: ``TRACE`` followed by a
JSON object with the import time, per-span total and self times, and counts.

No hurwitz source is edited.  The public functions that one module calls
across a layer boundary are replaced, in the namespace the caller looks
them up in, by wrappers that record a span (name, start, end, parent) and
read counts from the returned value.  Spans stay in memory and are
summarised when the request ends.
"""
from __future__ import annotations

import json
import sys
import time

TRACE_PREFIX = "TRACE "


class Tracer:
    """Spans and counts of one request."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that each call records a span named name."""

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that each call adds one to the count name, without a span."""

        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per span name: total duration and self time (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list[float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = totals.setdefault(name, [0.0, 0.0])
            entry[0] += end - start
            entry[1] += end - start - inner
        return {
            "spans": {name: {"total_s": t, "self_s": s} for name, (t, s) in totals.items()},
            "counts": self.counts,
        }


def install(tracer: Tracer) -> None:
    """Patch the layer-boundary calls of an imported hurwitz package."""
    from hurwitz import closedform, npoint, oracle

    def on_generating(form) -> None:
        tracer.count("npoint.pole_order", form.total_pole_order())
        tracer.count("npoint.numerator_degree", max(form.numerator.degree, 0))

    def on_partial_fractions(pf) -> None:
        tracer.count("exactarith.pf_terms", len(pf.terms))

    def on_closed_form(form) -> None:
        tracer.count("closedform.terms", len(form.terms))

    def on_evaluate(_value) -> None:
        tracer.count("closedform.evaluations")

    def on_cycles(cycles) -> None:
        tracer.count("npoint.cycles", len(cycles))

    def on_constellations(count: int) -> None:
        tracer.count("oracle.queries")
        tracer.count("oracle.constellations", count)

    # closedform -> npoint; npoint -> npoint.enumerate_cycles and affine.
    npoint.monotone_generating = tracer.span(
        "npoint.monotone_generating", npoint.monotone_generating, on_generating
    )
    npoint.simple_generating = tracer.span(
        "npoint.simple_generating", npoint.simple_generating
    )
    npoint.enumerate_cycles = tracer.span(
        "npoint.enumerate_cycles", npoint.enumerate_cycles, on_cycles
    )
    npoint.monotone_affine = tracer.counter("affine.calls", npoint.monotone_affine)
    npoint.simple_affine = tracer.counter("affine.calls", npoint.simple_affine)
    # closedform -> exactarith.
    closedform.partial_fractions = tracer.span(
        "exactarith.partial_fractions", closedform.partial_fractions, on_partial_fractions
    )
    closedform.recombine = tracer.span("exactarith.recombine", closedform.recombine)
    # cli -> closedform and cli -> oracle; oracle_hurwitz reaches
    # count_constellations through the oracle module, so both paths are seen.
    closedform.monotone_closed_form = tracer.span(
        "closedform.monotone_closed_form", closedform.monotone_closed_form, on_closed_form
    )
    closedform.simple_closed_form = tracer.span(
        "closedform.simple_closed_form", closedform.simple_closed_form, on_closed_form
    )
    closedform.evaluate = tracer.span("closedform.evaluate", closedform.evaluate, on_evaluate)
    closedform.structure_checks = tracer.span(
        "closedform.structure_checks", closedform.structure_checks
    )
    oracle.count_constellations = tracer.span(
        "oracle.count_constellations", oracle.count_constellations, on_constellations
    )


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import hurwitz.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = tracer.span("cli", hurwitz.cli.main)(argv)
    sys.stdout.flush()
    report = tracer.summary()
    report["import_s"] = import_s
    sys.stderr.write(TRACE_PREFIX + json.dumps(report, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
