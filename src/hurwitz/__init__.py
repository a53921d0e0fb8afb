"""Exact closed-in-genus Hurwitz numbers: engine, oracle, and checks.

The package exports the names of the README's library quick start; the
internals, such as ``Poly`` or ``partial_fractions``, are imported from
their own modules.
"""

from .closedform import (
    asymptotics,
    evaluate,
    monotone_closed_form,
    simple_closed_form,
    structure_checks,
)
from .npoint import monotone_generating, simple_generating
from .partitions import Partition

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "monotone_closed_form",
    "simple_closed_form",
    "evaluate",
    "oracle_hurwitz",
    "monotone_generating",
    "simple_generating",
    "structure_checks",
    "asymptotics",
    "__version__",
]


def __getattr__(name: str):
    # The oracle loads on first use: a request that counts nothing skips it.
    if name == "oracle_hurwitz":
        from .oracle import oracle_hurwitz

        return oracle_hurwitz
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
