"""Exact closed-in-genus Hurwitz numbers: engine, oracle, and checks."""

from .affine import monotone_affine, simple_affine
from .closedform import (
    GenusClosedForm,
    StructureReport,
    asymptotics,
    evaluate,
    monotone_closed_form,
    simple_closed_form,
    structure_checks,
)
from .exactarith import (
    FactoredRationalFunction,
    PartialFraction,
    Poly,
    partial_fractions,
)
from .npoint import monotone_generating, simple_generating
from .partitions import Partition, partitions_of

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "partitions_of",
    "Poly",
    "FactoredRationalFunction",
    "PartialFraction",
    "partial_fractions",
    "monotone_affine",
    "simple_affine",
    "monotone_generating",
    "simple_generating",
    "GenusClosedForm",
    "StructureReport",
    "monotone_closed_form",
    "simple_closed_form",
    "evaluate",
    "structure_checks",
    "asymptotics",
    "count_constellations",
    "oracle_hurwitz",
    "__version__",
]


def __getattr__(name: str):
    # The oracle loads on first use: a request that counts nothing skips it.
    if name in ("count_constellations", "oracle_hurwitz"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
