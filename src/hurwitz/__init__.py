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
from .npoint import (
    enumerate_cycles,
    monotone_generating,
    simple_generating,
)
from .oracle import count_constellations, oracle_hurwitz
from .partitions import Partition, conjugate, hook_product, partitions_of

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "partitions_of",
    "conjugate",
    "hook_product",
    "Poly",
    "FactoredRationalFunction",
    "PartialFraction",
    "partial_fractions",
    "monotone_affine",
    "simple_affine",
    "enumerate_cycles",
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
