"""Genus-closed forms: the finite data that evaluates to any-genus counts.

A closed form is a list of terms (k, i, coeff); its kind and mu fix the
normalization, 1/(mu_1...mu_l) if monotone and 2/(d! mu_1...mu_l) if simple,
and with b = branch_points(mu, g) the value at genus g is

    normalization * sum over terms of coeff * b^{i-1} * k^b.

Values come from one iterator over consecutive genera: each k^b is computed
once, at the starting genus, and carried to the next row by a factor k^2.

Monotone forms come from partial fractions of the factored generating
function (negative-k poles folded into positive k by parity); simple forms
scale the exponential-sum coefficients to integers.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod
from operator import index
from typing import Iterator, NamedTuple

from . import npoint
from .exactarith import partial_fractions, recombine
from .frozen import Frozen
from .partitions import Partition, branch_points

__all__ = [
    "GenusClosedForm",
    "StructureReport",
    "AsymptoticTerm",
    "monotone_closed_form",
    "simple_closed_form",
    "values",
    "evaluate",
    "structure_checks",
    "asymptotics",
    "monotone_leading_coefficient",
]

KIND_MONOTONE = "monotone"
KIND_SIMPLE = "simple"


class GenusClosedForm(Frozen):
    """Terms (k, i, coeff), k desc then i desc; kind and mu fix the normalization."""

    __slots__ = ("kind", "mu", "terms")

    def __init__(self, kind: str, mu: Partition, terms) -> None:
        if kind not in (KIND_MONOTONE, KIND_SIMPLE):
            raise ValueError(f"unknown kind {kind!r}")
        ordered = tuple(
            sorted(
                ((index(k), index(i), Fraction(c)) for k, i, c in terms),
                key=lambda t: (-t[0], -t[1]),
            )
        )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "terms", ordered)

    @property
    def normalization(self) -> Fraction:
        if self.kind == KIND_MONOTONE:
            return Fraction(1, prod(self.mu.parts))
        return Fraction(2, factorial(self.mu.size) * prod(self.mu.parts))

    def coefficient(self, k: int) -> Fraction:
        return next((c for tk, i, c in self.terms if (tk, i) == (k, 1)), Fraction(0))


class StructureReport(NamedTuple):
    """Observed vs expected leading coefficients of a closed form.

    For simple forms the gap flag covers the vanishing window
    (d-1 choose 2) < k < (d choose 2); for monotone forms it covers the
    absence of (d-1, i>=2) and (d-2, i>=2) terms.  The second-coefficient
    fields are None where the top/second statement does not apply
    (monotone forms, and simple forms with d = 2 whose would-be second
    index (d-1 choose 2) = 0 lies outside the stored range k >= 1).
    """

    top_coefficient: Fraction
    expected_top: Fraction
    gap_all_zero: bool
    second_coefficient: Fraction | None
    expected_second: Fraction | None

    @property
    def passed(self) -> bool:
        if self.top_coefficient != self.expected_top or not self.gap_all_zero:
            return False
        return self.second_coefficient == self.expected_second


class AsymptoticTerm(NamedTuple):
    k: int
    i: int
    coeff: Fraction
    leading: bool


def _fold(kind: str, mu: Partition, poles: dict, scale: int) -> GenusClosedForm:
    """Fold the poles D(k, i) at -k into k by hbar -> -hbar parity.

    An exponential e^{k hbar} is the pole (k, 1).  Every b has the parity
    of branch_points(mu, 0), so D(-k, i) = (-1)^b D(k, i); for k > 0 the
    terms are Sum_i C(k,i) b^{i-1} = scale * Sum_i D(k,i) binom(b+i-1, i-1).
    """
    sign = -1 if branch_points(mu, 0) % 2 else 1
    combined: dict[tuple[int, int], Fraction] = {}
    for (k, i), coeff in poles.items():
        if poles.get((-k, i), 0) != sign * coeff:
            raise ArithmeticError("pole data violates hbar -> -hbar parity")
        if k <= 0:
            continue
        # binom(b+i-1, i-1) = prod_{s=1}^{i-1}(b+s)/(i-1)! as a polynomial in
        # b (index = power of b): expand one factor (b + s) at a time.
        basis = [Fraction(scale * coeff, factorial(i - 1))]
        for s in range(1, i):
            basis = [s * a + c for a, c in zip(basis + [0], [0] + basis)]
        for power, c in enumerate(basis):
            combined[k, power + 1] = combined.get((k, power + 1), 0) + c
    terms = tuple((k, i, c) for (k, i), c in combined.items() if c)
    return GenusClosedForm(kind, mu, terms)


def monotone_closed_form(mu: Partition) -> GenusClosedForm:
    """Closed form with mu_1...mu_l * vecH_{g;mu} = sum coeff * b^{i-1} * k^b."""
    generating = npoint.monotone_generating(mu)
    decomposition = partial_fractions(generating)
    if recombine(decomposition) != generating:
        raise ArithmeticError("partial-fraction recombination mismatch")
    return _fold(KIND_MONOTONE, mu, decomposition.terms, 2)


def simple_closed_form(mu: Partition) -> GenusClosedForm:
    """Closed form with H_{g;mu} = 2/(d! mu_1...mu_l) * sum C(k) * k^b."""
    scale = factorial(mu.size) * prod(mu.parts)
    poles = {(k, 1): coeff for k, coeff in npoint.simple_generating(mu).items()}
    form = _fold(KIND_SIMPLE, mu, poles, scale)
    for k, _, c in form.terms:
        if c.denominator != 1:
            raise ArithmeticError(f"non-integer coefficient C({mu};{k}) = {c}")
    return form


def values(form: GenusClosedForm, g: int = 0) -> Iterator[Fraction]:
    """Exact H or vecH at genus g, g+1, g+2, ... (g >= 0), without end.

    The coefficients share one denominator, into which the normalization
    p/q folds once; per pole k the value is a small polynomial in b times
    k^b, and k^b moves to the next genus by k^2.
    """
    b = branch_points(form.mu, g)
    den = lcm(*(c.denominator for _, _, c in form.terms))
    poles: dict[int, list[tuple[int, int]]] = {}
    for k, i, c in form.terms:
        poles.setdefault(k, []).append((i - 1, c.numerator * (den // c.denominator)))
    powers = {k: k**b for k in poles}
    p, q = form.normalization.as_integer_ratio()
    while True:
        total = sum(sum(n * b**e for e, n in ns) * powers[k] for k, ns in poles.items())
        yield Fraction(total * p, den * q)
        for k in powers:
            powers[k] *= k * k
        b += 2


def evaluate(form: GenusClosedForm, g: int) -> Fraction:
    """Exact H_{g;mu} or vecH_{g;mu} at any genus g >= 0."""
    return next(values(form, g))


def monotone_leading_coefficient(d: int) -> Fraction:
    """The genus-leading coefficient 2 (d-1)^{d-2} / (d! (d-2)!)."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    return Fraction(2 * (d - 1) ** (d - 2), factorial(d) * factorial(d - 2))


def structure_checks(form: GenusClosedForm) -> StructureReport:
    """Compare a closed form's leading data against its structure theorem."""
    d = form.mu.size
    if form.kind == KIND_SIMPLE:
        top_k = d * (d - 1) // 2
        second_k = (d - 1) * (d - 2) // 2
        gap = all(not (second_k < k < top_k) for k, _, _ in form.terms)
        if second_k >= 1:
            second = form.coefficient(second_k)
            expected_second = Fraction(-d * form.mu.parts.count(1))
        else:
            second = None
            expected_second = None
        return StructureReport(
            top_coefficient=form.coefficient(top_k),
            expected_top=Fraction(1),
            gap_all_zero=gap,
            second_coefficient=second,
            expected_second=expected_second,
        )
    gap = all(
        not (k in (d - 1, d - 2) and i >= 2) for k, i, _ in form.terms
    )
    return StructureReport(
        top_coefficient=form.coefficient(d - 1),
        expected_top=monotone_leading_coefficient(d),
        gap_all_zero=gap,
        second_coefficient=None,
        expected_second=None,
    )


def asymptotics(form: GenusClosedForm) -> tuple[AsymptoticTerm, ...]:
    """Terms in dominance order; the structure-theorem heads are flagged.

    Simple forms flag every term with k >= (d-1 choose 2) (the two-term
    large-genus expansion); monotone forms flag the k = d-1 terms.  Monotone
    poles stop at k = d-1, so both rules read k >= cutoff.
    """
    d = form.mu.size
    cutoff = (d - 1) * (d - 2) // 2 if form.kind == KIND_SIMPLE else d - 1
    return tuple(AsymptoticTerm(k, i, c, k >= cutoff) for k, i, c in form.terms)
