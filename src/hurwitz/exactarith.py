"""Exact scalars and the factored rational functions used downstream.

The engine emits both generating objects in the formal variable hbar as
scalar terms: a ``Fraction`` times a pole multiset or one exponential.

* ``FactoredRationalFunction`` -- a polynomial numerator over a denominator
  kept as a multiset of factors (1 - k*hbar).  Poles stay visible, so
  reduction and residue extraction never need polynomial factoring.
  ``common_denominator_sum`` folds (c, pole multiset) terms into one.
* The exponential sum sum_k c_k e^{k*hbar} needs no arithmetic: it is a
  plain dict from k to its nonzero ``Fraction`` coefficient.

``Poly`` takes ints only: one tuple of coefficients over one positive
denominator, in lowest terms.  The common-denominator sum, reduction and
partial fractions all work on those integers; ``Fraction`` appears only
in scalars.  Nothing here ever rounds.  Each object is built once per
request and read once, so the map fields are plain dicts, in sorted key
order; only ``Poly`` is frozen and hashable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import index

__all__ = [
    "Poly",
    "FactoredRationalFunction",
    "PartialFraction",
    "common_denominator_sum",
    "partial_fractions",
    "recombine",
    "format_rational",
]


@dataclass(frozen=True)
class Poly:
    """Dense polynomial sum_j coeffs[j] * hbar^j / den with integer coeffs.

    The constructor takes ints only and stores lowest terms: den > 0,
    gcd(den, *coeffs) == 1 and no trailing zero coefficient, so equal
    polynomials have equal fields.  The zero polynomial is ((), 1).
    """

    coeffs: tuple[int, ...] = ()
    den: int = 1

    def __post_init__(self) -> None:
        cs, den = list(self.coeffs), self.den
        if den == 0:
            raise ZeroDivisionError("polynomial denominator is zero")
        if not all(type(c) is int for c in (den, *cs)):
            raise TypeError("Poly coefficients and denominator must be int")
        while cs and cs[-1] == 0:
            cs.pop()
        g = gcd(den, *cs) if den > 0 else -gcd(den, *cs)
        object.__setattr__(self, "coeffs", tuple(c // g for c in cs))
        object.__setattr__(self, "den", den // g)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs


# Integer core: a list a of ints (index = power of hbar), read together with
# the positive denominator of the Poly it came from.


def _horner_at_inverse(a: list[int], k: int) -> int:
    """sum_j a[j] k^(n-j) with n = len(a) - 1, i.e. k^n * a(1/k)."""
    acc = 0
    for c in a:
        acc = acc * k + c
    return acc


def _divide_linear(a: list[int], k: int) -> list[int]:
    """Exact quotient by (1 - k*hbar); raises if a remainder is left."""
    if not a:
        return a
    quotient: list[int] = []
    carry = 0
    for c in a[:-1]:
        carry = c + k * carry
        quotient.append(carry)
    if a[-1] != -k * carry:
        raise ArithmeticError("polynomial is not divisible by the linear factor")
    return quotient


def _expand(factors: dict[int, int]) -> list[int]:
    """prod_k (1 - k*hbar)^{e_k} as an integer coefficient list."""
    out = [1]
    for k, e in factors.items():
        for _ in range(e):  # times (1 - k*hbar), in place
            out.append(0)
            for j in range(len(out) - 1, 0, -1):
                out[j] -= k * out[j - 1]
    return out


@dataclass
class FactoredRationalFunction:
    """numerator / prod_k (1 - k*hbar)^{e_k}, kept fully reduced.

    Reduced means the numerator does not vanish at hbar = 1/k for any stored
    factor key k, and k = 0 never appears.
    """

    numerator: Poly = Poly()
    denominator_factors: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        num = self.numerator
        factors: dict[int, int] = {}
        for k, e in self.denominator_factors.items():
            k = index(k)
            e = index(e)
            if k == 0:
                raise ValueError("factor key k = 0 is not a valid pole")
            if e < 0:
                raise ValueError("factor multiplicities must be >= 0")
            if e:
                factors[k] = factors.get(k, 0) + e
        if num.is_zero():
            factors = {}
        else:
            a = list(num.coeffs)
            for k in sorted(factors):
                e = factors[k]
                while e and _horner_at_inverse(a, k) == 0:
                    a = _divide_linear(a, k)
                    e -= 1
                if e:
                    factors[k] = e
                else:
                    del factors[k]
            if len(a) < len(num.coeffs):
                num = Poly(tuple(a), num.den)
        self.numerator = num
        self.denominator_factors = dict(sorted(factors.items()))

    def total_pole_order(self) -> int:
        return sum(self.denominator_factors.values())


def common_denominator_sum(terms) -> FactoredRationalFunction:
    """Exact sum of c / prod_k (1 - k*hbar)^{e_k} terms.

    ``terms`` yields (rational c, factor multiplicity map) pairs; every c
    is brought to the lcm of their denominators, multiplied by the expansion
    of its deficit factors and added into one integer accumulator.
    """
    terms = [(c, factors) for c, factors in terms if c]
    common: dict[int, int] = {}
    for _, factors in terms:
        for k, e in factors.items():
            common[k] = max(common.get(k, 0), e)
    den = lcm(*(c.denominator for c, _ in terms))
    total = [0] * (1 + sum(common.values()))
    for c, factors in terms:
        scale = c.numerator * (den // c.denominator)
        deficit = _expand({k: e - factors.get(k, 0) for k, e in common.items()})
        for j, a in enumerate(deficit):
            total[j] += scale * a
    return FactoredRationalFunction(Poly(tuple(total), den), common)


@dataclass
class PartialFraction:
    """constant + sum over (k, i) of terms[(k, i)] / (1 - k*hbar)^i."""

    constant: Fraction = Fraction(0)
    terms: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.constant = Fraction(self.constant)
        cleaned: dict[tuple[int, int], Fraction] = {}
        for (k, i), c in sorted(self.terms.items()):
            k, i, c = index(k), index(i), Fraction(c)
            if k == 0 or i < 1:
                raise ValueError(f"invalid partial-fraction index {(k, i)}")
            if c:
                cleaned[(k, i)] = c
        self.terms = cleaned


def partial_fractions(f: FactoredRationalFunction) -> PartialFraction:
    """Decompose f into a constant plus terms D(k,i) / (1 - k*hbar)^i.

    Coefficients come from successive residue extraction: the top-order
    coefficient at a pole 1/k is the numerator over the cofactor (the
    remaining poles), both evaluated there; subtracting it lowers the pole
    order by one, exactly.  The numerator is an integer list over a common
    denominator, divided by their gcd after every step.
    """
    remaining = dict(f.denominator_factors)
    if f.numerator.degree > sum(remaining.values()):
        raise ValueError("polynomial part beyond constant unsupported")
    a, den = list(f.numerator.coeffs), f.numerator.den
    terms: dict[tuple[int, int], Fraction] = {}
    for k in sorted(f.denominator_factors):
        order = remaining.pop(k)
        cofactor = _expand(remaining)
        # cofactor(1/k) = at_cofactor / k^m and a(1/k) = at_num / k^(len(a)-1)
        at_cofactor = _horner_at_inverse(cofactor, k)
        m = len(cofactor) - 1
        for i in range(order, 0, -1):
            at_num = _horner_at_inverse(a, k)
            if at_num:
                coeff = Fraction(at_num, den * at_cofactor) * Fraction(k) ** (m - len(a) + 1)
                terms[(k, i)] = coeff
                p, q = coeff.numerator, coeff.denominator
                a = [c * q for c in a] + [0] * (len(cofactor) - len(a))
                pd = p * den
                for j, c in enumerate(cofactor):
                    a[j] -= pd * c
                den *= q
            a = _divide_linear(a, k)
            g = gcd(den, *a)
            a = [c // g for c in a]
            den //= g
    if any(a[1:]):
        raise ArithmeticError("leftover polynomial part beyond a constant")
    return PartialFraction(Fraction(a[0], den) if a else Fraction(0), terms)


def recombine(pf: PartialFraction) -> FactoredRationalFunction:
    """Reassemble a partial-fraction decomposition over a common denominator."""
    return common_denominator_sum(
        [(pf.constant, {})] + [(c, {k: i}) for (k, i), c in pf.terms.items()]
    )


def format_rational(value) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
