"""Exact scalars and the two hbar-series representations used downstream.

Two generating objects in the formal variable hbar carry every result:

* ``FactoredRationalFunction`` -- a polynomial numerator over a denominator
  kept as a multiset of factors (1 - k*hbar).  Poles stay visible, so
  reduction and residue extraction never need polynomial factoring.
* ``ExpSum`` -- a finite linear combination of exponentials e^{k*hbar}.

All coefficients are ``fractions.Fraction``; nothing here ever rounds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Mapping

__all__ = [
    "Poly",
    "FactoredRationalFunction",
    "PartialFraction",
    "ExpSum",
    "common_denominator_sum",
    "rf_mul",
    "partial_fractions",
    "recombine",
    "taylor_coefficients",
    "expsum_add",
    "format_rational",
    "parse_rational",
]


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial; coefficient index = power of hbar.

    Trailing zero coefficients are trimmed, so the zero polynomial is ().
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def constant(cls, value) -> Poly:
        return cls((Fraction(value),))

    @classmethod
    def linear_factor(cls, k: int) -> Poly:
        """The factor 1 - k*hbar."""
        return cls((Fraction(1), Fraction(-k)))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        if self.is_zero() or other.is_zero():
            return Poly()
        if len(other.coeffs) == 1:
            return self.scale(other.coeffs[0])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    def scale(self, value) -> Poly:
        c = Fraction(value)
        if c == 0:
            return Poly()
        return Poly(tuple(c * x for x in self.coeffs))

    def __call__(self, point) -> Fraction:
        x = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute_neg(self) -> Poly:
        """The polynomial p(-hbar)."""
        return Poly(tuple(-c if i % 2 else c for i, c in enumerate(self.coeffs)))

    def divide_linear(self, k: int) -> Poly:
        """Exact quotient by (1 - k*hbar); raises if a remainder is left."""
        if self.is_zero():
            return self
        quotient: list[Fraction] = []
        carry = Fraction(0)
        for j in range(len(self.coeffs) - 1):
            carry = self.coeffs[j] + k * carry
            quotient.append(carry)
        if self.coeffs[-1] != -k * carry:
            raise ArithmeticError("polynomial is not divisible by the linear factor")
        return Poly(tuple(quotient))


def _expand_factors(factors: Mapping[int, int]) -> Poly:
    """Expand prod_k (1 - k*hbar)^{e_k} into a dense polynomial."""
    out = Poly.constant(1)
    for k in sorted(factors):
        lf = Poly.linear_factor(k)
        for _ in range(factors[k]):
            out = out * lf
    return out


@dataclass(frozen=True)
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
            k = int(k)
            e = int(e)
            if k == 0:
                raise ValueError("factor key k = 0 is not a valid pole")
            if e < 0:
                raise ValueError("factor multiplicities must be >= 0")
            if e:
                factors[k] = factors.get(k, 0) + e
        if num.is_zero():
            factors = {}
        else:
            for k in sorted(factors):
                e = factors[k]
                point = Fraction(1, k)
                while e and num(point) == 0:
                    num = num.divide_linear(k)
                    e -= 1
                if e:
                    factors[k] = e
                else:
                    del factors[k]
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator_factors", dict(sorted(factors.items())))

    @classmethod
    def constant(cls, value) -> FactoredRationalFunction:
        return cls(Poly.constant(value))

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def pole_order(self, k: int) -> int:
        return self.denominator_factors.get(k, 0)

    def total_pole_order(self) -> int:
        return sum(self.denominator_factors.values())

    def evaluate(self, point) -> Fraction:
        x = Fraction(point)
        den = Fraction(1)
        for k, e in self.denominator_factors.items():
            factor = 1 - k * x
            if factor == 0:
                raise ZeroDivisionError(f"evaluation at the pole hbar = 1/{k}")
            den *= factor**e
        return self.numerator(x) / den

    def substitute_neg(self) -> FactoredRationalFunction:
        """The rational function f(-hbar); factor keys flip sign."""
        return FactoredRationalFunction(
            self.numerator.substitute_neg(),
            {-k: e for k, e in self.denominator_factors.items()},
        )

    def __add__(self, other: FactoredRationalFunction) -> FactoredRationalFunction:
        return common_denominator_sum(
            (f.numerator, f.denominator_factors) for f in (self, other)
        )

    def __mul__(self, other: FactoredRationalFunction) -> FactoredRationalFunction:
        return rf_mul(self, other)


def common_denominator_sum(terms) -> FactoredRationalFunction:
    """Exact sum of numerator / prod_k (1 - k*hbar)^{e_k} terms.

    ``terms`` yields (numerator Poly, factor multiplicity map) pairs; every
    numerator is lifted to the least common factored denominator.
    """
    terms = [(num, factors) for num, factors in terms if not num.is_zero()]
    common: dict[int, int] = {}
    for _, factors in terms:
        for k, e in factors.items():
            common[k] = max(common.get(k, 0), e)
    total = Poly()
    for num, factors in terms:
        deficit = {k: e - factors.get(k, 0) for k, e in common.items()}
        total = total + _expand_factors(deficit) * num
    return FactoredRationalFunction(total, common)


def rf_mul(
    a: FactoredRationalFunction, b: FactoredRationalFunction
) -> FactoredRationalFunction:
    """Exact product; factor multiplicities add, then the result reduces."""
    factors = dict(a.denominator_factors)
    for k, e in b.denominator_factors.items():
        factors[k] = factors.get(k, 0) + e
    return FactoredRationalFunction(a.numerator * b.numerator, factors)


@dataclass(frozen=True)
class PartialFraction:
    """constant + sum over (k, i) of terms[(k, i)] / (1 - k*hbar)^i."""

    constant: Fraction = Fraction(0)
    terms: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constant", Fraction(self.constant))
        cleaned: dict[tuple[int, int], Fraction] = {}
        for (k, i), c in sorted(self.terms.items()):
            c = Fraction(c)
            if k == 0 or i < 1:
                raise ValueError(f"invalid partial-fraction index {(k, i)}")
            if c:
                cleaned[(int(k), int(i))] = c
        object.__setattr__(self, "terms", cleaned)


def partial_fractions(f: FactoredRationalFunction) -> PartialFraction:
    """Decompose f into a constant plus terms D(k,i) / (1 - k*hbar)^i.

    Coefficients come from successive residue extraction: the top-order
    coefficient at a pole 1/k is the cofactor-evaluated numerator there;
    subtracting it lowers the pole order by one, exactly.
    """
    remaining = dict(f.denominator_factors)
    if f.numerator.degree > sum(remaining.values()):
        raise ValueError("polynomial part beyond constant unsupported")
    num = f.numerator
    terms: dict[tuple[int, int], Fraction] = {}
    for k in sorted(f.denominator_factors):
        point = Fraction(1, k)
        while remaining.get(k):
            order = remaining[k]
            cofactor = _expand_factors({j: e for j, e in remaining.items() if j != k})
            coeff = num(point) / cofactor(point)
            if coeff:
                terms[(k, order)] = coeff
                num = num - cofactor.scale(coeff)
            num = num.divide_linear(k)
            if order == 1:
                del remaining[k]
            else:
                remaining[k] = order - 1
    if num.degree > 0:
        raise ArithmeticError("leftover polynomial part beyond a constant")
    return PartialFraction(num.coefficient(0), terms)


def recombine(pf: PartialFraction) -> FactoredRationalFunction:
    """Reassemble a partial-fraction decomposition over a common denominator."""
    return common_denominator_sum(
        [(Poly.constant(pf.constant), {})]
        + [(Poly.constant(c), {k: i}) for (k, i), c in pf.terms.items()]
    )


def taylor_coefficients(f: FactoredRationalFunction, order: int) -> list[Fraction]:
    """Power-series coefficients of hbar^0 .. hbar^order at hbar = 0."""
    if order < 0:
        raise ValueError("order must be >= 0")
    series = [f.numerator.coefficient(j) for j in range(order + 1)]
    for k, e in sorted(f.denominator_factors.items()):
        for _ in range(e):
            prev = Fraction(0)
            for j in range(order + 1):
                prev = series[j] + k * prev
                series[j] = prev
    return series


@dataclass(frozen=True)
class ExpSum:
    """Finite map k -> coefficient of e^{k*hbar}; zero coefficients pruned."""

    terms: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: dict[int, Fraction] = {}
        for k in sorted(self.terms):
            c = Fraction(self.terms[k])
            if c:
                cleaned[int(k)] = c
        object.__setattr__(self, "terms", cleaned)

    def coefficient(self, k: int) -> Fraction:
        return self.terms.get(k, Fraction(0))

    def substitute_neg(self) -> ExpSum:
        """The sum with hbar -> -hbar, i.e. every key negated."""
        return ExpSum({-k: c for k, c in self.terms.items()})

    def hbar_coefficient(self, power: int) -> Fraction:
        """Coefficient of hbar^power in the series expansion of the sum."""
        if power < 0:
            raise ValueError("power must be >= 0")
        total = sum((c * k**power for k, c in self.terms.items()), Fraction(0))
        return total / factorial(power)

    def __add__(self, other: ExpSum) -> ExpSum:
        return expsum_add(self, other)


def expsum_add(a: ExpSum, b: ExpSum) -> ExpSum:
    out = dict(a.terms)
    for k, c in b.terms.items():
        out[k] = out.get(k, Fraction(0)) + c
    return ExpSum(out)


def format_rational(value) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())

