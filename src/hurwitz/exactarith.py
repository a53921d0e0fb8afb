"""Exact scalars and the two hbar-series representations used downstream.

Two generating objects in the formal variable hbar carry every result:

* ``FactoredRationalFunction`` -- a polynomial numerator over a denominator
  kept as a multiset of factors (1 - k*hbar).  Poles stay visible, so
  reduction and residue extraction never need polynomial factoring.
* ``ExpSum`` -- a finite linear combination of exponentials e^{k*hbar}.

A polynomial (``Poly``) is one tuple of ``int`` coefficients over one
positive integer denominator, stored in lowest terms.  The common-
denominator sum, reduction and partial fractions all work on those
integers; ``fractions.Fraction`` appears only in scalar results
(partial-fraction and exponential-sum coefficients).  Nothing here ever
rounds.  Every dict-like field is a
read-only ``FrozenMap``, so the objects are hashable and cached results
cannot be altered.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Poly",
    "FrozenMap",
    "FactoredRationalFunction",
    "PartialFraction",
    "ExpSum",
    "common_denominator_sum",
    "partial_fractions",
    "recombine",
    "format_rational",
]


class FrozenMap(Mapping):
    """Read-only, hashable mapping; equal to any mapping with the same items."""

    __slots__ = ("_items",)

    def __init__(self, items=()) -> None:
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(frozenset(self._items.items()))

    def __repr__(self) -> str:
        return f"FrozenMap({self._items!r})"


@dataclass(frozen=True)
class Poly:
    """Dense polynomial sum_j coeffs[j] * hbar^j / den with integer coeffs.

    The constructor accepts any rationals and stores lowest terms: den > 0,
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
            values = [Fraction(c) / Fraction(den) for c in cs]
            den = lcm(*(v.denominator for v in values))
            cs = [v.numerator * (den // v.denominator) for v in values]
        while cs and cs[-1] == 0:
            cs.pop()
        g = gcd(den, *cs) if den > 0 else -gcd(den, *cs)
        object.__setattr__(self, "coeffs", tuple(c // g for c in cs))
        object.__setattr__(self, "den", den // g)

    @classmethod
    def constant(cls, value) -> Poly:
        return cls((value,))

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


def _mul_linear(a: list[int], k: int) -> None:
    """Multiply a by (1 - k*hbar) in place; a gains one coefficient."""
    a.append(0)
    for j in range(len(a) - 1, 0, -1):
        a[j] -= k * a[j - 1]


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


def _expand(factors: Mapping[int, int]) -> list[int]:
    """prod_k (1 - k*hbar)^{e_k} as an integer coefficient list."""
    out = [1]
    for k, e in factors.items():
        for _ in range(e):
            _mul_linear(out, k)
    return out


@dataclass(frozen=True)
class FactoredRationalFunction:
    """numerator / prod_k (1 - k*hbar)^{e_k}, kept fully reduced.

    Reduced means the numerator does not vanish at hbar = 1/k for any stored
    factor key k, and k = 0 never appears.
    """

    numerator: Poly = Poly()
    denominator_factors: Mapping[int, int] = field(default_factory=FrozenMap)

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
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator_factors", FrozenMap(sorted(factors.items())))

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def total_pole_order(self) -> int:
        return sum(self.denominator_factors.values())


def common_denominator_sum(terms) -> FactoredRationalFunction:
    """Exact sum of numerator / prod_k (1 - k*hbar)^{e_k} terms.

    ``terms`` yields (numerator Poly, factor multiplicity map) pairs; every
    numerator is brought to the lcm of their denominators, multiplied by
    its deficit factors and added into one integer accumulator.
    """
    terms = [(num, factors) for num, factors in terms if not num.is_zero()]
    common: dict[int, int] = {}
    for _, factors in terms:
        for k, e in factors.items():
            common[k] = max(common.get(k, 0), e)
    den = lcm(*(num.den for num, _ in terms))
    longest = max((len(num.coeffs) for num, _ in terms), default=0)
    total = [0] * (longest + sum(common.values()))
    for num, factors in terms:
        scale = den // num.den
        poly = [c * scale for c in num.coeffs]
        for k, e in common.items():
            for _ in range(e - factors.get(k, 0)):
                _mul_linear(poly, k)
        for j, c in enumerate(poly):
            total[j] += c
    return FactoredRationalFunction(Poly(tuple(total), den), common)


@dataclass(frozen=True)
class PartialFraction:
    """constant + sum over (k, i) of terms[(k, i)] / (1 - k*hbar)^i."""

    constant: Fraction = Fraction(0)
    terms: Mapping[tuple[int, int], Fraction] = field(default_factory=FrozenMap)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constant", Fraction(self.constant))
        cleaned: dict[tuple[int, int], Fraction] = {}
        for (k, i), c in sorted(self.terms.items()):
            c = Fraction(c)
            if k == 0 or i < 1:
                raise ValueError(f"invalid partial-fraction index {(k, i)}")
            if c:
                cleaned[(int(k), int(i))] = c
        object.__setattr__(self, "terms", FrozenMap(cleaned))


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
        [(Poly.constant(pf.constant), {})]
        + [(Poly.constant(c), {k: i}) for (k, i), c in pf.terms.items()]
    )


@dataclass(frozen=True)
class ExpSum:
    """Finite map k -> coefficient of e^{k*hbar}; zero coefficients pruned."""

    terms: Mapping[int, Fraction] = field(default_factory=FrozenMap)

    def __post_init__(self) -> None:
        cleaned: dict[int, Fraction] = {}
        for k in sorted(self.terms):
            c = Fraction(self.terms[k])
            if c:
                cleaned[int(k)] = c
        object.__setattr__(self, "terms", FrozenMap(cleaned))

    def coefficient(self, k: int) -> Fraction:
        return self.terms.get(k, Fraction(0))


def format_rational(value) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
