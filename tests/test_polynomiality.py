"""Polynomiality anchors for both kinds, genus by genus, with Witten-Kontsevich tops.

In this repo's normalization (no 1/|Aut mu|), with b = 2g - 2 + d + l and
D = 3g - 3 + l, whenever 2g - 2 + l > 0:

* simple (Ekedahl-Lando-Shapiro-Vainshtein): R(mu) = H_g(mu) /
  (b! prod mu_i^mu_i / mu_i!) is a symmetric polynomial in mu_1, ..., mu_l
  of degree D, and its degree-D part is
  sum_{|a| = D} <tau_{a_1} ... tau_{a_l}>_g prod mu_i^{a_i};
* monotone (Goulden-Guay-Paquet-Novak): R(mu) = vecH_g(mu) /
  prod binom(2 mu_i, mu_i) is a symmetric polynomial of degree D; its
  degree-D part, as these tests find it, is 2^D times the same sum.

Values come from evaluating closed forms and <tau> from the DVV recursion
in ``dense_reference``, so nothing here shares machinery with npoint's
internals or with the oracle, and the profiles reach |mu| = 16, past the
engine's other all-genus checks.  The degree-D part is read through mixed
differences: Delta_1^{a_1} ... Delta_l^{a_l} R = prod a_i! * coeff(mu^a)
when |a| = D, since every other monomial of degree <= D is killed.
"""
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import comb, factorial, prod

import pytest
from dense_reference import tau_correlator

from hurwitz.closedform import evaluate
from hurwitz.partitions import Partition

# (g, l) with 2g - 2 + l > 0, l <= 3 and g <= 3
STABLE = [(g, l) for g in range(4) for l in range(1, 4) if 2 * g - 2 + l > 0]
KINDS = ["simple", "monotone"]


@pytest.fixture(scope="module")
def ratio(closed_forms):
    @cache
    def r(kind: str, g: int, parts: tuple[int, ...]) -> Fraction:
        """R(mu) of the module docstring; parts in any order."""
        mu = Partition.canonical(parts)
        value = evaluate(closed_forms[kind](mu), g)
        if kind == "monotone":
            return value / prod(comb(2 * p, p) for p in parts)
        b = 2 * g - 2 + mu.size + mu.length
        return value / (factorial(b) * prod(Fraction(p**p, factorial(p)) for p in parts))

    return r


def top_coefficient(kind: str, g: int, a: tuple[int, ...]) -> Fraction:
    """The coefficient of prod mu_i^{a_i}, |a| = D, in R's degree-D part."""
    scale = 2 ** sum(a) if kind == "monotone" else 1
    return scale * tau_correlator(g, tuple(sorted(a)))


def mixed_difference(f, base: tuple[int, ...], a: tuple[int, ...]) -> Fraction:
    """Forward differences Delta_1^{a_1} ... Delta_l^{a_l} f at base."""
    return sum(
        (-1) ** (sum(a) - sum(c))
        * prod(map(comb, a, c))
        * f(tuple(x + y for x, y in zip(base, c)))
        for c in product(*(range(n + 1) for n in a))
    )


def differences(values: list[Fraction], order: int) -> list[Fraction]:
    for _ in range(order):
        values = [y - x for x, y in zip(values, values[1:])]
    return values


class TestTauCorrelator:
    @pytest.mark.parametrize(
        "g, ks, expected",
        [
            (0, (0, 0, 0), Fraction(1)),
            (1, (1,), Fraction(1, 24)),
            (2, (4,), Fraction(1, 1152)),
            (0, (0, 0, 0, 1), Fraction(1)),
            (1, (1, 1, 1), Fraction(1, 12)),
            (2, (2, 3), Fraction(29, 5760)),
        ],
    )
    def test_pinned(self, g, ks, expected):
        assert tau_correlator(g, ks) == expected

    def test_one_point_closed_form(self):
        # <tau_{3g-2}>_g = 1 / (24^g g!)
        for g in range(1, 6):
            assert tau_correlator(g, (3 * g - 2,)) == Fraction(1, 24**g * factorial(g))


@pytest.mark.parametrize("kind", KINDS)
class TestPolynomiality:
    @pytest.mark.parametrize("g, l", STABLE)
    def test_degree_in_the_first_part(self, ratio, kind, g, l):
        # the D-th differences in mu_1 are D! times the coefficient of
        # mu_1^D, which is <tau_D tau_0^{l-1}>_g (times 2^D): constant and
        # nonzero, so the (D+1)-th differences vanish and degree D - 1 fails
        D = 3 * g - 3 + l
        expected = factorial(D) * top_coefficient(kind, g, (D,) + (0,) * (l - 1))
        assert expected != 0
        for rest in [(), (1,), (2,), (3,), (1, 1), (2, 1)]:
            if len(rest) != l - 1:
                continue
            start = 2 if l == 1 else 1  # the engine starts at degree 2
            values = [ratio(kind, g, (m, *rest)) for m in range(start, start + D + 4)]
            assert differences(values, D) == [expected] * 4, rest
            assert differences(values, D + 1) == [0] * 3, rest

    @pytest.mark.parametrize("g, l", STABLE)
    def test_top_part_is_witten_kontsevich(self, ratio, kind, g, l):
        D = 3 * g - 3 + l
        base = (2,) + (1,) * (l - 1)
        for a in product(range(D + 1), repeat=l):
            if sum(a) == D:
                expected = prod(map(factorial, a)) * top_coefficient(kind, g, a)
                assert mixed_difference(partial(ratio, kind, g), base, a) == expected, a

    def test_one_part_leading_coefficients(self, ratio, kind):
        pinned = {
            "simple": [Fraction(1, 24), Fraction(1, 1152), Fraction(1, 82944)],
            "monotone": [Fraction(1, 12), Fraction(1, 72), Fraction(1, 648)],
        }[kind]
        for g, coeff in zip(range(1, 4), pinned):
            D = 3 * g - 2
            values = [ratio(kind, g, (m,)) for m in range(2, D + 3)]
            assert differences(values, D) == [factorial(D) * coeff]
