import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from hurwitz.exactarith import (
    ExpSum,
    FactoredRationalFunction,
    PartialFraction,
    Poly,
    expsum_add,
    format_rational,
    parse_rational,
    partial_fractions,
    recombine,
    rf_mul,
    taylor_coefficients,
)


def simple_pole(k, coeff=1):
    return FactoredRationalFunction(Poly.constant(coeff), {k: 1})


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
        assert Poly((0, 0)).is_zero()

    def test_degree(self):
        assert Poly().degree == -1
        assert Poly((1, 0, 3)).degree == 2

    def test_arithmetic(self):
        p = Poly((1, 1))
        q = Poly((1, -1))
        assert p * q == Poly((1, 0, -1))
        assert p + q == Poly((2,))
        assert p - p == Poly()

    def test_eval(self):
        p = Poly((1, 2, 3))
        assert p(Fraction(1, 2)) == 1 + 1 + Fraction(3, 4)

    def test_substitute_neg(self):
        p = Poly((1, 2, 3, 4))
        assert p.substitute_neg() == Poly((1, -2, 3, -4))

    def test_divide_linear(self):
        product = Poly((5, -1)) * Poly.linear_factor(3)
        assert product.divide_linear(3) == Poly((5, -1))

    def test_divide_linear_remainder_raises(self):
        with pytest.raises(ArithmeticError):
            Poly((1, 1)).divide_linear(2)


class TestFactoredRationalFunction:
    def test_zero_key_rejected(self):
        with pytest.raises(ValueError):
            FactoredRationalFunction(Poly.constant(1), {0: 1})

    def test_reduction(self):
        # (1 - 2*hbar) / (1 - 2*hbar)^2 -> 1 / (1 - 2*hbar)
        f = FactoredRationalFunction(Poly.linear_factor(2), {2: 2})
        assert f == simple_pole(2)

    def test_zero_numerator_clears_factors(self):
        f = FactoredRationalFunction(Poly(), {3: 2})
        assert f.is_zero()
        assert f.denominator_factors == {}

    def test_add_identity(self):
        f = simple_pole(1)
        assert f + FactoredRationalFunction.constant(0) == f

    def test_add_symmetric_pair(self):
        total = simple_pole(1) + simple_pole(-1)
        assert total == FactoredRationalFunction(Poly.constant(2), {1: 1, -1: 1})

    def test_add_with_cancellation(self):
        # 1/(1-2h) - 1/(1-2h)^2 = -2h/(1-2h)^2
        a = simple_pole(2)
        b = FactoredRationalFunction(Poly.constant(-1), {2: 2})
        assert a + b == FactoredRationalFunction(Poly((0, -2)), {2: 2})

    def test_mul_identity(self):
        f = FactoredRationalFunction(Poly((1, 3)), {1: 1, -2: 2})
        assert rf_mul(f, FactoredRationalFunction.constant(1)) == f

    def test_mul_multiplicity(self):
        assert rf_mul(simple_pole(1), simple_pole(1)) == FactoredRationalFunction(
            Poly.constant(1), {1: 2}
        )

    def test_mul_cancellation(self):
        # (1-h) * 1/(1-h)^2 = 1/(1-h), checked at hbar = 1/2 as well
        a = FactoredRationalFunction(Poly.linear_factor(1))
        b = FactoredRationalFunction(Poly.constant(1), {1: 2})
        product = rf_mul(a, b)
        assert product == simple_pole(1)
        assert product.evaluate(Fraction(1, 2)) == 2

    def test_evaluate_at_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            simple_pole(2).evaluate(Fraction(1, 2))

    def test_substitute_neg(self):
        f = FactoredRationalFunction(Poly((0, 1)), {1: 1, -1: 1})
        assert f.substitute_neg() == FactoredRationalFunction(Poly((0, -1)), {1: 1, -1: 1})


class TestPartialFractions:
    def test_two_simple_poles(self):
        f = FactoredRationalFunction(Poly.constant(1), {1: 1, -1: 1})
        pf = partial_fractions(f)
        assert pf.constant == 0
        assert pf.terms == {(1, 1): Fraction(1, 2), (-1, 1): Fraction(1, 2)}

    def test_one_point_profile_five(self):
        # 14 hbar^4 / prod_{i=1}^{4} (1 - i^2 hbar^2)
        f = FactoredRationalFunction(
            Poly((0, 0, 0, 0, 14)), {k: 1 for k in (1, -1, 2, -2, 3, -3, 4, -4)}
        )
        pf = partial_fractions(f)
        expected = {
            (4, 1): Fraction(4, 45),
            (3, 1): Fraction(-9, 40),
            (2, 1): Fraction(7, 45),
            (1, 1): Fraction(-7, 360),
        }
        for (k, i), coeff in expected.items():
            assert pf.terms[(k, i)] == coeff
            assert pf.terms[(-k, i)] == coeff  # even profile: mirror equality
        assert pf.constant == 0

    def test_double_pole(self):
        # (5 - 3h)/(1-2h)^2 = (7/2)/(1-2h)^2 + (3/2)/(1-2h); expansion checked
        # against Taylor coefficients to order 3 below
        f = FactoredRationalFunction(Poly((5, -3)), {2: 2})
        pf = partial_fractions(f)
        assert pf.constant == 0
        assert pf.terms == {(2, 2): Fraction(7, 2), (2, 1): Fraction(3, 2)}
        series = taylor_coefficients(f, 3)
        for j, coeff in enumerate(series):
            direct = Fraction(7, 2) * comb(j + 1, 1) * 2**j + Fraction(3, 2) * 2**j
            assert coeff == direct

    def test_improper_rejected(self):
        f = FactoredRationalFunction(Poly((0, 0, 1)), {1: 1})
        with pytest.raises(ValueError, match="polynomial part beyond constant"):
            partial_fractions(f)

    def test_constant_part_allowed(self):
        # h/(1-h) = -1 + 1/(1-h)
        pf = partial_fractions(FactoredRationalFunction(Poly((0, 1)), {1: 1}))
        assert pf.constant == -1
        assert pf.terms == {(1, 1): Fraction(1)}

    def test_invalid_term_indices_rejected(self):
        with pytest.raises(ValueError):
            PartialFraction(0, {(0, 1): Fraction(1)})


class TestTaylor:
    def test_geometric(self):
        assert taylor_coefficients(simple_pole(3), 3) == [1, 3, 9, 27]

    def test_derivative_of_geometric(self):
        f = FactoredRationalFunction(Poly.constant(1), {1: 2})
        assert taylor_coefficients(f, 3) == [1, 2, 3, 4]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            taylor_coefficients(simple_pole(1), -1)


class TestExpSum:
    def test_zero_pruning(self):
        total = expsum_add(ExpSum({1: Fraction(1, 2)}), ExpSum({1: Fraction(-1, 2)}))
        assert total == ExpSum()

    def test_hbar_coefficient(self):
        e = ExpSum({2: Fraction(1), -2: Fraction(1)})
        assert e.hbar_coefficient(0) == 2
        assert e.hbar_coefficient(1) == 0
        assert e.hbar_coefficient(2) == 4  # (2^2 + 2^2)/2!

    def test_substitute_neg(self):
        e = ExpSum({3: Fraction(1), -1: Fraction(2)})
        assert e.substitute_neg() == ExpSum({-3: Fraction(1), 1: Fraction(2)})


def random_rf(rng):
    keys = rng.sample([k for k in range(-6, 7) if k != 0], rng.randint(1, 4))
    factors = {k: rng.randint(1, 3) for k in keys}
    degree = rng.randint(0, sum(factors.values()))
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = Fraction(1)
    return FactoredRationalFunction(Poly(tuple(coeffs)), factors)


class TestRandomCorpus:
    """Spec-pinned random corpus: 200 factored rational functions."""

    def corpus(self):
        rng = random.Random(91)
        return [random_rf(rng) for _ in range(200)]

    def test_recombination_identity(self):
        for f in self.corpus():
            assert recombine(partial_fractions(f)) == f

    def test_taylor_matches_termwise_series(self):
        order = 12
        for f in self.corpus():
            pf = partial_fractions(f)
            series = taylor_coefficients(f, order)
            for j in range(order + 1):
                direct = Fraction(0) if j else pf.constant
                for (k, i), coeff in pf.terms.items():
                    direct += coeff * comb(j + i - 1, i - 1) * k**j
                assert series[j] == direct

    def test_operations_agree_with_evaluation(self):
        rng = random.Random(17)
        fs = self.corpus()[:40]
        points = [Fraction(rng.randint(1, 30), 211) for _ in range(5)]
        for a, b in zip(fs, fs[1:]):
            for x in points:
                assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
                assert rf_mul(a, b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


@given(
    st.integers(min_value=-6, max_value=6).filter(lambda k: k != 0),
    st.integers(min_value=-6, max_value=6).filter(lambda k: k != 0),
    st.fractions(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5),
)
def test_add_commutes_and_evaluates(k1, k2, c1, c2):
    a = FactoredRationalFunction(Poly.constant(c1), {k1: 1})
    b = FactoredRationalFunction(Poly.constant(c2), {k2: 1})
    assert a + b == b + a
    x = Fraction(1, 101)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


class TestRationalStrings:
    def test_integer_renders_bare(self):
        assert format_rational(Fraction(7)) == "7"

    def test_fraction_renders_with_slash(self):
        assert format_rational(Fraction(-7, 180)) == "-7/180"

    def test_round_trip(self):
        for text in ("0", "25", "-4", "1/2", "-1663/2160"):
            assert format_rational(parse_rational(text)) == text
