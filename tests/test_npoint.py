from fractions import Fraction

import pytest

from hurwitz.exactarith import (
    ExpSum,
    FactoredRationalFunction,
    Poly,
    taylor_coefficients,
)
from hurwitz.npoint import (
    enumerate_cycles,
    enumerate_edge_assignments,
    monotone_generating,
    simple_generating,
)
from hurwitz.oracle import oracle_hurwitz
from hurwitz.partitions import Partition, partitions_of


def part(*parts):
    return Partition(tuple(parts))


def affine_indices(terms):
    """The 1-based subset of edges carrying affine terms."""
    return {i for i, t in enumerate(terms, start=1) if t[0] == "A"}


def even_pole_factors(simple_ks, double_ks=()):
    factors = {}
    for k in simple_ks:
        factors[k] = 1
        factors[-k] = 1
    for k in double_ks:
        factors[k] = 2
        factors[-k] = 2
    return factors


class TestEnumerateCycles:
    def test_two(self):
        assert enumerate_cycles(2) == [(1, 2)]

    def test_three(self):
        assert enumerate_cycles(3) == [(1, 2, 3), (1, 3, 2)]

    def test_five_count_and_distinctness(self):
        cycles = enumerate_cycles(5)
        assert len(cycles) == 24
        # distinct as cyclic sequences: the visit tuple starting at 1 is canonical
        assert len(set(cycles)) == 24

    def test_short_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cycles(1)

    def test_bad_visit_rejected(self):
        for cycle in ((2, 1), (1, 1), (1, 3)):
            with pytest.raises(ValueError, match="cycle must visit"):
                enumerate_edge_assignments(cycle, part(1, 1))


class TestEdgeAssignments:
    def test_two_ones_complete_list(self):
        # (1,1) admits exactly three balanced assignments; the full-affine one,
        # and the two mirror single-principal ones.  The total is pinned by
        # H_{0;(1,1)} = 1 against the oracle below.
        assignments = enumerate_edge_assignments((1, 2), part(1, 1))
        expected = {
            (("A", 0, 0), ("A", 0, 0)),
            (("P", 0), ("A", 0, 1)),
            (("A", 1, 0), ("P", 0)),
        }
        assert len(assignments) == 3
        assert set(assignments) == expected
        assert oracle_hurwitz(part(1, 1), 0, "simple") == 1
        form = simple_generating(part(1, 1))
        assert 2 * form.hbar_coefficient(2) == 1  # b = 2 at genus 0

    def test_near_cycle_profile_forces_indices(self):
        # mu = (d-1, 1) with both edges affine and n1 = n2 = 0 forces
        # (m1, m2) = (d-2, 0)
        for d in range(3, 7):
            assignments = enumerate_edge_assignments((1, 2), part(d - 1, 1))
            fully_affine = [
                a
                for a in assignments
                if affine_indices(a) == {1, 2} and a[0][1] == 0 and a[1][1] == 0
            ]
            assert len(fully_affine) == 1
            assert (fully_affine[0][0][2], fully_affine[0][1][2]) == (d - 2, 0)

    def test_affine_subset_never_empty(self):
        for mu in (part(2, 1), part(2, 2), part(3, 2, 1)):
            for order in enumerate_cycles(mu.length):
                for a in enumerate_edge_assignments(order, mu):
                    assert affine_indices(a)

    def test_degree_balance(self):
        mu = part(3, 2, 1)
        for order in enumerate_cycles(3):
            for a in enumerate_edge_assignments(order, mu):
                consumed = sum(e[1] + e[2] + 1 for e in a if e[0] == "A")
                assert consumed == mu.size

    def test_single_part_rejected(self):
        with pytest.raises(ValueError):
            enumerate_edge_assignments((1, 2), part(2))


class TestMonotoneGenerating:
    def test_profile_two(self):
        assert monotone_generating(part(2)) == FactoredRationalFunction(
            Poly((0, 1)), even_pole_factors([1])
        )

    def test_profile_five(self):
        assert monotone_generating(part(5)) == FactoredRationalFunction(
            Poly((0, 0, 0, 0, 14)), even_pole_factors([1, 2, 3, 4])
        )

    def test_profile_three_three(self):
        # 60 h^6 (264 h^4 - 65 h^2 + 5) over simple poles at 1/3..1/5 and
        # double poles at 1/1, 1/2 (mirrored)
        numerator = Poly((0,) * 6 + (300, 0, -3900, 0, 15840))
        assert monotone_generating(part(3, 3)) == FactoredRationalFunction(
            numerator, even_pole_factors([3, 4, 5], double_ks=[1, 2])
        )

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be >= 2"):
            monotone_generating(part(1))

    def test_taylor_matches_oracle_for_two(self):
        # coefficient of hbar^{2g+1} is 2 * vecH_{g;(2)} = 1
        series = taylor_coefficients(monotone_generating(part(2)), 7)
        assert series[1::2] == [1, 1, 1, 1]
        assert series[0::2] == [0, 0, 0, 0]


class TestSimpleGenerating:
    def test_profile_three(self):
        assert simple_generating(part(3)) == ExpSum(
            {3: Fraction(1, 18), 0: Fraction(-1, 9), -3: Fraction(1, 18)}
        )

    def test_profile_five(self):
        scale = Fraction(1, 600)
        assert simple_generating(part(5)) == ExpSum(
            {
                10: scale,
                5: -4 * scale,
                0: 6 * scale,
                -5: -4 * scale,
                -10: scale,
            }
        )

    def test_profile_five_two(self):
        base = {21: 1, 14: -6, 11: -21, 9: 35, 6: 70, 4: -84, 1: -105}
        terms = {}
        for k, c in base.items():
            terms[k] = Fraction(c, 50400)
            terms[-k] = Fraction(-c, 50400)  # d + l = 9 is odd
        assert simple_generating(part(5, 2)) == ExpSum(terms)

    def test_all_ones_three(self):
        # (1/3) cosh 3h - 3 cosh h + 8/3; pinned by H_{0;(1,1,1)} = 24 and
        # vanishing below the first admissible power b = 4
        expected = ExpSum(
            {
                3: Fraction(1, 6),
                -3: Fraction(1, 6),
                1: Fraction(-3, 2),
                -1: Fraction(-3, 2),
                0: Fraction(8, 3),
            }
        )
        series = simple_generating(part(1, 1, 1))
        assert series == expected
        assert series.hbar_coefficient(0) == 0
        assert series.hbar_coefficient(2) == 0
        assert 24 * series.hbar_coefficient(4) == oracle_hurwitz(
            part(1, 1, 1), 0, "simple"
        )

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            simple_generating(part(1))


class TestEngineInvariants:
    PROFILES = [mu for d in range(2, 7) for mu in partitions_of(d)]

    def test_series_starts_at_genus_zero(self):
        for mu in self.PROFILES:
            f = monotone_generating(mu)
            start = mu.size + mu.length - 2
            assert all(c == 0 for c in f.numerator.coeffs[:start])

    def test_monotone_parity(self):
        for mu in self.PROFILES:
            f = monotone_generating(mu)
            sign = -1 if (mu.size + mu.length) % 2 else 1
            assert f.substitute_neg() == FactoredRationalFunction(
                f.numerator.scale(sign), dict(f.denominator_factors)
            )

    def test_simple_parity(self):
        for mu in self.PROFILES:
            e = simple_generating(mu)
            sign = -1 if (mu.size + mu.length) % 2 else 1
            flipped = {k: sign * c for k, c in e.substitute_neg().terms.items()}
            assert ExpSum(flipped) == e

    def test_pole_order_bounds(self):
        for mu in self.PROFILES:
            d, l = mu.size, mu.length
            f = monotone_generating(mu)
            for k, order in f.denominator_factors.items():
                assert 1 <= abs(k) <= d - 1
                assert order <= min(l, (d - 1) // abs(k))

    def test_simple_support_bound(self):
        for mu in self.PROFILES:
            top = mu.size * (mu.size - 1) // 2
            assert all(abs(k) <= top for k in simple_generating(mu).terms)

    def test_canonicalized_input_orderings_agree(self):
        assert Partition.canonical([1, 3, 2]) == part(3, 2, 1)
        assert monotone_generating(Partition.canonical([2, 3, 1])) == monotone_generating(
            part(3, 2, 1)
        )
