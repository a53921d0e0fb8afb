import hashlib
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial

import pytest

from hurwitz import npoint
from hurwitz.exactarith import FactoredRationalFunction, Poly
from hurwitz.npoint import (
    _block_weights,
    _weighted_pair_sums,
    enumerate_cycles,
    monotone_generating,
    simple_generating,
)
from hurwitz.oracle import oracle_hurwitz
from hurwitz.partitions import Partition, partitions_of

from dense_reference import (
    _cycle_classes,
    _signature_summaries,
    as_pair,
    edge_sequence,
    ref_block_weight,
    ref_cycle_classes,
    ref_flip,
    ref_generating,
    ref_taylor,
    ref_weighted_pair_sums,
)


def part(*parts):
    return Partition(tuple(parts))


def summaries(cycle, mu):
    """Sorted affine pairs -> signed count of one cycle's balanced assignments."""
    return _signature_summaries(*edge_sequence(cycle, mu.parts))


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

    def test_one_part_is_the_loop(self):
        assert enumerate_cycles(1) == [(1,)]


class TestCycleClasses:
    def test_equals_the_listing(self):
        # every cycle of each profile, listed and rotated, against the
        # label-insertion recurrence
        checked = 0
        for d in range(1, 10):
            for mu in partitions_of(d):
                assert _cycle_classes(mu.parts) == ref_cycle_classes(mu.parts), mu
                checked += 1
        assert checked == 96

    def test_counts_sum_to_every_cycle(self):
        for l in range(1, 13):
            for parts in ((1,) * l, (2,) + (1,) * (l - 1)):
                assert sum(_cycle_classes(parts).values()) == factorial(l - 1)


class TestSignatureSummaries:
    def test_two_ones_complete_summary(self):
        # (1,1) admits exactly three balanced assignments: the full-affine one,
        # and two mirror single-principal ones; a principal edge running
        # 2 -> 1 carries sign -1, one running 1 -> 2 sign +1.  The total is
        # pinned by H_{0;(1,1)} = 1 against the oracle below.
        assert summaries((1, 2), part(1, 1)) == {
            ((0, 0), (0, 0)): 1,
            ((0, 1),): -1,
            ((1, 0),): 1,
        }
        assert oracle_hurwitz(part(1, 1), 0, "simple") == 1
        # b! times the hbar^b coefficient, at b = 2 (genus 0)
        assert sum(c * k**2 for k, c in simple_generating(part(1, 1)).items()) == 1

    def test_near_cycle_profile_forces_indices(self):
        # mu = (d-1, 1) with both edges affine and n1 = n2 = 0 forces
        # {m1, m2} = {d-2, 0}
        for d in range(3, 7):
            fully_affine = [
                (key, count)
                for key, count in summaries((1, 2), part(d - 1, 1)).items()
                if len(key) == 2 and all(n == 0 for n, _ in key)
            ]
            assert fully_affine == [(((0, 0), (0, d - 2)), 1)]

    def test_affine_pairs_never_empty(self):
        for mu in (part(2, 1), part(2, 2), part(3, 2, 1)):
            for cycle in enumerate_cycles(mu.length):
                assert all(pairs for pairs in summaries(cycle, mu))

    def test_rotations_share_one_summary(self):
        # the reference walk counts each edge sequence under its least
        # rotation, which is sound only if every rotation sums alike; many
        # cycles share an edge sequence, so each is summarized once here
        summary = cache(_signature_summaries)
        checked = 0
        for d in range(1, 8):
            for mu in partitions_of(d):
                for cycle in enumerate_cycles(mu.length):
                    ascending, heads = edge_sequence(cycle, mu.parts)
                    expected = summary(ascending, heads)
                    for r in range(mu.length):
                        rotated = (ascending[r:] + ascending[:r], heads[r:] + heads[:r])
                        assert summary(*rotated) == expected
                        checked += 1
        assert checked == 7225


def pair_sums_digest(pair_sums):
    """sha256 over every partition with |mu| <= 9 of its sorted pair sums.

    Values are rendered with str so that Fraction(3) and 3 read alike.
    """
    lines = []
    for d in range(1, 10):
        for mu in partitions_of(d):
            items = sorted(pair_sums(mu).items())
            lines.append(f"{mu.parts} {[(pairs, str(v)) for pairs, v in items]}")
    assert len(lines) == 96
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@cache
def block_types() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (values, t) of a nonempty block of a profile with |mu| <= 12."""
    types = set()
    for d in range(1, 13):
        for mu in partitions_of(d):
            values = tuple(sorted(set(mu.parts), reverse=True))
            counts = [mu.parts.count(v) for v in values]
            types.update(
                (values, t) for t in product(*(range(c + 1) for c in counts)) if any(t)
            )
    return sorted(types)


def block_size(values, t):
    return sum(v * k for v, k in zip(values, t))


class TestBlockWeight:
    def test_one_part(self):
        # a lone part p: no labels before the least, so 0 <= m < p balances
        for p in range(1, 7):
            assert _block_weights((p,), (1,)) == (1,) * p + (0,)

    def test_run_of_ones(self):
        # k ones: exactly m of the other k - 1 labels come first, sign (-1)^m
        for k in range(1, 8):
            expected = [(-1) ** m * comb(k - 1, m) for m in range(k)] + [0]
            assert _block_weights((1,), (k,)) == tuple(expected)

    def test_top_part_leads_with_several_values(self):
        # (3, 1): the 3 is the least label; the 1 after it gives +1 at
        # m = 0, 1, 2 and before it -1 at m = 1, 2, 3
        assert _block_weights((3, 1), (1, 1)) == (1, 0, 0, -1, 0)

    def test_equals_the_reference_walk_over_label_sets(self):
        for values, t in block_types():
            size = block_size(values, t)
            expected = tuple(ref_block_weight(values, t, m) for m in range(size + 1))
            assert _block_weights(values, t) == expected, (values, t)

    def test_last_weight_vanishes_and_the_rest_mirror(self):
        # prod_v (1 - x^v)^{t_v} vanishes at x = 1 and is palindromic up to
        # the sign (-1)^{#parts}, so W(t, |t|) = 0 and
        # W(t, m) = (-1)^{#parts + 1} W(t, |t| - 1 - m)
        for values, t in block_types():
            size = block_size(values, t)
            weights = _block_weights(values, t)
            assert len(weights) == size + 1 and weights[size] == 0, (values, t)
            sign = -1 if sum(t) % 2 == 0 else 1
            for m in range(size):
                assert weights[m] == sign * weights[size - 1 - m], (values, t, m)


class TestWeightedPairSums:
    def test_one_part_is_the_diagonal_sum(self):
        # the loop edge 1 -> 1 closes with one affine pair, n + m = d - 1
        assert _weighted_pair_sums(part(4)) == {((n, 3 - n),): 1 for n in range(4)}

    def test_equals_the_reference_walk(self):
        # the block sum keeps every nonzero total of the walk over cycles,
        # and no zero one
        for d in range(1, 10):
            for mu in partitions_of(d):
                walk = {pairs: v for pairs, v in ref_weighted_pair_sums(mu).items() if v}
                assert _weighted_pair_sums(mu) == walk, mu

    def test_degree_balance(self):
        # the pairs' n + m + 1 telescope to d, so every multiset's weight is
        # an integer over d!
        for d in range(1, 10):
            for mu in partitions_of(d):
                for pairs in _weighted_pair_sums(mu):
                    assert sum(n + m + 1 for n, m in pairs) == d, (mu, pairs)

    def test_pinned_for_degree_nine(self):
        # the walk keeps 1087 zero totals, the engine none; dropping them
        # from the walk gives the engine's digest
        assert pair_sums_digest(ref_weighted_pair_sums) == (
            "0ef9a7c174880e3ddab2f0691cbcabdc6825512875017311fdf4cd48f0496235"
        )
        assert pair_sums_digest(_weighted_pair_sums) == (
            "4e69a0e38be3b9100e89cd3ac825a5b405b3d0ac80cf1ece825b619ad1941716"
        )


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
        series = ref_taylor(*as_pair(monotone_generating(part(2))), 7)
        assert series[1::2] == [1, 1, 1, 1]
        assert series[0::2] == [0, 0, 0, 0]


class TestSimpleGenerating:
    def test_profile_three(self):
        assert simple_generating(part(3)) == {
            3: Fraction(1, 18),
            0: Fraction(-1, 9),
            -3: Fraction(1, 18),
        }

    def test_profile_five(self):
        scale = Fraction(1, 600)
        assert simple_generating(part(5)) == {
            10: scale,
            5: -4 * scale,
            0: 6 * scale,
            -5: -4 * scale,
            -10: scale,
        }

    def test_profile_five_two(self):
        base = {21: 1, 14: -6, 11: -21, 9: 35, 6: 70, 4: -84, 1: -105}
        terms = {}
        for k, c in base.items():
            terms[k] = Fraction(c, 50400)
            terms[-k] = Fraction(-c, 50400)  # d + l = 9 is odd
        assert simple_generating(part(5, 2)) == terms

    def test_all_ones_three(self):
        # (1/3) cosh 3h - 3 cosh h + 8/3; pinned by H_{0;(1,1,1)} = 24 and
        # vanishing below the first admissible power b = 4
        expected = {
            3: Fraction(1, 6),
            -3: Fraction(1, 6),
            1: Fraction(-3, 2),
            -1: Fraction(-3, 2),
            0: Fraction(8, 3),
        }
        series = simple_generating(part(1, 1, 1))
        assert series == expected
        # b! times the hbar^b coefficient, for b = 0, 2 and 4 (genus 0)
        assert [sum(c * k**b for k, c in series.items()) for b in (0, 2, 4)] == [
            0,
            0,
            oracle_hurwitz(part(1, 1, 1), 0, "simple"),
        ]

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            simple_generating(part(1))


class TestIntegerWeights:
    def test_both_kinds_equal_the_fraction_weighting(self):
        profiles = [mu for d in range(2, 11) for mu in partitions_of(d)]
        assert len(profiles) == 137
        for mu in profiles:
            assert simple_generating(mu) == ref_generating(mu, "simple"), mu
            assert monotone_generating(mu) == ref_generating(mu, "monotone"), mu

    def test_hook_product_not_dividing_d_factorial_raises(self, monkeypatch):
        # 7 divides no 3!, so no weight of (3) can be an integer over it
        monkeypatch.setattr(npoint, "simple_affine", lambda n, m: (0, 7))
        monkeypatch.setattr(npoint, "monotone_affine", lambda n, m: ((), 7))
        with pytest.raises(ArithmeticError, match="does not divide"):
            simple_generating(part(3))
        with pytest.raises(ArithmeticError, match="does not divide"):
            monotone_generating(part(3))


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
            numerator, factors = as_pair(f)
            assert ref_flip(f) == (tuple(sign * c for c in numerator), factors)

    def test_simple_parity(self):
        for mu in self.PROFILES:
            e = simple_generating(mu)
            sign = -1 if (mu.size + mu.length) % 2 else 1
            for k, c in e.items():
                assert e.get(-k, 0) == sign * c

    def test_simple_coefficients_nonzero_in_key_order(self):
        # (2,1) cancels its e^{0} term; no cancelled term may remain
        for mu in self.PROFILES:
            e = simple_generating(mu)
            assert all(e.values()) and list(e) == sorted(e)
        assert 0 not in simple_generating(part(2, 1))

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
            assert all(abs(k) <= top for k in simple_generating(mu))

    def test_canonicalized_input_orderings_agree(self):
        assert Partition.canonical([1, 3, 2]) == part(3, 2, 1)
        assert monotone_generating(Partition.canonical([2, 3, 1])) == monotone_generating(
            part(3, 2, 1)
        )
