from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from dense_reference import conjugate, hook_product
from hurwitz.partitions import Partition, aut_order, branch_points, partitions_of


def part(*parts):
    return Partition(tuple(parts))


def pentagonal_count(n, _cache={0: 1}):
    """p(n) by Euler's pentagonal-number recurrence, independent of the enumerator."""
    if n < 0:
        return 0
    if n in _cache:
        return _cache[n]
    total = 0
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 else -1
        total += sign * pentagonal_count(n - k * (3 * k - 1) // 2)
        total += sign * pentagonal_count(n - k * (3 * k + 1) // 2)
        k += 1
    _cache[n] = total
    return total


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    counts = Counter(bins)
    return Partition(tuple(sorted(counts.values(), reverse=True)))


class TestPartitionType:
    def test_empty(self):
        empty = Partition()
        assert empty.size == 0
        assert empty.length == 0

    def test_size_and_length(self):
        mu = part(3, 2, 2, 1)
        assert mu.size == 8
        assert mu.length == 4

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            part(1, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            part(2, 0)

    def test_canonical_sorts(self):
        assert Partition.canonical([1, 3, 2]) == part(3, 2, 1)


class TestPartitionsOf:
    def test_zero(self):
        assert partitions_of(0) == [Partition()]

    def test_four(self):
        assert partitions_of(4) == [
            part(4),
            part(3, 1),
            part(2, 2),
            part(2, 1, 1),
            part(1, 1, 1, 1),
        ]

    def test_counts_match_pentagonal_recurrence(self):
        for d in range(0, 10):
            assert len(partitions_of(d)) == pentagonal_count(d)
        assert len(partitions_of(8)) == 22

    def test_no_duplicates(self):
        for d in range(0, 10):
            ps = partitions_of(d)
            assert len(set(ps)) == len(ps)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)


class TestConjugate:
    def test_examples(self):
        assert conjugate(part(3, 1)) == part(2, 1, 1)
        assert conjugate(part(1, 1, 1)) == part(3)
        assert conjugate(part(5, 3, 3, 1)) == part(4, 3, 3, 1, 1)

    def test_involution_exhaustive(self):
        for d in range(0, 10):
            for mu in partitions_of(d):
                assert conjugate(conjugate(mu)) == mu

    def test_column_definition(self):
        mu = part(4, 2, 1)
        conj = conjugate(mu)
        for j in range(1, 5):
            assert conj.parts[j - 1] == sum(1 for p in mu.parts if p >= j)

    @given(partition_strategy())
    def test_involution_random(self, mu):
        assert conjugate(conjugate(mu)) == mu
        assert conjugate(mu).size == mu.size


class TestHookProduct:
    def test_single_row(self):
        assert hook_product(part(3)) == 6

    def test_hook_shapes(self):
        for m in range(0, 6):
            for n in range(0, 6):
                mu = Partition((m + 1,) + (1,) * n)
                assert hook_product(mu) == (m + n + 1) * factorial(m) * factorial(n)

    def test_square(self):
        assert hook_product(part(2, 2)) == 12

    def test_empty(self):
        assert hook_product(Partition()) == 1

    def test_conjugation_invariant(self):
        for d in range(0, 10):
            for mu in partitions_of(d):
                assert hook_product(mu) == hook_product(conjugate(mu))


class TestAutOrder:
    def test_distinct_parts(self):
        assert aut_order(part(3, 2, 1)) == 1

    def test_pair(self):
        assert aut_order(part(3, 3)) == 2

    def test_mixed(self):
        assert aut_order(part(2, 2, 1, 1, 1)) == 12

    def test_empty(self):
        assert aut_order(Partition()) == 1


class TestBranchPoints:
    def test_riemann_hurwitz(self):
        assert branch_points(part(3), 0) == 2
        assert branch_points(part(3), 2) == 6
        assert branch_points(part(3, 3), 0) == 6
        assert branch_points(part(3, 3), 2) == 10
        assert branch_points(part(1), 0) == 0

    def test_negative_genus_is_refused(self):
        with pytest.raises(ValueError, match="genus must be >= 0"):
            branch_points(part(3, 3), -1)
