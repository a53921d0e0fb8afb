from fractions import Fraction
from itertools import product
from math import comb

import pytest

from hurwitz.closedform import evaluate, monotone_closed_form, simple_closed_form
from hurwitz.oracle import count_constellations, oracle_hurwitz
from hurwitz.partitions import Partition, aut_order, partitions_of

from oracle_reference import member_counts, representative_walk_count


def part(*parts):
    return Partition(tuple(parts))


def brute_force_count(mu, b, monotone):
    """Independent check: full product enumeration, no pruning at all."""
    from itertools import permutations
    from math import factorial

    d = mu.size
    transpositions = []
    for c in range(1, d):
        for a in range(c):
            image = list(range(d))
            image[a], image[c] = c, a
            transpositions.append((tuple(image), c))
    class_members = [
        p for p in permutations(range(d)) if _cycle_type(p) == mu.parts
    ]
    total = 0
    for sigma1 in class_members:
        for combo in product(transpositions, repeat=b):
            if monotone:
                larger = [c for _, c in combo]
                if any(x > y for x, y in zip(larger, larger[1:])):
                    continue
            acc = sigma1
            for perm, _ in combo:
                acc = tuple(acc[perm[i]] for i in range(d))
            if acc != tuple(range(d)):
                continue
            if is_transitive([sigma1] + [perm for perm, _ in combo], d):
                total += 1
    return total


def is_transitive(perms, d):
    """True iff the cycle edges of perms connect {0..d-1} (graph search)."""
    neighbours = [set() for _ in range(d)]
    for perm in perms:
        for i in range(d):
            neighbours[i].add(perm[i])
            neighbours[perm[i]].add(i)
    reached, frontier = {0}, [0]
    while frontier:
        for j in neighbours[frontier.pop()] - reached:
            reached.add(j)
            frontier.append(j)
    return len(reached) == d


def _cycle_type(perm):
    seen = [False] * len(perm)
    out = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        size, i = 0, s
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            size += 1
        out.append(size)
    return tuple(sorted(out, reverse=True))


class TestIsTransitive:
    def test_single_transposition_covers_two(self):
        assert is_transitive([(1, 0)], 2)

    def test_isolated_point(self):
        assert not is_transitive([(1, 0, 2)], 3)

    def test_two_components(self):
        swaps = [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 2, 4, 3)]
        assert not is_transitive(swaps, 5)

    def test_full_cycle(self):
        assert is_transitive([(1, 2, 3, 4, 0)], 5)


class TestCountConstellations:
    def test_degree_two_single_slot(self):
        for monotone in (False, True):
            assert count_constellations(part(2), 1, monotone) == 1

    def test_three_cycle_two_slots(self):
        assert count_constellations(part(3), 2, False) == 6

    def test_three_cycle_two_slots_monotone(self):
        # per 3-cycle the factorizations are (B-sequences) (2,3), (3,3), (3,2);
        # two of the three are weakly increasing
        assert count_constellations(part(3), 2, True) == 4

    def test_identity_profile(self):
        assert count_constellations(part(1, 1), 2, False) == 1

    def test_wrong_parity_counts_zero(self):
        assert count_constellations(part(3), 3, False) == 0
        assert count_constellations(part(2, 1), 2, False) == 0

    def test_too_few_slots_counts_zero(self):
        assert count_constellations(part(4), 1, False) == 0

    def test_no_cap_past_the_cli_guard(self):
        # the caps are command-line policy; mu = (9) with zero slots cannot
        # close, count 0
        assert count_constellations(part(9), 0, False) == 0

    def test_matches_unpruned_enumeration(self):
        for d in range(1, 5):
            for mu in partitions_of(d):
                for b in range(0, 4):
                    for monotone in (False, True):
                        expected = brute_force_count(mu, b, monotone)
                        assert count_constellations(mu, b, monotone) == expected, (
                            mu,
                            b,
                            monotone,
                        )

    def test_matches_recursive_walk(self):
        # the forward layers against the memoized walk they replaced: every
        # partition with d <= 7 at every b <= 8, in both kinds (792 queries)
        queries = 0
        for d in range(1, 8):
            for mu in partitions_of(d):
                for b in range(9):
                    for monotone in (False, True):
                        expected = representative_walk_count(mu, b, monotone)
                        assert count_constellations(mu, b, monotone) == expected, (
                            mu,
                            b,
                            monotone,
                        )
                        queries += 1
        assert queries == 792

    def test_no_recursion_limit(self):
        # the recursive walk raised RecursionError here: one frame per slot
        assert count_constellations(part(2), 1001) == 1

    def test_monotone_at_most_simple(self):
        cases = [(part(4), 3), (part(3, 1), 4), (part(2, 2), 4), (part(5), 4)]
        for mu, b in cases:
            mono = count_constellations(mu, b, True)
            plain = count_constellations(mu, b, False)
            assert mono <= plain

    def test_class_invariance(self):
        # every member of the class starts a walk with the same count, so
        # the representative times d!/z_mu is the whole-class sum
        for d in range(1, 6):
            for mu in partitions_of(d):
                for b in range(8):
                    for monotone in (False, True):
                        counts = member_counts(mu, b, monotone)
                        assert len(set(counts.values())) == 1, (mu, b, monotone)
                        total = sum(counts.values())
                        assert count_constellations(mu, b, monotone) == total, (
                            mu,
                            b,
                            monotone,
                        )


class TestOracleHurwitz:
    def test_genus_zero_past_the_cli_guard(self):
        # d = 9 is past the CLI's oracle cap; the genus-0 formulas of one part
        assert oracle_hurwitz(part(9), 0, "simple") == 9**6
        assert oracle_hurwitz(part(9), 0, "monotone") == Fraction(comb(18, 9), 18 * 17)

    def test_simple_five_genus_zero(self):
        assert oracle_hurwitz(part(5), 0, "simple") == 25

    def test_monotone_two_genus_three(self):
        assert oracle_hurwitz(part(2), 3, "monotone") == Fraction(1, 2)

    def test_single_point_degree_one(self):
        assert oracle_hurwitz(part(1), 0, "simple") == 1

    def test_monotone_three_three_matches_engine(self):
        mu = part(3, 3)
        engine = evaluate(monotone_closed_form(mu), 0)
        assert oracle_hurwitz(mu, 0, "monotone") == engine

    def test_normalization_uses_aut_order(self):
        mu = part(2, 2)  # b = 2g - 2 + d + l = 4 at genus 0
        count = count_constellations(mu, 4, False)
        assert oracle_hurwitz(mu, 0, "simple") == Fraction(aut_order(mu) * count, 24)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            oracle_hurwitz(part(2), 0, "orbifold")

    def test_engine_equivalence_small(self):
        for d in range(2, 5):
            for mu in partitions_of(d):
                for kind, build in (
                    ("simple", simple_closed_form),
                    ("monotone", monotone_closed_form),
                ):
                    g = 0
                    while 2 * g - 2 + mu.size + mu.length <= 5:
                        assert oracle_hurwitz(mu, g, kind) == evaluate(build(mu), g)
                        g += 1
