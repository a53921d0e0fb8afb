"""Whole-class oracle reference shared by the tests.

This is the search `count_constellations` ran before it walked from one
class representative: every permutation of cycle type mu is a start of
its own, with labels from its own cycles.  It keeps per-member counts so
tests can check that the count is a class function and that one member
times the class size equals the whole-class sum.  The walk is memoized
over its explicit state, shared by all members of one query.
"""
from functools import cache
from itertools import permutations


def cycles(perm):
    """The cycles of perm, each listed from its least point."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = perm[i]
        if cycle:
            out.append(cycle)
    return out


def conjugacy_class(mu):
    """All permutations of {0..d-1} with cycle type mu."""
    return [
        p
        for p in permutations(range(mu.size))
        if tuple(sorted(map(len, cycles(p)), reverse=True)) == mu.parts
    ]


def member_counts(mu, b, monotone):
    """{rho: count of tuples whose product-to-cancel starts at rho}."""
    d = mu.size
    transpositions = [
        (a, c, c * (c - 1) // 2 if monotone else 0) for c in range(1, d) for a in range(c)
    ]

    @cache
    def walk(rho, labels, slots, start):
        if d - len(cycles(rho)) > slots:
            return 0
        if slots == 0:
            return 0 if any(labels) else 1
        total = 0
        for a, c, next_start in transpositions[start:]:
            swapped = list(rho)
            ia, ic = swapped.index(a), swapped.index(c)
            swapped[ia], swapped[ic] = c, a
            joined = labels
            if labels[a] != labels[c]:
                low, high = sorted((labels[a], labels[c]))
                joined = tuple(low if x == high else x for x in labels)
            total += walk(tuple(swapped), joined, slots - 1, next_start)
        return total

    counts = {}
    for rho in conjugacy_class(mu):
        labels = [0] * d
        for cycle in cycles(rho):
            for i in cycle:
                labels[i] = cycle[0]
        counts[rho] = walk(rho, tuple(labels), b, 0)
    return counts
