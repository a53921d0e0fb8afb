"""Brute-force ground truth: counting transitive transposition factorizations.

Counts tuples (sigma_1, t_2, ..., t_{b+1}) in S_d with sigma_1 of cycle type
mu, every t a transposition, product equal to the identity, the whole tuple
acting transitively on {0..d-1}, and (in monotone mode) the larger moved
elements weakly increasing along the t sequence.

Permutations are tuples of images on 0-based points.  The search is one
depth-first recursion ``walk(rho, labels, slots, start)`` over explicit
state: ``rho`` is the product still to be cancelled, ``labels[i]`` is the
least point of i's component under sigma_1's cycles and the transpositions
chosen so far, ``slots`` counts the transpositions still to choose, and
``start`` is the first transposition index on offer.  A leaf counts iff
rho is the identity and every label is 0.  Two prunes: rho's distance to
the identity (d minus its cycle count) must not exceed ``slots``, and
monotone mode only offers transpositions whose larger element is >= the
last one used.  Nothing here shares machinery with the
generating-function engine; that independence is the point.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from .partitions import Partition, aut_order

__all__ = [
    "ORACLE_MAX_DEGREE",
    "ORACLE_MAX_BRANCH_POINTS",
    "count_constellations",
    "oracle_count",
    "oracle_hurwitz",
]

ORACLE_MAX_DEGREE = 6
ORACLE_MAX_BRANCH_POINTS = 7

Perm = tuple[int, ...]


def _cycles(perm: Perm) -> list[list[int]]:
    """The cycles of perm, each listed from its least point."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = perm[i]
        if cycle:
            cycles.append(cycle)
    return cycles


@lru_cache(maxsize=None)
def _conjugacy_class(mu: Partition) -> tuple[Perm, ...]:
    """All permutations of {0..d-1} with cycle type mu."""
    return tuple(
        p
        for p in permutations(range(mu.size))
        if tuple(sorted(map(len, _cycles(p)), reverse=True)) == mu.parts
    )


def count_constellations(
    mu: Partition, b: int, monotone: bool = False, force: bool = False
) -> int:
    """Exact number of tuples satisfying the constellation conditions."""
    d = mu.size
    if d < 1:
        raise ValueError("degree must be >= 1")
    if b < 0:
        raise ValueError("number of transposition slots must be >= 0")
    if not force and (d > ORACLE_MAX_DEGREE or b > ORACLE_MAX_BRANCH_POINTS):
        raise ValueError("oracle search space too large")
    # (a, c, first index on offer after (a c)); monotone keeps c weakly rising
    transpositions = [
        (a, c, c * (c - 1) // 2 if monotone else 0) for c in range(1, d) for a in range(c)
    ]
    distances: dict[Perm, int] = {}

    def walk(rho: Perm, labels: Perm, slots: int, start: int) -> int:
        distance = distances.get(rho)
        if distance is None:
            distance = distances[rho] = d - len(_cycles(rho))
        if distance > slots:
            return 0
        if slots == 0:
            return 0 if any(labels) else 1
        total = 0
        for a, c, next_start in transpositions[start:]:
            # left-compose (a c) with rho: swap the values a and c
            swapped = list(rho)
            ia, ic = swapped.index(a), swapped.index(c)
            swapped[ia], swapped[ic] = c, a
            joined = labels
            if labels[a] != labels[c]:
                low, high = sorted((labels[a], labels[c]))
                joined = tuple([low if x == high else x for x in labels])
            total += walk(tuple(swapped), joined, slots - 1, next_start)
        return total

    total = 0
    # rho starts at sigma_1's inverse, which has sigma_1's cycles; inversion
    # permutes the class, so summing over rho in the class counts each sigma_1
    for rho in _conjugacy_class(mu):
        labels = [0] * d
        for cycle in _cycles(rho):
            for i in cycle:
                labels[i] = cycle[0]
        total += walk(rho, tuple(labels), b, 0)
    return total


def oracle_count(
    mu: Partition, g: int, kind: str, force: bool = False
) -> tuple[int, int, Fraction]:
    """(b, constellation count, Hurwitz number) at b = 2g - 2 + d + l.

    The Hurwitz number is |Aut(mu)| / d! times the constellation count.
    """
    if kind not in ("simple", "monotone"):
        raise ValueError(f"unknown kind {kind!r}")
    if g < 0:
        raise ValueError("genus must be >= 0")
    b = 2 * g - 2 + mu.size + mu.length
    if b < 0:
        raise ValueError("2g - 2 + d + l must be >= 0")
    count = count_constellations(mu, b, kind == "monotone", force=force)
    return b, count, Fraction(aut_order(mu) * count, factorial(mu.size))


def oracle_hurwitz(mu: Partition, g: int, kind: str, force: bool = False) -> Fraction:
    """The exact Hurwitz number at genus g, counted by brute force."""
    return oracle_count(mu, g, kind, force)[2]
