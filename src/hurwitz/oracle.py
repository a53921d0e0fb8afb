"""Brute-force ground truth: counting transitive transposition factorizations.

Counts tuples (sigma_1, t_2, ..., t_{b+1}) in S_d with sigma_1 of cycle type
mu, every t a transposition, product equal to the identity, the whole tuple
acting transitively on {0..d-1}, and (in monotone mode) the larger moved
elements weakly increasing along the t sequence.

Permutations are tuples of images on 0-based points.  The search is a plain
depth-first walk over transpositions with two prunes: the remaining
product's distance to the identity (d minus its cycle count) must not
exceed the remaining slots, and monotone mode only offers transpositions
whose larger element is >= the last one used.  Nothing here shares
machinery with the generating-function engine; that independence is the
point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from .partitions import Partition, aut_order

__all__ = [
    "ConstellationQuery",
    "ORACLE_MAX_DEGREE",
    "ORACLE_MAX_BRANCH_POINTS",
    "count_constellations",
    "oracle_count",
    "oracle_hurwitz",
    "is_transitive",
]

ORACLE_MAX_DEGREE = 6
ORACLE_MAX_BRANCH_POINTS = 7

Perm = tuple[int, ...]


@dataclass(frozen=True)
class ConstellationQuery:
    """Cycle type mu for sigma_1, b transposition slots, monotone flag."""

    mu: Partition
    b: int
    monotone: bool = False


def _cycle_type(perm: Perm) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        size = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


_CYCLE_COUNTS: dict[Perm, int] = {}


def _cycle_count(perm: Perm) -> int:
    cached = _CYCLE_COUNTS.get(perm)
    if cached is None:
        cached = len(_cycle_type(perm))
        _CYCLE_COUNTS[perm] = cached
    return cached


def _inverse(perm: Perm) -> Perm:
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


@lru_cache(maxsize=None)
def _conjugacy_class(mu: Partition) -> tuple[Perm, ...]:
    """All permutations of {0..d-1} with cycle type mu."""
    d = mu.size
    target = mu.parts
    return tuple(p for p in permutations(range(d)) if _cycle_type(p) == target)


def is_transitive(perms, d: int) -> bool:
    """True iff the union of all cycle edges connects {0..d-1}."""
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for i in range(d):
            ri, rj = find(i), find(perm[i])
            if ri != rj:
                parent[ri] = rj
    root = find(0) if d else 0
    return all(find(i) == root for i in range(d))


def _swap_values(rho: Perm, a: int, b: int) -> Perm:
    """Left-compose the transposition (a b) with rho."""
    out = list(rho)
    ia = out.index(a)
    ib = out.index(b)
    out[ia] = b
    out[ib] = a
    return tuple(out)


def count_constellations(query: ConstellationQuery, force: bool = False) -> int:
    """Exact number of tuples satisfying the constellation conditions."""
    mu, b = query.mu, query.b
    d = mu.size
    if d < 1:
        raise ValueError("degree must be >= 1")
    if b < 0:
        raise ValueError("number of transposition slots must be >= 0")
    if not force and (d > ORACLE_MAX_DEGREE or b > ORACLE_MAX_BRANCH_POINTS):
        raise ValueError("oracle search space too large")
    transpositions = [(a, c) for c in range(1, d) for a in range(c)]
    monotone = query.monotone
    chosen: list[tuple[int, int]] = []

    def connected(sigma1: Perm) -> bool:
        # union-find over sigma1's cycle edges plus the chosen transpositions
        parent = list(range(d))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for i in range(d):
            union(i, sigma1[i])
        for a, c in chosen:
            union(a, c)
        root = find(0)
        return all(find(i) == root for i in range(d))

    def walk(sigma1: Perm, rho: Perm, slots: int, start: int) -> int:
        if d - _cycle_count(rho) > slots:
            return 0
        if slots == 0:
            return 1 if connected(sigma1) else 0
        total = 0
        for idx in range(start, len(transpositions)):
            a, c = transpositions[idx]
            chosen.append((a, c))
            next_start = c * (c - 1) // 2 if monotone else 0
            total += walk(sigma1, _swap_values(rho, a, c), slots - 1, next_start)
            chosen.pop()
        return total

    total = 0
    for sigma1 in _conjugacy_class(mu):
        total += walk(sigma1, _inverse(sigma1), b, 0)
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
    count = count_constellations(
        ConstellationQuery(mu, b, kind == "monotone"), force=force
    )
    return b, count, Fraction(aut_order(mu) * count, factorial(mu.size))


def oracle_hurwitz(mu: Partition, g: int, kind: str, force: bool = False) -> Fraction:
    """The exact Hurwitz number at genus g, counted by brute force."""
    return oracle_count(mu, g, kind, force)[2]
