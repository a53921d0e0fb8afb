"""Brute-force ground truth: counting transitive transposition factorizations.

Counts tuples (sigma_1, t_2, ..., t_{b+1}) in S_d with sigma_1 of cycle type
mu, every t a transposition, product equal to the identity, the whole tuple
acting transitively on {0..d-1}, and (in monotone mode) the larger moved
elements weakly increasing along the t sequence.

Permutations are tuples of images on 0-based points.  The search is one
depth-first recursion ``walk(rho, labels, slots, start)`` over explicit
state: ``rho`` is the product sigma_1 t_2 ... t_k so far, ``labels[i]`` is
the least point of i's component under sigma_1's cycles and the
transpositions chosen so far, ``slots`` counts the transpositions still to
choose, and ``start`` is the first transposition index on offer.  A leaf
counts iff rho is the identity and every label is 0.  Two prunes: a state
needs rho's distance to the identity (d minus its cycle count) plus two
slots for each merge of components still to come, and the same parity,
and monotone mode only offers transpositions whose larger element is >=
the last one used.  ``walk`` is memoized with ``functools.cache``; the
memo belongs to one ``count_constellations`` call and goes with it, so no
state outlives a query.

One class representative.  rho starts at sigma_1.  The walk starts from
one sigma_1 of cycle type mu (its cycles on consecutive points, each
labelled by its least point), and the count is that walk times the class
size d!/z_mu, z_mu = prod(mu_i) * |Aut(mu)|.  This is exact because
N(sigma), the count of tuples with sigma_1 = sigma, depends only on the
cycle type of sigma:

- Simple kind: conjugating every entry of a tuple by one permutation keeps
  the transpositions, the product and transitivity, so it maps the tuples
  of sigma one to one onto those of any conjugate.
- Monotone kind, disconnected count (transitivity dropped): the sum of all
  monotone products of b transpositions is h_b(J_2, ..., J_d) in the
  Jucys-Murphy elements J_k = sum_{a<k} (a k).  It is central, so its
  coefficient at sigma^{-1} is a class function.
- Monotone kind, connected count, by induction on d: the orbits of a
  tuple are sigma-invariant blocks, and on each block it is a transitive
  monotone tuple (points relabelled in order).  Conversely, the monotone
  sequences of different blocks merge in exactly one way, since their
  larger elements are distinct.  So the disconnected count is a sum over
  the ways to group sigma's cycles into blocks and split b among them, of
  products of connected counts.  The one-block term is N(sigma); every
  other term is a class function by induction, and so is the whole sum.

Nothing here shares machinery with the generating-function engine; that
independence is the point.  Like the engine, the library takes any d, and any
b short of the recursion limit; the command line caps both.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod

from .partitions import Partition, aut_order, branch_points

__all__ = [
    "count_constellations",
    "oracle_count",
    "oracle_hurwitz",
]

Perm = tuple[int, ...]


def _cycle_count(perm: Perm) -> int:
    """The number of cycles of perm, fixed points included."""
    seen = [False] * len(perm)
    count = 0
    for start in range(len(perm)):
        if not seen[start]:
            count += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return count


def count_constellations(mu: Partition, b: int, monotone: bool = False) -> int:
    """Exact number of tuples satisfying the constellation conditions.

    walk recurses once per slot, so b near the recursion limit raises
    RecursionError: simple (2) fails at b = 501 and works at b = 491.
    """
    d = mu.size
    if d < 1:
        raise ValueError("degree must be >= 1")
    if b < 0:
        raise ValueError("number of transposition slots must be >= 0")
    # (a, c, first index on offer after (a c)); monotone keeps c weakly rising
    transpositions = [
        (a, c, c * (c - 1) // 2 if monotone else 0) for c in range(1, d) for a in range(c)
    ]
    distances: dict[Perm, int] = {}

    @cache
    def walk(rho: Perm, labels: Perm, slots: int, start: int) -> int:
        distance = distances.get(rho)
        if distance is None:
            distance = distances[rho] = d - _cycle_count(rho)
        # each merge of two components joins two cycles of rho, so closing
        # needs the distance plus two slots per merge, and each slot flips
        # the parity of the distance
        need = distance + 2 * (len(set(labels)) - 1)
        if need > slots or (slots - need) % 2:
            return 0
        if slots == 0:
            return 1  # need == 0: rho is the identity and all labels are 0
        total = 0
        for a, c, next_start in transpositions[start:]:
            # right-compose rho with (a c): swap the images of a and c
            swapped = list(rho)
            swapped[a], swapped[c] = rho[c], rho[a]
            joined = labels
            if labels[a] != labels[c]:
                low, high = sorted((labels[a], labels[c]))
                joined = tuple([low if x == high else x for x in labels])
            total += walk(tuple(swapped), joined, slots - 1, next_start)
        return total

    # the representative: each cycle on consecutive points, labelled by its
    # least point; the class has d!/z_mu members, all with this count
    rho: list[int] = []
    labels: list[int] = []
    for part in mu.parts:
        first = len(rho)
        rho += [*range(first + 1, first + part), first]
        labels += [first] * part
    z_mu = prod(mu.parts) * aut_order(mu)
    return factorial(d) // z_mu * walk(tuple(rho), tuple(labels), b, 0)


def oracle_count(mu: Partition, g: int, kind: str) -> tuple[int, Fraction]:
    """(constellation count, Hurwitz number) at b = branch_points(mu, g).

    The Hurwitz number is |Aut(mu)| / d! times the constellation count.
    """
    if kind not in ("simple", "monotone"):
        raise ValueError(f"unknown kind {kind!r}")
    count = count_constellations(mu, branch_points(mu, g), kind == "monotone")
    return count, Fraction(aut_order(mu) * count, factorial(mu.size))


def oracle_hurwitz(mu: Partition, g: int, kind: str) -> Fraction:
    """The exact Hurwitz number at genus g, counted by brute force."""
    return oracle_count(mu, g, kind)[1]
