"""Oracle references shared by the tests.

`member_counts` is the search `count_constellations` ran before it walked
from one class representative: every permutation of cycle type mu is a
start of its own, with labels from its own cycles.  It keeps per-member
counts so tests can check that the count is a class function and that one
member times the class size equals the whole-class sum.  The walk is
memoized over its explicit state, shared by all members of one query.

`representative_walk_count` is the search `count_constellations` ran
before it counted forward over symmetry-reduced states: one memoized
depth-first recursion from the class representative over the exact state
(rho, labels, slots left, first transposition on offer).
"""
from functools import cache
from itertools import permutations
from math import factorial, prod

from hurwitz.partitions import Partition, aut_order

Perm = tuple[int, ...]


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


def representative_walk_count(mu: Partition, b: int, monotone: bool = False) -> int:
    """The constellation count by the recursive walk over exact states.

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
