"""Brute-force ground truth: counting transitive transposition factorizations.

Counts tuples (sigma_1, t_2, ..., t_{b+1}) in S_d with sigma_1 of cycle type
mu, every t a transposition, product equal to the identity, the whole tuple
acting transitively on {0..d-1}, and (in monotone mode) the larger moved
elements weakly increasing along the t sequence.

Permutations are tuples of images on 0-based points.  A state is
``(rho, labels, low)``: ``rho`` is the product sigma_1 t_2 ... t_k so far,
``labels[i]`` is the least point of i's component under sigma_1's cycles
and the transpositions chosen so far, and the points below ``low`` are
those that every transposition still on offer treats alike.  Monotone
mode offers only transpositions whose larger element is >= the last one
used, so there ``low`` is that element (1 at the start); the simple kind
offers every transposition, and ``low`` is d.  A tuple counts iff its last state
has rho the identity and one component.  A state needs rho's distance to
the identity (d minus its cycle count) plus two slots for each merge of
components still to come; each slot flips the parity of that need.

The count runs forward, one layer per transposition slot.  A layer maps
each state key to one representative state and a multiplicity, and drops
every state that needs more slots than are left; a query whose first need
has the wrong parity counts 0 before any layer.  The key writes each cycle
of rho from its least point >= low, with every point below low as one
placeholder, each component as the sorted tuple of its cycles, and the
state as the sorted tuple of components.  The points it writes out are
those >= low, so the key also fixes low.  In the simple kind (low = d)
it is the multiset of the components' cycle types.  One scan
of rho gives the key and the need; it is memoized per query on the exact
state, since many parents reach the same child.

Equal keys, equal counts.  Labels only name components, so two states
with one key differ by a permutation pi of the points below low, which
conjugates one into the other: pi rho pi^{-1}, with the components
carried by pi.  Conjugating by pi maps the transpositions on offer onto
themselves.  In the simple kind they are all transpositions.  In monotone
mode each is (a, c) with c >= low and a < c: pi fixes c and maps a below
c, so it also keeps each larger element, hence the monotone order.  It
keeps "rho is the identity" and the number of components.  So it maps the
completions of one state one to one onto those of the other.

One class representative.  rho starts at sigma_1.  The first layer holds
one sigma_1 of cycle type mu (its cycles on consecutive points, each
labelled by its least point), and the count is its count times the class
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
independence is the point.  Like the engine, the library takes any d and
any b; the command line caps both.
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


def count_constellations(mu: Partition, b: int, monotone: bool = False) -> int:
    """Exact number of tuples satisfying the constellation conditions."""
    d = mu.size
    if d < 1:
        raise ValueError("degree must be >= 1")
    if b < 0:
        raise ValueError("number of transposition slots must be >= 0")
    # (a, c) by rising c; monotone offers those from the last c on
    transpositions = [(a, c) for c in range(1, d) for a in range(c)]

    @cache
    def scan(rho: Perm, labels: Perm, low: int) -> tuple[tuple, int]:
        """(key, slots needed) of a state whose points below low are alike."""
        components: dict[int, list[Perm]] = {}
        seen: set[int] = set()
        for first in range(d):
            if first not in seen:
                cycle = [first]
                while rho[cycle[-1]] != first:
                    cycle.append(rho[cycle[-1]])
                seen.update(cycle)
                # a point below low becomes the placeholder d, which sorts last;
                # the cycle starts from its least entry
                cycle = [i if i >= low else d for i in cycle]
                k = cycle.index(min(cycle))
                components.setdefault(labels[first], []).append((*cycle[k:], *cycle[:k]))
        key = tuple(sorted(tuple(sorted(c)) for c in components.values()))
        # closing needs rho's distance to the identity, d minus its cycles,
        # plus two slots per merge: each merge joins two cycles of rho
        cycles = sum(map(len, components.values()))
        return key, d - cycles + 2 * (len(components) - 1)

    # the representative: each cycle on consecutive points, labelled by its
    # least point; the class has d!/z_mu members, all with this count
    rho: list[int] = []
    labels: list[int] = []
    for part in mu.parts:
        first = len(rho)
        rho += [*range(first + 1, first + part), first]
        labels += [first] * part
    state = (tuple(rho), tuple(labels), 1 if monotone else d)
    key, need = scan(*state)
    # each slot flips the parity of need, so need and b must agree
    if need > b or (b - need) % 2:
        return 0
    layer = {key: [state, 1]}
    for slots in reversed(range(b)):  # slots left after this layer
        after: dict[tuple, list] = {}
        for (rho, labels, low), count in layer.values():
            for a, c in transpositions[low * (low - 1) // 2 if monotone else 0 :]:
                # right-compose rho with (a c): swap the images of a and c
                swapped = list(rho)
                swapped[a], swapped[c] = rho[c], rho[a]
                joined = labels
                if labels[a] != labels[c]:
                    least, other = sorted((labels[a], labels[c]))
                    joined = tuple([least if x == other else x for x in labels])
                child = (tuple(swapped), joined, c if monotone else d)
                key, need = scan(*child)
                if need <= slots:
                    after.setdefault(key, [child, 0])[1] += count
        layer = after
    # need 0 is left: rho is the identity and there is one component
    z_mu = prod(mu.parts) * aut_order(mu)
    return factorial(d) // z_mu * sum(count for _, count in layer.values())


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
