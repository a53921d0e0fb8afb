"""Coefficient extraction from the connected n-point cycle-sum formula.

For a profile mu with l parts, the target coefficient of
z_1^{-mu_1-1} ... z_l^{-mu_l-1} is assembled by summing over the (l-1)!
full cycles on {1..l} and, per cycle, over per-edge term choices.  Edge i
joins the i-th and (i+1)-th vertices along the cycle and carries either

* a principal term: one free exponent h >= 0, exponent -1-h on the
  smaller-labelled variable and +h on the larger, sign +1 when the edge
  runs small -> large and -1 otherwise, or
* an affine term with indices (n, m): exponents -n-1 on the tail variable
  and -m-1 on the head, weighted by the affine coordinate a_{n,m}.

Requiring every vertex's two incident exponents to sum to -mu_v - 1 pins
all h and n indices once the affine m indices are chosen, so the search
space is a set of bounded compositions rather than a formal series ring.
Walking the cycle, let s be the exponent at the last edge's head plus the
part there; the next edge's tail must take -1-s.  A principal edge then
has h = s when ascending (sign +1) or h = -1-s when descending (sign -1),
and its head takes s either way: it fits exactly when it ascends if and
only if s >= 0, so between affine edges the walk is forced.  An affine
edge takes n = s, so it needs s >= 0, and its m is the only choice.
The search keeps only what the weights read: the product of the principal
signs, summed per multiset of affine (n, m) pairs.  The cycles are never
listed: they are counted per edge sequence up to rotation, and each such
class is searched once.

For l = 1 the one cycle (1,) is the loop edge 1 -> 1.  The walk starts at
an affine edge and the loop has no later position, so it closes with one
affine pair (n, m), n + m = d - 1: exactly the plain diagonal sum of the
one-point function.  For l = 2 the subtracted principal part
1/(z_1 - z_2)^2 expands with only nonnegative powers of z_2, so it never
reaches the target coefficient.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import prod

from .affine import monotone_affine, simple_affine
from .exactarith import FactoredRationalFunction, common_denominator_sum
from .partitions import Partition

__all__ = [
    "enumerate_cycles",
    "monotone_generating",
    "simple_generating",
]


def enumerate_cycles(l: int) -> list[tuple[int, ...]]:
    """All (l-1)! full cycles on {1..l}, as visiting sequences starting at 1.

    The engine does not call it; it stays because perfbench/tracer.py wraps
    it by name.  The tests check ``_cycle_classes`` against it.
    """
    return [(1,) + rest for rest in permutations(range(2, l + 1))]


def _signature_summaries(
    ascending: tuple[bool, ...], head_mu: tuple[int, ...]
) -> dict[tuple[tuple[int, int], ...], int]:
    """Signed count of one edge sequence's balanced assignments per pair multiset.

    Edge i runs small -> large when ascending[i] and has the part head_mu[i]
    at its head.  Only the multiset of affine (n, m) pairs matters to either
    tau-function's weight, so each balanced assignment adds the product of
    its principal signs to its multiset's count; this is the kind-independent
    core of the cycle sum.  The walk starts at the least affine edge (every
    balanced assignment has one) with its m index m0 chosen and carries the
    running sum s of the module docstring; each step adds the next head's
    part to s + consumed, so s <= d - 1 throughout, and closing the cycle
    fixes the starting edge's n index to s = d - consumed.  Returns a dict
    pair multiset -> count.  Not cached: ``_weighted_pair_sums`` calls it
    once per rotation class, and each request is one profile and one kind.
    """
    d, l = sum(head_mu), len(head_mu)
    counts: dict[tuple[tuple[int, int], ...], int] = {}

    def extend(pos, first, m0, r, consumed, sign, pairs) -> None:
        q = (first + pos) % l
        s = r + head_mu[q - 1]  # edge q's tail takes -1-s
        if pos == l:
            # never negative: the m ranges below keep consumed <= d
            assert s == d - consumed, "vertex balances must consume degree d"
            key = tuple(sorted(pairs + ((s, m0),)))
            counts[key] = counts.get(key, 0) + sign
            return
        if ascending[q] == (s >= 0):  # principal: the head takes s
            extend(pos + 1, first, m0, s, consumed, sign if s >= 0 else -sign, pairs)
        if s >= 0 and q > first:  # affine (n, m) = (s, m)
            for m in range(d - consumed - s):
                extend(
                    pos + 1, first, m0, -m - 1, consumed + s + m + 1,
                    sign, pairs + ((s, m),),
                )

    for first in range(l):
        for m0 in range(d):
            extend(1, first, m0, -m0 - 1, m0 + 1, 1, ())
    return counts


def _cycle_classes(parts: tuple[int, ...]) -> Counter:
    """Number of full cycles on {1..l} per edge sequence, up to rotation.

    Keys are least rotations of the (ascending, head parts) pair that
    ``_signature_summaries`` takes.  Each cycle on labels {x..l} arises once
    from a cycle on {x+1..l} by putting x on one edge t -> h, which becomes
    t -> x (descending, head mu_x) and x -> h (ascending, head mu_h); so the
    labels l-1, ..., 1 go in at every position of each class, in turn.
    """
    classes = Counter({((False,), parts[-1:]): 1})
    for part in reversed(parts[:-1]):
        grown: Counter = Counter()
        for (asc, heads), n_cycles in classes.items():
            for j in range(len(asc)):
                a = asc[:j] + (False, True) + asc[j + 1:]
                h = heads[:j] + (part,) + heads[j:]
                grown[min((a[r:] + a[:r], h[r:] + h[:r]) for r in range(len(a)))] += n_cycles
        classes = grown
    return classes


def _weighted_pair_sums(mu: Partition) -> dict[tuple[tuple[int, int], ...], int]:
    """Total signed multiplicity of each affine (n, m) pair multiset.

    Sums over all (l-1)! cycles and all balanced assignments, folding in
    the global (-1)^{l-1}.  Cycles that share an edge sequence up to
    rotation share one summary, so each class from ``_cycle_classes`` is
    summarized once and scaled by its number of cycles.
    """
    global_sign = -1 if mu.length % 2 == 0 else 1
    out: dict[tuple[tuple[int, int], ...], int] = {}
    for signature, n_cycles in _cycle_classes(mu.parts).items():
        scale = global_sign * n_cycles
        for pairs, count in _signature_summaries(*signature).items():
            out[pairs] = out.get(pairs, 0) + scale * count
    return out


def monotone_generating(mu: Partition) -> FactoredRationalFunction:
    """The rational function mu_1...mu_l * sum_g hbar^{2g-2+d+l} vecH_{g;mu}.

    Poles sit only at hbar = 1/k for 1 <= |k| <= d-1; the reduced pole
    order at 1/k never exceeds min(l, (d-1)//|k|).
    """
    if mu.size < 2:
        raise ValueError("degree must be >= 2")
    accumulated: dict[tuple[tuple[int, int], ...], Fraction] = {}
    for pairs, total in _weighted_pair_sums(mu).items():
        coeff = total
        factors: Counter = Counter()
        for n, m in pairs:
            keys, c = monotone_affine(n, m)
            coeff *= c
            factors.update(keys)
        key = tuple(sorted(factors.items()))
        accumulated[key] = accumulated.get(key, Fraction(0)) + coeff
    return common_denominator_sum((c, dict(key)) for key, c in accumulated.items())


def simple_generating(mu: Partition) -> dict[int, Fraction]:
    """The exponential sum equal to sum_g hbar^b / b! * H_{g;mu}, b = 2g-2+d+l.

    Returned as a dict k -> D(mu;k), the nonzero coefficient of
    e^{k*hbar}, in increasing k.
    Support is contained in |k| <= d(d-1)/2 and obeys the parity
    D(mu;k) = (-1)^{d+l} D(mu;-k).
    """
    if mu.size < 2:
        raise ValueError("degree must be >= 2")
    accumulated: dict[int, Fraction] = {}
    for pairs, total in _weighted_pair_sums(mu).items():
        coeff = total
        exponent = 0
        for n, m in pairs:
            k, c = simple_affine(n, m)
            coeff *= c
            exponent += k
        accumulated[exponent] = accumulated.get(exponent, Fraction(0)) + coeff
    scale = Fraction(1, prod(mu.parts))
    return {k: c * scale for k, c in sorted(accumulated.items()) if c}
