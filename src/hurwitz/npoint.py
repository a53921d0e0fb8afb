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
The search keeps only what the weights read: the product of the principal
signs, summed per multiset of affine (n, m) pairs.

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
from functools import lru_cache
from itertools import permutations
from math import prod
from operator import lt

from .affine import monotone_affine, simple_affine
from .exactarith import FactoredRationalFunction, FrozenMap, common_denominator_sum
from .partitions import Partition

__all__ = [
    "enumerate_cycles",
    "monotone_generating",
    "simple_generating",
]


def enumerate_cycles(l: int) -> list[tuple[int, ...]]:
    """All (l-1)! full cycles on {1..l}, as visiting sequences starting at 1."""
    return [(1,) + rest for rest in permutations(range(2, l + 1))]


@lru_cache(maxsize=None)
def _signature_summaries(
    ascending: tuple[bool, ...], head_mu: tuple[int, ...]
) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """Signed count of one edge sequence's balanced assignments per pair multiset.

    Edge i runs small -> large when ascending[i] and has the part head_mu[i]
    at its head.  Only the multiset of affine (n, m) pairs matters to either
    tau-function's weight, so each balanced assignment adds the product of
    its principal signs to its multiset's count; this is the kind-independent
    core of the cycle sum.  The walk starts at the least affine edge (every
    balanced assignment has one) with its m index m0 chosen; the balance at
    the vertex shared with the previous edge forces everything else, and
    closing the cycle fixes the starting edge's n index.
    """
    d, l = sum(head_mu), len(head_mu)
    counts: dict[tuple[tuple[int, int], ...], int] = {}

    def extend(pos, first, m0, r_prev, consumed, sign, pairs) -> None:
        q = (first + pos) % l
        need_l = -head_mu[q - 1] - 1 - r_prev
        if pos == l:
            # never negative: the m ranges below keep consumed <= d
            n0 = -need_l - 1
            assert n0 == d - consumed, "vertex balances must consume degree d"
            key = tuple(sorted(pairs + ((n0, m0),)))
            counts[key] = counts.get(key, 0) + sign
            return
        if need_l <= -1:
            forced = -need_l - 1
            if ascending[q] and forced <= d - 1:
                extend(pos + 1, first, m0, forced, consumed, sign, pairs)
            if q > first:
                for m_q in range(d - consumed - forced):
                    extend(
                        pos + 1, first, m0, -m_q - 1, consumed + forced + m_q + 1,
                        sign, pairs + ((forced, m_q),),
                    )
        elif not ascending[q] and need_l <= d - 1:
            extend(pos + 1, first, m0, -1 - need_l, consumed, -sign, pairs)

    for first in range(l):
        for m0 in range(d):
            extend(1, first, m0, -m0 - 1, m0 + 1, 1, ())
    return tuple(counts.items())


def _weighted_pair_sums(mu: Partition) -> dict[tuple[tuple[int, int], ...], int]:
    """Total signed multiplicity of each affine (n, m) pair multiset.

    Sums over all (l-1)! cycles and all balanced assignments, folding in
    the global (-1)^{l-1}.  Cycles are counted by their edge sequence read
    from vertex 1; each distinct sequence is then rotated to its least
    rotation, so cycles that differ by a rotation share one summary.
    """
    global_sign = -1 if mu.length % 2 == 0 else 1
    raw: Counter = Counter()
    for cycle in enumerate_cycles(mu.length):
        heads = cycle[1:] + cycle[:1]
        raw[tuple(map(lt, cycle, heads)), tuple(mu.parts[h - 1] for h in heads)] += 1
    sig_counts: Counter = Counter()
    for (asc, parts), n_cycles in raw.items():
        rotations = [(asc[r:] + asc[:r], parts[r:] + parts[:r]) for r in range(len(asc))]
        sig_counts[min(rotations)] += n_cycles
    out: dict[tuple[tuple[int, int], ...], int] = {}
    for signature, n_cycles in sig_counts.items():
        scale = global_sign * n_cycles
        for pairs, count in _signature_summaries(*signature):
            out[pairs] = out.get(pairs, 0) + scale * count
    return out


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def simple_generating(mu: Partition) -> FrozenMap[int, Fraction]:
    """The exponential sum equal to sum_g hbar^b / b! * H_{g;mu}, b = 2g-2+d+l.

    Returned as a read-only map k -> D(mu;k), the nonzero coefficient of
    e^{k*hbar}, in increasing k (read-only because the result is cached).
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
    return FrozenMap((k, c * scale) for k, c in sorted(accumulated.items()) if c)
