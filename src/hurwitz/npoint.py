"""Coefficient extraction from the connected n-point cycle-sum formula.

For a profile mu with l >= 2 parts, the target coefficient of
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

The single-part case l = 1 has no cycles: the one-point function is the
plain diagonal sum over n + m = d - 1 of affine weights.  For l = 2 the
subtracted principal part 1/(z_1 - z_2)^2 expands with only nonnegative
powers of z_2, so it never reaches the target coefficient.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .affine import monotone_affine, simple_affine
from .exactarith import ExpSum, FactoredRationalFunction, Poly, common_denominator_sum
from .partitions import Partition

__all__ = [
    "enumerate_cycles",
    "enumerate_edge_assignments",
    "monotone_generating",
    "simple_generating",
]


def enumerate_cycles(l: int) -> list[tuple[int, ...]]:
    """All (l-1)! full cycles on {1..l}, as visiting sequences starting at 1."""
    if l < 2:
        raise ValueError("cycles need l >= 2")
    return [(1,) + rest for rest in permutations(range(2, l + 1))]


def _edge_frame(cycle: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Tails and heads of the cycle's edges; edge i runs tails[i-1] -> heads[i-1].

    The i-th edge joins the i-th and (i+1)-th iterates of 1 under the cycle,
    so the frame starts at the successor of 1 and wraps back around to it.
    """
    tails = cycle[1:] + cycle[:1]
    heads = tails[1:] + tails[:1]
    return tails, heads


def _search(
    head_mu: tuple[int, ...], ascending: tuple[bool, ...], d: int
) -> list[tuple[tuple, ...]]:
    """All per-edge term tuples satisfying every vertex balance constraint.

    Terms are ("P", h) or ("A", n, m), indexed like the edges.  The search
    walks the cycle starting at the least affine edge (every valid
    assignment has at least one), choosing m at affine edges; the balance
    at the vertex shared with the previous edge forces everything else.
    """
    l = len(head_mu)
    results: list[tuple[tuple, ...]] = []
    terms: list = [None] * l

    def extend(pos: int, first: int, r_prev: int, consumed: int) -> None:
        q = (first + pos) % l
        need_l = -head_mu[q - 1] - 1 - r_prev
        if pos == l:
            # close the cycle: the deferred n of the starting affine edge
            n0 = -need_l - 1
            if n0 < 0:
                return
            _, _, m0 = terms[first]
            assert consumed + n0 == d, "vertex balances must consume degree d"
            terms[first] = ("A", n0, m0)
            results.append(tuple(terms))
            return
        if need_l <= -1:
            forced = -need_l - 1
            if ascending[q] and forced <= d - 1:
                terms[q] = ("P", forced)
                extend(pos + 1, first, forced, consumed)
            if q > first:
                for m_q in range(d - consumed - forced):
                    terms[q] = ("A", forced, m_q)
                    extend(pos + 1, first, -m_q - 1, consumed + forced + m_q + 1)
        elif not ascending[q] and need_l <= d - 1:
            terms[q] = ("P", need_l)
            extend(pos + 1, first, -1 - need_l, consumed)
        terms[q] = None

    for first in range(l):
        for m0 in range(d):
            terms[first] = ("A", None, m0)
            extend(1, first, -m0 - 1, m0 + 1)
        terms[first] = None
    return results


def enumerate_edge_assignments(cycle: tuple[int, ...], mu: Partition) -> list[tuple]:
    """The complete finite list of balanced per-edge term tuples for one cycle.

    Terms are ("P", h) or ("A", n, m), edge i at index i-1.
    """
    cycle = tuple(cycle)
    if cycle[:1] != (1,) or sorted(cycle) != list(range(1, len(cycle) + 1)):
        raise ValueError("cycle must visit 1..l exactly once, starting at 1")
    if mu.length < 2:
        raise ValueError("edge assignments need a profile with l >= 2")
    if len(cycle) != mu.length:
        raise ValueError("cycle length must equal the number of parts")
    tails, heads = _edge_frame(cycle)
    head_mu = tuple(mu.parts[h - 1] for h in heads)
    ascending = tuple(t < h for t, h in zip(tails, heads))
    return _search(head_mu, ascending, mu.size)


def _canonical_signature(
    cycle: tuple[int, ...], mu: Partition
) -> tuple[tuple[bool, int], ...]:
    """Rotation-canonical (direction, head part) sequence of a cycle.

    Assignment weights depend on the cycle only through edge directions and
    the part sizes at edge heads, both of which rotate with the edge
    labelling, so cycles sharing this signature contribute identically.
    """
    tails, heads = _edge_frame(cycle)
    seq = tuple(
        (t < h, mu.parts[h - 1]) for t, h in zip(tails, heads)
    )
    return min(seq[r:] + seq[:r] for r in range(len(seq)))


@lru_cache(maxsize=None)
def _signature_summaries(
    signature: tuple[tuple[bool, int], ...]
) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], int], ...]:
    """Aggregate one signature's assignments to (sign, affine pairs) -> count.

    The principal-edge signs collapse into a single +-1 and only the
    multiset of affine (n, m) pairs matters to either tau-function's
    weight, so this is the kind-independent core of the cycle sum.
    """
    ascending = tuple(a for a, _ in signature)
    head_mu = tuple(m for _, m in signature)
    counts: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}
    for terms in _search(head_mu, ascending, sum(head_mu)):
        sign = 1
        pairs = []
        for q, t in enumerate(terms):
            if t[0] == "P":
                if not ascending[q]:
                    sign = -sign
            else:
                pairs.append((t[1], t[2]))
        key = (sign, tuple(sorted(pairs)))
        counts[key] = counts.get(key, 0) + 1
    return tuple(counts.items())


def _weighted_pair_sums(mu: Partition) -> dict[tuple[tuple[int, int], ...], Fraction]:
    """Total signed multiplicity of each affine (n, m) pair multiset.

    Sums over all (l-1)! cycles (grouped by signature) and all balanced
    assignments, folding in the global (-1)^{l-1} and the principal signs.
    A single part contributes each diagonal pair (n, d-1-n) once.
    """
    d, l = mu.size, mu.length
    if l == 1:
        return {((n, d - 1 - n),): Fraction(1) for n in range(d)}
    global_sign = -1 if l % 2 == 0 else 1
    sig_counts: Counter = Counter()
    for cycle in enumerate_cycles(l):
        sig_counts[_canonical_signature(cycle, mu)] += 1
    out: dict[tuple[tuple[int, int], ...], Fraction] = {}
    for signature in sorted(sig_counts):
        n_cycles = sig_counts[signature]
        for (sign, pairs), count in _signature_summaries(signature):
            total = Fraction(global_sign * sign * n_cycles * count)
            out[pairs] = out.get(pairs, Fraction(0)) + total
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
    return common_denominator_sum(
        (Poly.constant(c), dict(key)) for key, c in accumulated.items()
    )


@lru_cache(maxsize=None)
def simple_generating(mu: Partition) -> ExpSum:
    """The exponential sum equal to sum_g hbar^b / b! * H_{g;mu}, b = 2g-2+d+l.

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
    scale = Fraction(1)
    for p in mu.parts:
        scale /= p
    return ExpSum({k: c * scale for k, c in accumulated.items()})
