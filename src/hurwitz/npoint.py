"""Coefficient extraction from the connected n-point cycle-sum formula.

For a profile mu with l parts, the target coefficient of
z_1^{-mu_1-1} ... z_l^{-mu_l-1} is assembled by summing over the full
cycles on {1..l} and, per cycle, over per-edge term choices.  Edge i
joins the i-th and (i+1)-th vertices along the cycle and carries either

* a principal term: one free exponent h >= 0, exponent -1-h on the
  smaller-labelled variable and +h on the larger, sign +1 when the edge
  runs small -> large and -1 otherwise, or
* an affine term with indices (n, m): exponents -n-1 on the tail variable
  and -m-1 on the head, weighted by the affine coordinate a_{n,m}.

Every vertex's two incident exponents must sum to -mu_v - 1, and only the
product of the principal signs per multiset of affine (n, m) pairs reaches
either tau-function's weight.  Cut the cycle after each affine edge into
blocks.  In a block B entered with affine index m', the next edge's tail
takes -1-s, where s = -m' - 1 plus B's parts so far: a principal edge
hands s on to its head and fits iff it ascends when s >= 0 and descends
when s < 0, and the affine edge leaving B takes n = s = mu(B) - 1 - m'.
As s only grows, B's labels fall to its least label and rise after it: a
V, fixed by the set L of labels before the least, balanced iff mu(L) <= m'
< mu(L) + mu(min B), with sign (-1)^|L|.  Parts weakly decrease along the
labels, so the least label carries B's largest part, top, and the signed
count W(t, m') of V orders depends only on the number t_v of B's parts of
each value v.  Over L, the signs sum to prod_v (1 - x^v)^{t_v - [v = top]}
in x^{mu(L)}, and the window adds (1 - x^top)/(1 - x) in x^{m'}, so

    W(t, m') = sum_{j <= m'} [x^j] prod_v (1 - x^v)^{t_v}.

A cycle with its assignment is then the sequence of its blocks from the
one that holds label 1, with affine indices m_0, m_1, ... between them.
Block i has type t_i, enters with m_{i-1}, and contributes W(t_i, m_{i-1})
and the pair (mu(t_i) - 1 - m_{i-1}, m_i), where m_k = m_0 closes the
cycle.  A sequence of types counts once per way to deal out the labels:
C(c_v, t_v) of the c_v labels with part v still left, except that the
first block takes label 1, one of the largest parts.  A block entered with
m holds more than m, so each m_i ranges below the parts still left.

For l = 1 the loop edge 1 -> 1 is one block with one pair (n, m),
n + m = d - 1: the plain diagonal sum of the one-point function.  For
l = 2 the subtracted principal part 1/(z_1 - z_2)^2 expands with only
nonnegative powers of z_2, so it never reaches the target coefficient.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations, product
from math import comb, prod

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
    it by name.  The tests' reference walk lists its cycles from it.
    """
    return [(1,) + rest for rest in permutations(range(2, l + 1))]


@cache
def _block_weights(values: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """W(t, 0..|t|) of the module docstring; t[i] parts of value values[i]."""
    q = [1]
    for v, count in zip(values, t):
        for _ in range(count):
            q = [a - b for a, b in zip(q + [0] * v, [0] * v + q)]
    return tuple(accumulate(q))


def _weighted_pair_sums(mu: Partition) -> dict[tuple[tuple[int, int], ...], int]:
    """Total signed multiplicity of each affine (n, m) pair multiset.

    Sums the block sequences of the module docstring over every m_0 and
    folds in the global (-1)^{l-1}; multisets whose total is zero are left
    out.  The block choices of each (parts left, m) are found once.
    """
    values = tuple(sorted(set(mu.parts), reverse=True))
    counts = tuple(mu.parts.count(v) for v in values)
    unpinned = (0,) * len(values)
    anchor = (1,) + unpinned[1:]  # label 1 takes one of the largest parts

    def size(t: tuple[int, ...]) -> int:
        return sum(v * k for v, k in zip(values, t))

    @cache
    def blocks(left: tuple[int, ...], m: int, pinned: tuple[int, ...]):
        # (parts left after the block, its n, their size, weight times ways)
        choices = []
        for t in product(*(range(a, k + 1) for a, k in zip(pinned, left))):
            # a block holds more than m; this also drops the empty t, whose W is 1
            weight = _block_weights(values, t)[m] if size(t) > m else 0
            if weight:
                ways = prod(comb(k - a, j - a) for k, j, a in zip(left, t, pinned))
                rest = tuple(k - j for k, j in zip(left, t))
                choices.append((rest, size(t) - 1 - m, size(rest), weight * ways))
        return choices

    global_sign = -1 if mu.length % 2 == 0 else 1
    out: dict[tuple[tuple[int, int], ...], int] = {}
    # (parts left, m entering the next block, pinned, m_0, pairs so far, weight)
    stack = [(counts, m0, anchor, m0, (), global_sign) for m0 in range(mu.size)]
    while stack:
        left, m, pinned, m0, pairs, weight = stack.pop()
        for rest, n, rest_size, w in blocks(left, m, pinned):
            if rest_size:
                for m_next in range(rest_size):
                    stack.append(
                        (rest, m_next, unpinned, m0, pairs + ((n, m_next),), weight * w)
                    )
            else:
                key = tuple(sorted(pairs + ((n, m0),)))
                out[key] = out.get(key, 0) + weight * w
    return {pairs: total for pairs, total in out.items() if total}


def _weighted_terms(mu: Partition, affine):
    """Per pair multiset: (each pair's affine hbar data, total times prefactors)."""
    if mu.size < 2:
        raise ValueError("degree must be >= 2")
    for pairs, total in _weighted_pair_sums(mu).items():
        data, prefactors = zip(*(affine(n, m) for n, m in pairs))
        yield data, prod(prefactors, start=total)


def monotone_generating(mu: Partition) -> FactoredRationalFunction:
    """The rational function mu_1...mu_l * sum_g hbar^{2g-2+d+l} vecH_{g;mu}.

    Poles sit only at hbar = 1/k for 1 <= |k| <= d-1; the reduced pole
    order at 1/k never exceeds min(l, (d-1)//|k|).
    """
    accumulated: dict[tuple[tuple[int, int], ...], Fraction] = {}
    for pole_keys, coeff in _weighted_terms(mu, monotone_affine):
        key = tuple(sorted(Counter(k for keys in pole_keys for k in keys).items()))
        accumulated[key] = accumulated.get(key, Fraction(0)) + coeff
    return common_denominator_sum((c, dict(key)) for key, c in accumulated.items())


def simple_generating(mu: Partition) -> dict[int, Fraction]:
    """The exponential sum equal to sum_g hbar^b / b! * H_{g;mu}, b = 2g-2+d+l.

    Returned as a dict k -> D(mu;k), the nonzero coefficient of
    e^{k*hbar}, in increasing k.
    Support is contained in |k| <= d(d-1)/2 and obeys the parity
    D(mu;k) = (-1)^{d+l} D(mu;-k).
    """
    accumulated: dict[int, Fraction] = {}
    for exponents, coeff in _weighted_terms(mu, simple_affine):
        k = sum(exponents)
        accumulated[k] = accumulated.get(k, Fraction(0)) + coeff
    scale = Fraction(1, prod(mu.parts))
    return {k: c * scale for k, c in sorted(accumulated.items()) if c}
