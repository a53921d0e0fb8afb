"""Coefficient extraction from the connected n-point cycle-sum formula.

For a profile mu with l parts, the target coefficient of
z_1^{-mu_1-1} ... z_l^{-mu_l-1} is assembled by summing over the full
cycles on {1..l} and, per cycle, over per-edge term choices.  Edge i
joins the i-th and (i+1)-th vertices along the cycle and carries either

* a principal term: one free exponent h >= 0, exponent -1-h on the
  smaller-labelled variable and +h on the larger, sign +1 when the edge
  runs small -> large and -1 otherwise, or
* an affine term with indices (n, m): exponents -n-1 on the tail variable
  and -m-1 on the head, weighted by the affine coordinate

      a_{n,m} = (-1)^n / ((n+m+1) n! m!) * (hbar part),

  where the hbar part is prod_{j=-m}^{n} 1/(1 + j*hbar) for the monotone
  tau-function and e^{hbar (m^2+m-n^2-n)/2} for the simple one.

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

These sequences are summed by a DP over block states (the multiset of
parts left as (value, count) pairs, m, whether the block takes label 1,
m_0), each memoized as a map from an int key to an int total up to the
cycle's close.  The pairs' n + m + 1 add up to d, and (n+m+1)! times
a_{n,m}'s scalar is (-1)^n C(n+m, n); so with rem = mu(left) + m_0 - m
still to deal, pair (n, m) weighs the integer (-1)^n C(n+m, n)
C(rem, n+m+1), and a cycle's scalars multiply to an integer over d!.  A
pair's hbar part is its int key, and keys add along the cycle: the
exponent k of e^{k*hbar} (simple), or the keys k = -j of the poles
1/(1 - k*hbar) as base-2^w digits, w = l.bit_length(), pole k at digit
2k - 1 for k > 0 and -2k for k < 0 (monotone); a pair holds each pole
once and a cycle at most l pairs, so no digit carries.  No state, block
or key names its profile, so the memos are module-level and serve every
profile in a process: a sweep over many profiles builds each state once
per pair-key function, and the monotone kind has one key function per
width w.

For l = 1 the loop edge 1 -> 1 is one block with one pair (n, m),
n + m = d - 1: the plain diagonal sum of the one-point function.  For
l = 2 the subtracted principal part 1/(z_1 - z_2)^2 expands with only
nonnegative powers of z_2, so it never reaches the target coefficient.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations, product
from math import comb, factorial, prod

from .exactarith import FactoredRationalFunction, common_denominator_sum
from .partitions import Partition

__all__ = [
    "enumerate_cycles",
    "monotone_affine",
    "simple_affine",
    "monotone_generating",
    "simple_generating",
]


@cache
def monotone_affine(n: int, m: int) -> tuple[int, ...]:
    """The poles of a_{n,m}'s monotone hbar part, as keys k of 1/(1 - k*hbar).

    The factor 1/(1 + j*hbar) has key k = -j, so keys run over -n..m
    without 0, each once.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    return tuple(k for k in range(-n, m + 1) if k)


@cache
def simple_affine(n: int, m: int) -> int:
    """The exponent k of a_{n,m}'s simple hbar part e^{k*hbar}."""
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    return (m * m + m - n * n - n) // 2


def enumerate_cycles(l: int) -> list[tuple[int, ...]]:
    """All (l-1)! full cycles on {1..l}, as visiting sequences starting at 1.

    The engine does not call it; it stays because perfbench/tracer.py wraps
    it by name.  The tests' reference ``ref_cycle_classes`` lists its cycles
    from it.
    """
    return [(1,) + rest for rest in permutations(range(2, l + 1))]


@cache
def _block_weights(block: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """W(t, 0..|t|) of the module docstring; t holds (value, count) pairs."""
    q = [1]
    for v, count in block:
        for _ in range(count):
            q = [a - b for a, b in zip(q + [0] * v, [0] * v + q)]
    return tuple(accumulate(q))


@cache
def _blocks(left: tuple[tuple[int, int], ...], m: int, pinned: bool):
    """(parts left after the block, its n, their size, weight times ways).

    If pinned, the block takes label 1, one of the largest parts.
    """
    choices, lows = [], [pinned] + [0] * (len(left) - 1)
    for t in product(*(range(a, k + 1) for a, (_, k) in zip(lows, left))):
        block = tuple((v, j) for (v, _), j in zip(left, t) if j)
        size = sum(v * j for v, j in block)
        # a block holds more than m; this also drops the empty block, whose W is 1
        weight = _block_weights(block)[m] if size > m else 0
        if weight:
            ways = prod(comb(k - a, j - a) for a, (_, k), j in zip(lows, left, t))
            rest = tuple((v, k - j) for (v, k), j in zip(left, t) if k > j)
            choices.append((rest, size - 1 - m, sum(v * k for v, k in rest), weight * ways))
    return choices


@cache
def _tail(affine, left: tuple[tuple[int, int], ...], m: int, pinned: bool, m0: int):
    """Key totals of the pairs from this block state to the cycle's close."""
    # the pairs from here to the close have n + m' + 1 summing to rem
    rem, out = sum(v * k for v, k in left) + m0 - m, {}
    for rest, n, rest_size, w in _blocks(left, m, pinned):
        for m_next in range(rest_size) if rest_size else (m0,):
            key, s = affine(n, m_next), n + m_next + 1
            weight = (-1) ** n * comb(s - 1, n) * comb(rem, s) * w
            ends = _tail(affine, rest, m_next, False, m0) if rest_size else {0: 1}
            for k, total in ends.items():
                out[key + k] = out.get(key + k, 0) + weight * total
    return out


def _key_totals(mu: Partition, affine) -> dict[int, int]:
    """The module docstring's DP; ``affine(n, m)`` gives a pair's int key."""
    if mu.size < 2:
        raise ValueError("degree must be >= 2")
    parts = tuple((v, mu.parts.count(v)) for v in sorted(set(mu.parts), reverse=True))
    sign = -1 if mu.length % 2 == 0 else 1
    out: dict[int, int] = {}
    for m0 in range(mu.size):
        for k, total in _tail(affine, parts, m0, True, m0).items():
            out[k] = out.get(k, 0) + sign * total
    return out


def _digit(k: int) -> int:
    """The base-2^w digit of pole k in a packed monotone key."""
    return 2 * k - 1 if k > 0 else -2 * k


@cache
def _packer(w: int):
    """The monotone pair key at digit width w, one per w, so states are shared."""
    def packed(n: int, m: int) -> int:
        return sum(1 << w * _digit(k) for k in monotone_affine(n, m))
    return packed


def monotone_generating(mu: Partition) -> FactoredRationalFunction:
    """The rational function mu_1...mu_l * sum_g hbar^{2g-2+d+l} vecH_{g;mu}.

    Poles sit only at hbar = 1/k for 1 <= |k| <= d-1; the reduced pole
    order at 1/k never exceeds min(l, (d-1)//|k|).
    """
    d, w = mu.size, mu.length.bit_length()

    def poles(key: int) -> dict[int, int]:
        return {k: e for k in range(1 - d, d) if (e := key >> w * _digit(k) & (1 << w) - 1)}

    den = factorial(d)
    totals = _key_totals(mu, _packer(w))
    return common_denominator_sum((Fraction(c, den), poles(key)) for key, c in totals.items())


def simple_generating(mu: Partition) -> dict[int, Fraction]:
    """The exponential sum equal to sum_g hbar^b / b! * H_{g;mu}, b = 2g-2+d+l.

    Returned as a dict k -> D(mu;k), the nonzero coefficient of
    e^{k*hbar}, in increasing k.
    Support is contained in |k| <= d(d-1)/2 and obeys the parity
    D(mu;k) = (-1)^{d+l} D(mu;-k).
    """
    den = factorial(mu.size) * prod(mu.parts)
    totals = _key_totals(mu, simple_affine)
    return {k: Fraction(c, den) for k, c in sorted(totals.items()) if c}
