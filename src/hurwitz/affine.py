"""Affine-coordinate edge weights a_{n,m} for the two tau-functions.

These are the raw data the n-point engine multiplies along cycle edges.
Both families share the scalar prefactor (-1)^n / ((m+n+1) * m! * n!),
which is the reciprocal hook product of the hook shape (m|n); they differ
in the hbar dependence: a product of (1 + j*hbar)^{-1} factors for the
monotone tau-function, a single exponential for the simple one.  Each
weight is returned raw, as (hbar data, prefactor): the pole keys of the
product for the monotone family, the exponent for the simple one.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

__all__ = ["monotone_affine", "simple_affine"]


def _hook_coefficient(n: int, m: int) -> Fraction:
    return Fraction((-1) ** n, (m + n + 1) * factorial(m) * factorial(n))


@lru_cache(maxsize=None)
def monotone_affine(n: int, m: int) -> tuple[tuple[int, ...], Fraction]:
    """Weight (-1)^n / ((m+n+1) m! n!) * prod_{j=-m}^{n} 1/(1 + j*hbar).

    Returned as (keys, coefficient) for coefficient * prod_k 1/(1 - k*hbar):
    the factor (1 + j*hbar) has key k = -j, so keys run over -n..m without 0,
    each once.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    return tuple(k for k in range(-n, m + 1) if k), _hook_coefficient(n, m)


@lru_cache(maxsize=None)
def simple_affine(n: int, m: int) -> tuple[int, Fraction]:
    """Weight (-1)^n / ((m+n+1) m! n!) * e^{hbar (m^2+m-n^2-n)/2}.

    Returned as (k, coefficient) for coefficient * e^{k*hbar}.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    twice = m * m + m - n * n - n
    assert twice % 2 == 0
    return twice // 2, _hook_coefficient(n, m)
