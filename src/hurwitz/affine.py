"""Affine-coordinate edge weights a_{n,m} for the two tau-functions.

These are the raw data the n-point engine multiplies along cycle edges.
Both families share the scalar prefactor (-1)^n / ((m+n+1) * m! * n!) = 1/h,
where h = (-1)^n (m+n+1) m! n! is the signed hook product: up to sign, the
product of the hook lengths of the hook shape (m+1, 1^n).  They differ in
the hbar dependence: a product of (1 + j*hbar)^{-1} factors for the
monotone tau-function, a single exponential for the simple one.  Each
weight is returned raw, as (hbar data, h) with h an int: the pole keys of
the product for the monotone family, the exponent for the simple one.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial

__all__ = ["monotone_affine", "simple_affine"]


def _signed_hook_product(n: int, m: int) -> int:
    return (-1) ** n * (m + n + 1) * factorial(m) * factorial(n)


@lru_cache(maxsize=None)
def monotone_affine(n: int, m: int) -> tuple[tuple[int, ...], int]:
    """Weight (-1)^n / ((m+n+1) m! n!) * prod_{j=-m}^{n} 1/(1 + j*hbar).

    Returned as (keys, h) for (1/h) * prod_k 1/(1 - k*hbar), h the signed
    hook product: the factor (1 + j*hbar) has key k = -j, so keys run over
    -n..m without 0, each once.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    return tuple(k for k in range(-n, m + 1) if k), _signed_hook_product(n, m)


@lru_cache(maxsize=None)
def simple_affine(n: int, m: int) -> tuple[int, int]:
    """Weight (-1)^n / ((m+n+1) m! n!) * e^{hbar (m^2+m-n^2-n)/2}.

    Returned as (k, h) for (1/h) * e^{k*hbar}, h the signed hook product.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    twice = m * m + m - n * n - n
    assert twice % 2 == 0
    return twice // 2, _signed_hook_product(n, m)
