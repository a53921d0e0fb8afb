"""Integer partitions and the combinatorial scalars built on them.

A partition is a weakly decreasing tuple of positive integers; the empty
partition is allowed and has size and length zero.  Everything downstream
(ramification profiles, automorphism orders, branch points) starts here.
"""
from __future__ import annotations

from math import factorial, prod
from operator import index

from .frozen import Frozen

__all__ = ["Partition", "partitions_of", "aut_order", "branch_points"]


class Partition(Frozen):
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        parts = tuple(map(index, parts))
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive integers, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")

    @classmethod
    def canonical(cls, parts) -> Partition:
        """Build a partition from parts given in any order."""
        return cls(tuple(sorted(parts, reverse=True)))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def partitions_of(d: int) -> list[Partition]:
    """All partitions of d, in reverse-lexicographic order."""
    if d < 0:
        raise ValueError("d must be >= 0")
    out: list[Partition] = []

    def descend(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part, prefix)
            prefix.pop()

    descend(d, d, [])
    return out


def aut_order(mu: Partition) -> int:
    """Order of the part-permutation group: product of multiplicity factorials."""
    return prod(factorial(mu.parts.count(p)) for p in set(mu.parts))



def branch_points(mu: Partition, g: int) -> int:
    """Riemann-Hurwitz: b = 2g - 2 + d + l simple branch points at genus g >= 0."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return 2 * g - 2 + mu.size + mu.length
