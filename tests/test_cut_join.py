"""Cut-and-join: the simple kind checked at every genus at once.

With F_mu = simple_generating(mu), the dict k -> D(mu;k) such that
F_mu = sum_b H_b(mu) hbar^b / b!, and F_(1) = {0: 1}, the last
transposition of a factorization either joins two cycles or cuts one
(Goulden and Jackson, "Transitive factorizations into transpositions and
holomorphic mappings on the sphere", Proc. AMS 1997):

    dF_mu = sum_{i<j} (mu_i + mu_j) F_{mu, parts i and j joined}
          + sum_i sum_{a+c=mu_i} (ac/2) [ F_{mu, part i cut into a, c}
                + sum_{I u J = the other part positions} F_{(a)+I} * F_{(c)+J} ]

Here d multiplies D(k) by k and a product convolves two dicts in k; there
is no 1/|Aut mu| anywhere, as this package counts.  The identity fixes
each H_b(mu) from values at b - 1, down to F_(1), so it holds at every
partition of every d <= D only if the engine is right at every genus for
all |mu| <= D.  It leaves the hbar^0 term free, which sum_k D(mu;k) = 0
pins.
"""
from fractions import Fraction
from functools import cache
from itertools import combinations

from hurwitz.npoint import simple_generating
from hurwitz.partitions import Partition, partitions_of


@cache
def generating(parts):
    if parts == (1,):
        return {0: Fraction(1)}
    return simple_generating(Partition(parts))


def of(parts):
    return generating(Partition.canonical(parts).parts)


def add(acc, terms, scale):
    for k, c in terms.items():
        acc[k] = acc.get(k, 0) + scale * c


def product(f, g):
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


def cut_and_join(parts):
    out = {}
    l = len(parts)
    for i, j in combinations(range(l), 2):
        rest = [p for q, p in enumerate(parts) if q not in (i, j)]
        add(out, of(rest + [parts[i] + parts[j]]), parts[i] + parts[j])
    for i in range(l):
        others = parts[:i] + parts[i + 1:]
        for a in range(1, parts[i]):
            c = parts[i] - a
            weight = Fraction(a * c, 2)
            add(out, of(others + (a, c)), weight)
            for size in range(l):
                for chosen in combinations(range(l - 1), size):
                    first = [a] + [others[q] for q in chosen]
                    second = [c] + [others[q] for q in range(l - 1) if q not in chosen]
                    add(out, product(of(first), of(second)), weight)
    return {k: v for k, v in out.items() if v}


PROFILES = [mu for d in range(2, 11) for mu in partitions_of(d)]


def test_cut_and_join_holds_at_every_genus():
    assert len(PROFILES) == 137
    for mu in PROFILES:
        derivative = {k: k * c for k, c in generating(mu.parts).items() if k}
        assert derivative == cut_and_join(mu.parts), mu.parts


def test_constant_term_vanishes():
    for mu in PROFILES:
        assert sum(generating(mu.parts).values()) == 0, mu.parts
