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

The test runs in ints.  Each F_nu is held times d(nu)! * prod(nu), and the
identity is multiplied by 2 * d! * prod(mu); every denominator then
cancels, and the weights become 2 mu_i mu_j for a join, mu_i for a cut,
and mu_i * C(d, |first factor|) for each product.
"""
from collections import Counter
from functools import cache
from itertools import combinations, product
from math import comb, factorial, prod

from hurwitz.npoint import simple_generating
from hurwitz.partitions import Partition, partitions_of


@cache
def generating(parts):
    """F_mu times d! * prod(mu), as an int dict k -> value."""
    if parts == (1,):
        return {0: 1}
    scale = factorial(sum(parts)) * prod(parts)
    scaled = {k: c * scale for k, c in simple_generating(Partition(parts)).items()}
    assert all(c.denominator == 1 for c in scaled.values()), parts
    return {k: c.numerator for k, c in scaled.items()}


def canonical(parts):
    return Partition.canonical(parts).parts


def add(acc, terms, scale):
    for k, c in terms.items():
        acc[k] = acc.get(k, 0) + scale * c


@cache
def convolve(first, second):
    out = {}
    for k1, c1 in generating(first).items():
        for k2, c2 in generating(second).items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


def cut_and_join(parts):
    """The right side times 2 * d! * prod(mu)."""
    out = {}
    d, l = sum(parts), len(parts)
    for i, j in combinations(range(l), 2):
        rest = [p for q, p in enumerate(parts) if q not in (i, j)]
        add(out, generating(canonical(rest + [parts[i] + parts[j]])), 2 * parts[i] * parts[j])
    for i in range(l):
        others = parts[:i] + parts[i + 1:]
        # the split of the other parts, grouped by how many of each value go first
        values = Counter(others)
        for a in range(1, parts[i]):
            c = parts[i] - a
            add(out, generating(canonical(others + (a, c))), parts[i])
            for taken in product(*(range(k + 1) for k in values.values())):
                first = Counter(dict(zip(values, taken)))
                ways = prod(map(comb, values.values(), taken))
                pair = canonical([a, *first.elements()]), canonical([c, *(values - first).elements()])
                add(out, convolve(*pair), parts[i] * ways * comb(d, sum(pair[0])))
    return {k: v for k, v in out.items() if v}


PROFILES = [mu for d in range(2, 13) for mu in partitions_of(d)]


def test_cut_and_join_holds_at_every_genus():
    assert len(PROFILES) == 270
    for mu in PROFILES:
        derivative = {k: 2 * k * c for k, c in generating(mu.parts).items() if k}
        assert derivative == cut_and_join(mu.parts), mu.parts


def test_constant_term_vanishes():
    for mu in PROFILES:
        assert sum(generating(mu.parts).values()) == 0, mu.parts
