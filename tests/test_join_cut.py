"""Join-cut: the monotone kind checked at every genus at once.

Let J_k = (1 k) + ... (k-1 k) be the Jucys-Murphy elements of S_d.  The
complete symmetric functions h_r(J_2, ..., J_d) sum the products of the
monotone r-tuples of transpositions (a_1 b_1) ... (a_r b_r), a_i < b_i,
b_1 <= ... <= b_r, so

    Phi_d = prod_{k=2}^{d} 1/(1 - hbar J_k) = sum_r hbar^r h_r(J_2, ..., J_d)

is central (Jucys 1974; Murphy 1981), and [sigma] Phi_d counts the
monotone tuples with product sigma.  Let psi(mu) be the count of the
transitive ones for a sigma of type mu, as a series in hbar; it is
``monotone_generating(mu)``, and psi((1)) = 1.  From
Phi_d = Phi_{d-1} + hbar Phi_d J_d, the last transposition of a transitive
tuple with d >= 2 is (a d), and the rest is a monotone tuple with product
sigma (a d):

* if a lies in another cycle, of length mu_j, sigma (a d) joins the two,
  and the rest is transitive: mu_j choices of a;
* if a lies in d's cycle, of length mu_i, sigma (a d) cuts it into a piece
  of length r that holds d and one of length mu_i - r, one a for each
  r = 1 .. mu_i - 1.  The rest either is transitive, or has two orbits,
  one through each piece, that share out the other cycles as I and J.
  Two monotone tuples on disjoint labels merge in one way only, sorted by
  b, so the second case counts psi((r) + I) psi((mu_i - r) + J).

Hence, with d in a cycle of length mu_i (Goulden, Guay-Paquet and Novak,
"Monotone Hurwitz numbers in genus zero", Canad. J. Math. 2013):

    psi(mu) = hbar ( sum_{j != i} mu_j psi(mu, parts i and j joined)
                   + sum_{r=1}^{mu_i - 1} [ psi(mu, part i cut into r, mu_i - r)
                        + sum_{I u J = the other parts} psi((r)+I) psi((mu_i-r)+J) ] )

The hbar^b term is fixed by terms at b - 1 and by lower degrees, down to
psi((1)), so if the identity holds at every partition of every d <= D for
every choice of i, the engine is right at every genus for all |mu| <= D.

The test runs in ints.  psi(nu) counts tuples, so it is an int series; its
poles sit at hbar = 1/k of order at most (d-1)//|k|, so psi(nu) times
Q_d = prod_{1<=|k|<d} (1 - k hbar)^{(d-1)//|k|}, d = |nu|, is an int
polynomial P_nu.  The identity is multiplied by Q_d, and a product term by
Q_d / (Q_a Q_c), a polynomial since (a-1)//k + (c-1)//k <= (d-1)//k.
"""
from collections import Counter
from functools import cache
from itertools import product
from math import comb, prod

from hurwitz.npoint import monotone_generating
from hurwitz.partitions import Partition, partitions_of


def times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def add(acc, terms, scale):
    acc.extend([0] * (len(terms) - len(acc)))
    for j, c in enumerate(terms):
        acc[j] += scale * c


def trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def pole_bound(d):
    return {k: (d - 1) // abs(k) for k in range(1 - d, d) if k}


def expand(exponents):
    """prod_k (1 - k hbar)^{e_k} as an int coefficient list."""
    out = [1]
    for k, e in exponents.items():
        assert e >= 0, exponents
        for _ in range(e):
            out = times(out, [1, -k])
    return out


@cache
def generating(parts):
    """P_nu = psi(nu) * Q_d, as an int coefficient list with no trailing 0."""
    if parts == (1,):
        return [1]
    f = monotone_generating(Partition(parts))
    assert f.numerator.den == 1, parts  # psi counts tuples
    bound = pole_bound(sum(parts))
    assert set(f.denominator_factors) <= set(bound), parts
    deficit = {k: e - f.denominator_factors.get(k, 0) for k, e in bound.items()}
    return trim(times(list(f.numerator.coeffs), expand(deficit)))


@cache
def cofactor(a, c):
    """Q_{a+c} / (Q_a Q_c)."""
    big, one, two = pole_bound(a + c), pole_bound(a), pole_bound(c)
    return expand({k: e - one.get(k, 0) - two.get(k, 0) for k, e in big.items()})


@cache
def convolve(first, second):
    return times(times(generating(first), generating(second)), cofactor(sum(first), sum(second)))


def canonical(parts):
    return Partition.canonical(parts).parts


def join_cut(parts, i):
    """The right side times Q_d, with d in the cycle of part i."""
    out = []
    others = parts[:i] + parts[i + 1:]
    for j, p in enumerate(others):
        rest = others[:j] + others[j + 1:]
        add(out, generating(canonical(rest + (parts[i] + p,))), p)
    # the split of the other parts, grouped by how many of each value go first
    values = Counter(others)
    for r in range(1, parts[i]):
        c = parts[i] - r
        add(out, generating(canonical(others + (r, c))), 1)
        for taken in product(*(range(k + 1) for k in values.values())):
            first = Counter(dict(zip(values, taken)))
            ways = prod(map(comb, values.values(), taken))
            pair = canonical([r, *first.elements()]), canonical([c, *(values - first).elements()])
            add(out, convolve(*pair), ways)
    return trim([0] + out)


PROFILES = [mu for d in range(2, 13) for mu in partitions_of(d)]


def test_join_cut_holds_at_every_genus():
    assert len(PROFILES) == 270
    for mu in PROFILES:
        for i in sorted({mu.parts.index(p) for p in mu.parts}):
            assert generating(mu.parts) == join_cut(mu.parts, i), (mu.parts, i)
