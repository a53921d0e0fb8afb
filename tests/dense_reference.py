"""Dense-Fraction reference shared by the tests.

These are the algorithms exactarith ran before its inner loops moved to
integer lists, kept here as an independent check of the integer core and
as the tests' own evaluation, Taylor expansion and hbar -> -hbar flip.  A
polynomial is a trimmed tuple of Fraction, index = power of hbar; a factor
map is {k: multiplicity}.  ``int_poly`` carries such a tuple into the
integer ``Poly`` that exactarith takes.  ``ref_cycle_classes`` is the
cycle count npoint ran before its label-insertion recurrence: list every
cycle, then count edge sequences under their least rotation.
``_signature_summaries`` and ``_cycle_classes`` are the walk npoint ran
before its block sum: ``ref_weighted_pair_sums`` walks each edge sequence
up to rotation once and scales it by its number of cycles, zero totals
included.  ``ref_block_pair_sums`` is the block sum npoint ran before
its DP over block states: every block sequence on one stack, and a total
kept per affine (n, m) pair multiset.  ``ref_block_weight`` is the block
weight W(t, m) as npoint summed it before the polynomial form: the signed
walk over the label sets L before the block's least label.  ``conjugate`` and ``hook_product`` are
the Young-diagram helpers that the partition tests check, that
``ref_prefactor`` weighs each pair with, and that the npoint tests check
the one-part pair weights against.  ``ref_generating`` is the weighting npoint ran before its
weights became integers over d!: every pair multiset's total, from
``ref_block_pair_sums``, times a ``Fraction`` prefactor per pair,
accumulated in ``Fraction``.
``ref_evaluate`` is the one-genus evaluation closedform ran before its
values were carried from row to row: every k^b computed afresh from the
terms.  ``ref_table_rows`` renders ``table`` rows as the CLI did before
its sums moved to Decimal: ``str`` of each Fraction from
``ref_evaluate``, and those digits read into Decimal and divided at
six significant digits.  ``tau_correlator`` is the Witten-Kontsevich
intersection number <tau_{k_1} ... tau_{k_n}>_g by the DVV recursion, for
the polynomiality anchors.
"""
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, lcm, prod

from hurwitz.exactarith import Poly, common_denominator_sum
from hurwitz.npoint import _block_weights, enumerate_cycles
from hurwitz.partitions import Partition, branch_points


def ref_trim(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for p in (a, b):
        for i, c in enumerate(p):
            out[i] += c
    return ref_trim(out)


def ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_divide_linear(a, k):
    if not a:
        return a
    quotient = []
    carry = Fraction(0)
    for c in a[:-1]:
        carry = c + k * carry
        quotient.append(carry)
    if a[-1] != -k * carry:
        raise ArithmeticError("polynomial is not divisible by the linear factor")
    return ref_trim(quotient)


def ref_expand(factors):
    out = (Fraction(1),)
    for k in sorted(factors):
        for _ in range(factors[k]):
            out = ref_mul(out, (Fraction(1), Fraction(-k)))
    return out


def ref_reduce(num, factors):
    num = ref_trim(num)
    if not num:
        return (), {}
    factors = dict(factors)
    for k in sorted(factors):
        while factors[k] and ref_eval(num, Fraction(1, k)) == 0:
            num = ref_divide_linear(num, k)
            factors[k] -= 1
    return num, {k: e for k, e in sorted(factors.items()) if e}


def ref_sum(terms):
    terms = [(ref_trim(num), factors) for num, factors in terms]
    terms = [(num, factors) for num, factors in terms if num]
    common = {}
    for _, factors in terms:
        for k, e in factors.items():
            common[k] = max(common.get(k, 0), e)
    total = ()
    for num, factors in terms:
        deficit = {k: e - factors.get(k, 0) for k, e in common.items()}
        total = ref_add(total, ref_mul(ref_expand(deficit), num))
    return ref_reduce(total, common)


def ref_partial_fractions(num, factors):
    remaining = dict(factors)
    terms = {}
    for k in sorted(factors):
        point = Fraction(1, k)
        while remaining.get(k):
            order = remaining[k]
            cofactor = ref_expand({j: e for j, e in remaining.items() if j != k})
            coeff = ref_eval(num, point) / ref_eval(cofactor, point)
            if coeff:
                terms[(k, order)] = coeff
                num = ref_add(num, ref_mul(cofactor, (-coeff,)))
            num = ref_divide_linear(num, k)
            remaining[k] = order - 1
    assert len(num) <= 1
    return (num[0] if num else Fraction(0)), terms


def ref_taylor(num, factors, order):
    series = [num[j] if j < len(num) else Fraction(0) for j in range(order + 1)]
    for k, e in sorted(factors.items()):
        for _ in range(e):
            prev = Fraction(0)
            for j in range(order + 1):
                prev = series[j] + k * prev
                series[j] = prev
    return series


def int_poly(values):
    """The integer Poly equal to a tuple of rationals."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return Poly(tuple(v.numerator * (den // v.denominator) for v in values), den)


def as_pair(f):
    num = f.numerator
    return tuple(Fraction(c, num.den) for c in num.coeffs), dict(f.denominator_factors)


def ref_value(f, x):
    """A FactoredRationalFunction's value at hbar = x."""
    num, factors = as_pair(f)
    return ref_eval(num, x) / ref_eval(ref_expand(factors), x)


def ref_flip(f):
    """f(-hbar) as a pair: odd coefficients and every pole key change sign."""
    num, factors = as_pair(f)
    flipped = tuple(-c if j % 2 else c for j, c in enumerate(num))
    return flipped, {-k: e for k, e in factors.items()}


def edge_sequence(cycle, parts):
    """(ascending, head part) of each edge of a cycle, read from vertex 1."""
    heads = cycle[1:] + cycle[:1]
    return tuple(t < h for t, h in zip(cycle, heads)), tuple(parts[h - 1] for h in heads)


def ref_cycle_classes(parts):
    """Cycles per edge sequence up to rotation, keyed by the least rotation."""
    classes = Counter()
    for cycle in enumerate_cycles(len(parts)):
        asc, heads = edge_sequence(cycle, parts)
        classes[min((asc[r:] + asc[:r], heads[r:] + heads[:r]) for r in range(len(asc)))] += 1
    return classes


def _signature_summaries(
    ascending: tuple[bool, ...], head_mu: tuple[int, ...]
) -> dict[tuple[tuple[int, int], ...], int]:
    """Signed count of one edge sequence's balanced assignments per pair multiset.

    Edge i runs small -> large when ascending[i] and has the part head_mu[i]
    at its head.  Only the multiset of affine (n, m) pairs matters to either
    tau-function's weight, so each balanced assignment adds the product of
    its principal signs to its multiset's count; this is the kind-independent
    core of the cycle sum.  The walk starts at the least affine edge (every
    balanced assignment has one) with its m index m0 chosen and carries the
    running sum s of npoint's module docstring; each step adds the next head's
    part to s + consumed, so s <= d - 1 throughout, and closing the cycle
    fixes the starting edge's n index to s = d - consumed.  Returns a dict
    pair multiset -> count.  Not cached: ``ref_weighted_pair_sums`` calls
    it once per rotation class, and each request is one profile and one kind.
    """
    d, l = sum(head_mu), len(head_mu)
    counts: dict[tuple[tuple[int, int], ...], int] = {}

    def extend(pos, first, m0, r, consumed, sign, pairs) -> None:
        q = (first + pos) % l
        s = r + head_mu[q - 1]  # edge q's tail takes -1-s
        if pos == l:
            # never negative: the m ranges below keep consumed <= d
            assert s == d - consumed, "vertex balances must consume degree d"
            key = tuple(sorted(pairs + ((s, m0),)))
            counts[key] = counts.get(key, 0) + sign
            return
        if ascending[q] == (s >= 0):  # principal: the head takes s
            extend(pos + 1, first, m0, s, consumed, sign if s >= 0 else -sign, pairs)
        if s >= 0 and q > first:  # affine (n, m) = (s, m)
            for m in range(d - consumed - s):
                extend(
                    pos + 1, first, m0, -m - 1, consumed + s + m + 1,
                    sign, pairs + ((s, m),),
                )

    for first in range(l):
        for m0 in range(d):
            extend(1, first, m0, -m0 - 1, m0 + 1, 1, ())
    return counts


def _cycle_classes(parts: tuple[int, ...]) -> Counter:
    """Number of full cycles on {1..l} per edge sequence, up to rotation.

    Keys are least rotations of the (ascending, head parts) pair that
    ``_signature_summaries`` takes.  Each cycle on labels {x..l} arises once
    from a cycle on {x+1..l} by putting x on one edge t -> h, which becomes
    t -> x (descending, head mu_x) and x -> h (ascending, head mu_h); so the
    labels l-1, ..., 1 go in at every position of each class, in turn.
    """
    classes = Counter({((False,), parts[-1:]): 1})
    for part in reversed(parts[:-1]):
        grown: Counter = Counter()
        for (asc, heads), n_cycles in classes.items():
            for j in range(len(asc)):
                a = asc[:j] + (False, True) + asc[j + 1:]
                h = heads[:j] + (part,) + heads[j:]
                grown[min((a[r:] + a[:r], h[r:] + h[:r]) for r in range(len(a)))] += n_cycles
        classes = grown
    return classes


def ref_weighted_pair_sums(mu: Partition) -> dict[tuple[tuple[int, int], ...], int]:
    """Every pair multiset's total over the classes, with (-1)^{l-1} folded in."""
    global_sign = -1 if mu.length % 2 == 0 else 1
    out: dict[tuple[tuple[int, int], ...], int] = {}
    for signature, n_cycles in _cycle_classes(mu.parts).items():
        scale = global_sign * n_cycles
        for pairs, count in _signature_summaries(*signature).items():
            out[pairs] = out.get(pairs, 0) + scale * count
    return out


def ref_block_pair_sums(mu: Partition) -> dict[tuple[tuple[int, int], ...], int]:
    """Total signed multiplicity of each affine (n, m) pair multiset.

    Sums the block sequences of npoint's module docstring over every m_0 and
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


def ref_block_weight(values: tuple[int, ...], t: tuple[int, ...], m: int) -> int:
    """W(t, m) of the npoint docstring; t[i] parts of value values[i], decreasing."""
    top = next(v for v, count in zip(values, t) if count)
    free = [count - (v == top) for v, count in zip(values, t)]
    total = 0
    for before in product(*(range(count + 1) for count in free)):
        below = sum(v * k for v, k in zip(values, before))
        if below <= m < below + top:
            total += (-1) ** sum(before) * prod(map(comb, free, before))
    return total


def conjugate(mu: Partition) -> Partition:
    """Reflect the Young diagram along the main diagonal."""
    if not mu.parts:
        return Partition()
    cols = [0] * mu.parts[0]
    for p in mu.parts:
        for j in range(p):
            cols[j] += 1
    return Partition(tuple(cols))


def hook_product(mu: Partition) -> int:
    """Product of all hook lengths mu_i + mu^t_j - i - j + 1; 1 for the empty shape."""
    conj = conjugate(mu).parts
    out = 1
    for i, row in enumerate(mu.parts, start=1):
        for j in range(1, row + 1):
            out *= row + conj[j - 1] - i - j + 1
    return out


@cache
def ref_prefactor(n: int, m: int) -> Fraction:
    """(-1)^n / ((n+m+1) n! m!), the affine prefactor, from the hook (m+1, 1^n)."""
    return Fraction((-1) ** n, hook_product(Partition((m + 1,) + (1,) * n)))


def ref_generating(mu: Partition, kind: str):
    """simple_generating or monotone_generating by Fraction prefactors.

    Each pair multiset's total times its pairs' prefactors is accumulated
    per exponent sum (m^2+m-n^2-n)/2 (simple, then over mu_1...mu_l) or per
    pole multiset, keys -n..m without 0 for each pair (monotone).
    """
    accumulated: dict = {}
    for pairs, total in ref_block_pair_sums(mu).items():
        coeff = prod((ref_prefactor(n, m) for n, m in pairs), start=Fraction(total))
        if kind == "simple":
            key = sum((m * m + m - n * n - n) // 2 for n, m in pairs)
        else:
            keys = Counter(k for n, m in pairs for k in range(-n, m + 1) if k)
            key = tuple(sorted(keys.items()))
        accumulated[key] = accumulated.get(key, Fraction(0)) + coeff
    if kind == "simple":
        scale = Fraction(1, prod(mu.parts))
        return {k: c * scale for k, c in sorted(accumulated.items()) if c}
    return common_denominator_sum((c, dict(key)) for key, c in accumulated.items())


def ref_evaluate(form, g):
    """Exact value of a GenusClosedForm at genus g >= 0, from scratch."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    b = 2 * g - 2 + form.mu.size + form.mu.length
    den = lcm(*(c.denominator for _, _, c in form.terms))
    total = sum(
        c.numerator * (den // c.denominator) * b ** (i - 1) * k**b for k, i, c in form.terms
    )
    return form.normalization * Fraction(total, den)


def ref_table_rows(form, genus_max):
    """(g, b, value, decimal) strings of ``table`` for g = 0..genus_max."""
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rows = []
        with localcontext() as ctx:
            ctx.prec = 6
            for g in range(genus_max + 1):
                exact = str(ref_evaluate(form, g))
                numerator, _, denominator = exact.partition("/")
                shown = str(Decimal(numerator) / Decimal(denominator or 1))
                rows.append((g, branch_points(form.mu, g), exact, shown))
        return rows
    finally:
        sys.set_int_max_str_digits(digit_limit)


def _double_factorial(n: int) -> int:
    """n!! for odd n >= -1, with (-1)!! = 1."""
    return prod(range(n, 0, -2))


_TAU_SEEDS = {(0, (0, 0, 0)): Fraction(1), (1, (1,)): Fraction(1, 24)}


@cache
def tau_correlator(g: int, ks: tuple[int, ...]) -> Fraction:
    """<tau_{k_1} ... tau_{k_n}>_g by the Dijkgraaf-Verlinde-Verlinde recursion.

    ``ks`` is sorted increasing.  Zero unless sum k = 3g - 3 + n; the seeds
    are <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  The largest index k + 1 is
    removed:  (2k+3)!! <tau_{k+1} tau_S>_g =
        sum_j (2k+2k_j+1)!!/(2k_j-1)!! <tau_{k+k_j} tau_{S-j}>_g
      + 1/2 sum_{r+s=k-1} (2r+1)!!(2s+1)!! (<tau_r tau_s tau_S>_{g-1}
            + sum_{g1+g2=g, I+J=S} <tau_r tau_I>_{g1} <tau_s tau_J>_{g2}).
    """
    if g < 0 or not ks or ks[0] < 0 or sum(ks) != 3 * g - 3 + len(ks):
        return Fraction(0)
    if (g, ks) in _TAU_SEEDS:
        return _TAU_SEEDS[g, ks]
    df = _double_factorial
    k, rest = ks[-1] - 1, ks[:-1]
    total = Fraction(0)
    for j, kj in enumerate(rest):
        others = rest[:j] + rest[j + 1 :]
        weight = Fraction(df(2 * k + 2 * kj + 1), df(2 * kj - 1))
        total += weight * tau_correlator(g, tuple(sorted(others + (k + kj,))))
    for r in range(k):
        s = k - 1 - r
        half = Fraction(df(2 * r + 1) * df(2 * s + 1), 2)
        total += half * tau_correlator(g - 1, tuple(sorted(rest + (r, s))))
        for g1, side in product(range(g + 1), product((0, 1), repeat=len(rest))):
            left = tuple(sorted([r, *(x for x, b in zip(rest, side) if b)]))
            right = tuple(sorted([s, *(x for x, b in zip(rest, side) if not b)]))
            total += half * tau_correlator(g1, left) * tau_correlator(g - g1, right)
    return total / df(2 * k + 3)
