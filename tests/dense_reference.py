"""Dense-Fraction reference shared by the tests.

These are the algorithms exactarith ran before its inner loops moved to
integer lists, kept here as an independent check of the integer core and
as the tests' own evaluation, Taylor expansion and hbar -> -hbar flip.  A
polynomial is a trimmed tuple of Fraction, index = power of hbar; a factor
map is {k: multiplicity}.  ``int_poly`` carries such a tuple into the
integer ``Poly`` that exactarith takes.
"""
from fractions import Fraction
from math import lcm

from hurwitz.exactarith import Poly


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
