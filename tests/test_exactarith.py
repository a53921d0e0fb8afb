import copy
import pickle
import random
from collections.abc import Hashable
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, strategies as st

from hurwitz.closedform import (
    GenusClosedForm,
    asymptotics,
    monotone_closed_form,
    structure_checks,
)
from hurwitz.exactarith import (
    FactoredRationalFunction,
    PartialFraction,
    Poly,
    _divide_linear,
    common_denominator_sum,
    partial_fractions,
    recombine,
)
from hurwitz.npoint import monotone_generating
from hurwitz.partitions import Partition

from dense_reference import (
    as_pair,
    int_poly,
    ref_divide_linear,
    ref_eval,
    ref_expand,
    ref_flip,
    ref_mul,
    ref_partial_fractions,
    ref_reduce,
    ref_sum,
    ref_taylor,
    ref_trim,
    ref_value,
)


def simple_pole(k):
    return FactoredRationalFunction(Poly((1,)), {k: 1})


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly((0, 0)).is_zero()

    def test_lowest_terms_over_one_denominator(self):
        p = Poly((2, 12, 0), 16)
        assert (p.coeffs, p.den) == ((1, 6), 8)
        assert Poly((6, -4), -2) == Poly((-3, 2))
        assert (Poly().coeffs, Poly().den) == ((), 1)
        with pytest.raises(ZeroDivisionError):
            Poly((1,), 0)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError, match="must be int"):
            Poly((Fraction(1, 2),))
        with pytest.raises(TypeError, match="must be int"):
            Poly((1,), Fraction(2))

    def test_degree(self):
        assert Poly().degree == -1
        assert Poly((1, 0, 3)).degree == 2


@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=6),
    st.integers(min_value=1, max_value=12),
    st.dictionaries(
        st.integers(min_value=-4, max_value=4).filter(bool),
        st.integers(min_value=1, max_value=2),
        max_size=3,
    ),
)
def test_poly_canonical_form(values, extra, factors):
    """Scaled integers over any den, of either sign, give one Poly."""
    den = extra * lcm(*(v.denominator for v in values))
    scaled = tuple(int(v * den) for v in values)
    forms = [
        int_poly(values),
        Poly(scaled, den),
        Poly(tuple(-c for c in scaled), -den),
    ]
    first = forms[0]
    assert first.den > 0 and gcd(first.den, *first.coeffs) == 1
    assert not first.coeffs or first.coeffs[-1] != 0
    assert all(type(c) is int for c in (first.den, *first.coeffs))
    trimmed = list(values)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert [Fraction(c, first.den) for c in first.coeffs] == trimmed
    rfs = [FactoredRationalFunction(p, factors) for p in forms]
    for p, f in zip(forms, rfs):
        assert (p.coeffs, p.den) == (first.coeffs, first.den)
        assert p == first and hash(p) == hash(first)
        assert f == rfs[0]


class TestFactoredRationalFunction:
    def test_zero_key_rejected(self):
        with pytest.raises(ValueError):
            FactoredRationalFunction(Poly((1,)), {0: 1})

    def test_reduction(self):
        # (1 - 2*hbar) / (1 - 2*hbar)^2 -> 1 / (1 - 2*hbar)
        f = FactoredRationalFunction(Poly((1, -2)), {2: 2})
        assert f == simple_pole(2)

    def test_zero_numerator_clears_factors(self):
        f = FactoredRationalFunction(Poly(), {3: 2})
        assert f.numerator.is_zero()
        assert f.denominator_factors == {}

    def test_add_identity(self):
        total = common_denominator_sum([(Fraction(1), {1: 1}), (Fraction(0), {})])
        assert total == simple_pole(1)

    def test_add_symmetric_pair(self):
        total = common_denominator_sum([(Fraction(1), {1: 1}), (Fraction(1), {-1: 1})])
        assert total == FactoredRationalFunction(Poly((2,)), {1: 1, -1: 1})

    def test_add_with_cancellation(self):
        # 1/(1-2h) - 1/(1-2h)^2 = -2h/(1-2h)^2
        total = common_denominator_sum([(Fraction(1), {2: 1}), (Fraction(-1), {2: 2})])
        assert total == FactoredRationalFunction(Poly((0, -2)), {2: 2})


class TestPartialFractions:
    def test_two_simple_poles(self):
        f = FactoredRationalFunction(Poly((1,)), {1: 1, -1: 1})
        pf = partial_fractions(f)
        assert pf.constant == 0
        assert pf.terms == {(1, 1): Fraction(1, 2), (-1, 1): Fraction(1, 2)}

    def test_one_point_profile_five(self):
        # 14 hbar^4 / prod_{i=1}^{4} (1 - i^2 hbar^2)
        f = FactoredRationalFunction(
            Poly((0, 0, 0, 0, 14)), {k: 1 for k in (1, -1, 2, -2, 3, -3, 4, -4)}
        )
        pf = partial_fractions(f)
        expected = {
            (4, 1): Fraction(4, 45),
            (3, 1): Fraction(-9, 40),
            (2, 1): Fraction(7, 45),
            (1, 1): Fraction(-7, 360),
        }
        for (k, i), coeff in expected.items():
            assert pf.terms[(k, i)] == coeff
            assert pf.terms[(-k, i)] == coeff  # even profile: mirror equality
        assert pf.constant == 0

    def test_double_pole(self):
        # (5 - 3h)/(1-2h)^2 = (7/2)/(1-2h)^2 + (3/2)/(1-2h); expansion checked
        # against the reference Taylor coefficients to order 3 below
        f = FactoredRationalFunction(Poly((5, -3)), {2: 2})
        pf = partial_fractions(f)
        assert pf.constant == 0
        assert pf.terms == {(2, 2): Fraction(7, 2), (2, 1): Fraction(3, 2)}
        series = ref_taylor(*as_pair(f), 3)
        for j, coeff in enumerate(series):
            direct = Fraction(7, 2) * comb(j + 1, 1) * 2**j + Fraction(3, 2) * 2**j
            assert coeff == direct

    def test_improper_rejected(self):
        f = FactoredRationalFunction(Poly((0, 0, 1)), {1: 1})
        with pytest.raises(ValueError, match="polynomial part beyond constant"):
            partial_fractions(f)

    def test_constant_part_allowed(self):
        # h/(1-h) = -1 + 1/(1-h)
        pf = partial_fractions(FactoredRationalFunction(Poly((0, 1)), {1: 1}))
        assert pf.constant == -1
        assert pf.terms == {(1, 1): Fraction(1)}

    def test_invalid_term_indices_rejected(self):
        with pytest.raises(ValueError):
            PartialFraction(0, {(0, 1): Fraction(1)})


class TestTaylor:
    def test_geometric(self):
        assert ref_taylor(*as_pair(simple_pole(3)), 3) == [1, 3, 9, 27]

    def test_derivative_of_geometric(self):
        f = FactoredRationalFunction(Poly((1,)), {1: 2})
        assert ref_taylor(*as_pair(f), 3) == [1, 2, 3, 4]


def random_rf(rng):
    keys = rng.sample([k for k in range(-6, 7) if k != 0], rng.randint(1, 4))
    factors = {k: rng.randint(1, 3) for k in keys}
    degree = rng.randint(0, sum(factors.values()))
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = Fraction(1)
    return FactoredRationalFunction(int_poly(coeffs), factors)


class TestRandomCorpus:
    """Spec-pinned random corpus: 200 factored rational functions."""

    def corpus(self):
        rng = random.Random(91)
        return [random_rf(rng) for _ in range(200)]

    def test_recombination_identity(self):
        for f in self.corpus():
            assert recombine(partial_fractions(f)) == f

    def test_taylor_matches_termwise_series(self):
        order = 12
        for f in self.corpus():
            pf = partial_fractions(f)
            series = ref_taylor(*as_pair(f), order)
            for j in range(order + 1):
                direct = Fraction(0) if j else pf.constant
                for (k, i), coeff in pf.terms.items():
                    direct += coeff * comb(j + i - 1, i - 1) * k**j
                assert series[j] == direct

    def test_operations_agree_with_evaluation(self):
        # scalar terms over the corpus' pole multisets, summed pairwise
        rng = random.Random(17)
        fs = self.corpus()[:40]
        points = [Fraction(rng.randint(1, 30), 211) for _ in range(5)]
        for a, b in zip(fs, fs[1:]):
            terms = [
                (Fraction(rng.randint(-9, 9), rng.randint(1, 5)), f.denominator_factors)
                for f in (a, b)
            ]
            total = common_denominator_sum(terms)
            for x in points:
                expected = sum(c / ref_eval(ref_expand(factors), x) for c, factors in terms)
                assert ref_value(total, x) == expected


@given(
    st.integers(min_value=-6, max_value=6).filter(lambda k: k != 0),
    st.integers(min_value=-6, max_value=6).filter(lambda k: k != 0),
    st.fractions(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5),
    st.booleans(),
)
def test_add_commutes_and_evaluates(k1, k2, c1, c2, cancel):
    if cancel:
        k2, c2 = k1, -c1
    a = (c1, {k1: 1})
    b = (c2, {k2: 1})
    total = common_denominator_sum([a, b])
    assert total == common_denominator_sum([b, a])
    x = Fraction(1, 101)
    assert ref_value(total, x) == c1 / (1 - k1 * x) + c2 / (1 - k2 * x)


class TestImmutability:
    def test_equal_objects_hash_equal(self):
        a = FactoredRationalFunction(Poly((1, 3)), {1: 1, -2: 2})
        b = FactoredRationalFunction(Poly((1, 3)), {-2: 2, 1: 1})
        assert a == b and list(a.denominator_factors) == [-2, 1]
        assert hash(Poly((2, 6), 4)) == hash(Poly((-1, -3), -2))
        f = monotone_generating(Partition((3,)))
        num, factors = ref_flip(f)
        assert hash(f.numerator) == hash(int_poly(num))

    def test_fields_reject_writes(self):
        p = Poly((1, 3))
        with pytest.raises(AttributeError):
            p.coeffs = (2,)
        with pytest.raises(AttributeError):
            p.den = 2


# Every public value type: a builder, its field names, whether it hashes.
VALUE_TYPES = {
    "partition": (lambda: Partition.canonical([1, 3, 3]), ("parts",), True),
    "poly": (lambda: Poly((2, 6), 4), ("coeffs", "den"), True),
    "factored": (
        lambda: FactoredRationalFunction(Poly((1, 3)), {1: 1, -2: 2}),
        ("numerator", "denominator_factors"),
        False,
    ),
    "partial-fraction": (
        lambda: PartialFraction(Fraction(1, 2), {(2, 1): 3, (1, 2): -1}),
        ("constant", "terms"),
        False,
    ),
    "closed-form": (
        lambda: monotone_closed_form(Partition((3, 1))), ("kind", "mu", "terms"), True,
    ),
    "structure-report": (
        lambda: structure_checks(monotone_closed_form(Partition((3, 1)))),
        ("top_coefficient", "expected_top", "gap_all_zero", "second_coefficient",
         "expected_second"),
        True,
    ),
    "asymptotic-term": (
        lambda: asymptotics(monotone_closed_form(Partition((3, 1))))[0],
        ("k", "i", "coeff", "leading"),
        True,
    ),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_type_contract(name):
    build, fields, hashable = VALUE_TYPES[name]
    a, b = build(), build()
    assert a == b and a is not b
    assert isinstance(a, Hashable) == hashable
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for field in fields:
        value = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) == value
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(twin) is type(a) and twin == a
        assert all(getattr(twin, f) == getattr(a, f) for f in fields)


def test_values_differing_in_one_field_compare_unequal():
    mu = Partition((3,))
    assert Partition((3, 1)) != mu
    assert Poly((1, 3)) != Poly((1, 3), 2)
    assert FactoredRationalFunction(Poly((1,)), {1: 1}) != FactoredRationalFunction(
        Poly((1,)), {1: 2}
    )
    assert PartialFraction(1, {(1, 1): 1}) != PartialFraction(2, {(1, 1): 1})
    form = monotone_closed_form(mu)
    assert form != GenusClosedForm("simple", mu, form.terms)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Partition((3.9, 1.2)),
        lambda: Partition(("3", "1")),
        lambda: Partition.canonical([1.2, 3.9]),
        lambda: FactoredRationalFunction(Poly((1,)), {1.5: 1}),
        lambda: FactoredRationalFunction(Poly((1,)), {1: 2.0}),
        lambda: PartialFraction(0, {(2.5, 1.7): 1}),
        lambda: GenusClosedForm("simple", Partition((3,)), ((3.5, 1, 1),)),
        lambda: GenusClosedForm("monotone", Partition((3,)), ((2, "1", 1),)),
    ],
    ids=["partition", "partition-str", "canonical", "frf-key", "frf-exponent", "pf-index",
         "closed-form-k", "closed-form-i"],
)
def test_integer_fields_reject_non_integers(build):
    # a float or str is refused, never truncated to a different profile or pole
    with pytest.raises(TypeError):
        build()


pole_keys = st.integers(min_value=-6, max_value=6).filter(bool)
factor_maps = st.dictionaries(pole_keys, st.integers(min_value=1, max_value=3), max_size=4)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def rational_cases(draw, full_degree=False):
    """(numerator, factors) with numerator degree <= total pole order.

    Some of the denominator's own factors are multiplied into the numerator,
    so reduction has work to do; full_degree forces the numerator degree to
    equal the total pole order, so partial fractions have a constant part.
    """
    factors = draw(factor_maps)
    pool = [k for k, e in sorted(factors.items()) for _ in range(e)]
    cancelled = draw(st.permutations(pool))[: draw(st.integers(0, len(pool)))]
    room = len(pool) - len(cancelled) + 1
    if full_degree:
        base = draw(st.lists(rationals, min_size=room - 1, max_size=room - 1))
        base.append(draw(rationals.filter(bool)))
    else:
        base = draw(st.lists(rationals, max_size=room))
    num = ref_trim(base)
    for k in cancelled:
        num = ref_mul(num, (1, -k))
    return num, factors


@st.composite
def term_lists(draw):
    """Scalar terms for common_denominator_sum; negated copies let sums cancel to zero."""
    terms = draw(st.lists(st.tuples(rationals, factor_maps), max_size=4))
    negated = draw(st.sets(st.integers(0, 3)))
    return terms + [(-terms[i][0], terms[i][1]) for i in negated if i < len(terms)]


@given(term_lists())
def test_common_denominator_sum_matches_reference(terms):
    total = common_denominator_sum(terms)
    assert as_pair(total) == ref_sum([((c,), factors) for c, factors in terms])


@given(rational_cases())
def test_reduction_matches_reference(case):
    num, factors = case
    assert as_pair(FactoredRationalFunction(int_poly(num), factors)) == ref_reduce(num, factors)


@pytest.mark.parametrize("full_degree", [False, True])
@given(data=st.data())
def test_partial_fractions_and_recombine_match_reference(full_degree, data):
    num, factors = data.draw(rational_cases(full_degree=full_degree))
    f = FactoredRationalFunction(int_poly(num), factors)
    constant, terms = ref_partial_fractions(*ref_reduce(num, factors))
    pf = partial_fractions(f)
    assert pf.constant == constant
    assert pf.terms == terms
    expected = ref_sum(
        [((constant,), {})] + [((c,), {k: i}) for (k, i), c in terms.items()]
    )
    assert as_pair(recombine(pf)) == expected == as_pair(f)


@given(st.lists(st.integers(-50, 50), max_size=6), pole_keys, st.booleans())
def test_divide_linear_matches_reference(coeffs, k, divisible):
    if divisible:
        coeffs = [int(c) for c in ref_mul(ref_trim(coeffs), (1, -k))]
    try:
        expected = ref_divide_linear(ref_trim(coeffs), k)
    except ArithmeticError:
        with pytest.raises(ArithmeticError, match="not divisible"):
            _divide_linear(list(coeffs), k)
    else:
        assert ref_trim(_divide_linear(list(coeffs), k)) == expected
