"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every comparison is exact rational equality; the only
tolerances anywhere are the per-criterion wall-clock limits.
"""
import time
from fractions import Fraction
from math import factorial

from hurwitz.closedform import (
    evaluate,
    monotone_closed_form,
    monotone_leading_coefficient,
    simple_closed_form,
    structure_checks,
)
from hurwitz.exactarith import FactoredRationalFunction, Poly
from hurwitz.npoint import monotone_generating, simple_generating
from hurwitz.oracle import oracle_hurwitz
from hurwitz.partitions import Partition, branch_points, partitions_of

from dense_reference import as_pair, ref_flip, ref_taylor


def part(*parts):
    return Partition(tuple(parts))


def F(num, den=1):
    return Fraction(num, den)


def criterion(number, label, limit_seconds, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except AssertionError as exc:  # pragma: no cover - reporting path
        failure = exc
    elapsed = time.perf_counter() - start
    status = "PASS" if failure is None and elapsed < limit_seconds else "FAIL"
    print(f"criterion {number} [{label}]: {status} ({elapsed:.2f}s, limit {limit_seconds}s)")
    if failure is not None:
        raise failure
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def mirror_factors(simple_ks, double_ks=()):
    out = {}
    for k in simple_ks:
        out[k] = out[-k] = 1
    for k in double_ks:
        out[k] = out[-k] = 2
    return out


def test_criterion_1_monotone_one_point_regression():
    def body():
        form5 = monotone_closed_form(part(5))
        assert form5.normalization == F(1, 5)
        assert form5.terms == (
            (4, 1, F(8, 45)),
            (3, 1, F(-9, 20)),
            (2, 1, F(14, 45)),
            (1, 1, F(-7, 180)),
        )
        assert monotone_generating(part(5)) == FactoredRationalFunction(
            Poly((0, 0, 0, 0, 14)), mirror_factors([1, 2, 3, 4])
        )
        form10 = monotone_closed_form(part(10))
        assert form10.terms == (
            (9, 1, F(59049, 100352000)),
            (8, 1, F(-16384, 4465125)),
            (7, 1, F(14000231, 1492992000)),
            (6, 1, F(-153, 12250)),
            (5, 1, F(1328125, 146313216)),
            (4, 1, F(-2176, 637875)),
            (3, 1, F(1989, 3584000)),
            (2, 1, F(-221, 8930250)),
            (1, 1, F(2431, 36578304000)),
        )
        assert monotone_generating(part(10)) == FactoredRationalFunction(
            Poly((0,) * 9 + (4862,)), mirror_factors(range(1, 10))
        )

    criterion(1, "monotone one-point", 5.0, body)


def test_criterion_2_monotone_multi_point_regression():
    def body():
        form33 = monotone_closed_form(part(3, 3))
        assert form33.normalization == F(1, 9)
        assert form33.terms == (
            (5, 1, F(125, 1728)),
            (4, 1, F(-32, 135)),
            (3, 1, F(81, 320)),
            (2, 2, F(-2, 9)),
            (2, 1, F(92, 135)),
            (1, 2, F(-17, 72)),
            (1, 1, F(-1663, 2160)),
        )
        assert monotone_generating(part(3, 3)) == FactoredRationalFunction(
            Poly((0,) * 6 + (300, 0, -3900, 0, 15840)),
            mirror_factors([3, 4, 5], double_ks=[1, 2]),
        )

        form53 = monotone_closed_form(part(5, 3))
        assert form53.normalization == F(1, 15)
        assert form53.terms == (
            (7, 1, F(16807, 2073600)),
            (6, 1, F(-27, 700)),
            (5, 1, F(40625, 580608)),
            (4, 1, F(-176, 2025)),
            (3, 1, F(5373, 25600)),
            (2, 2, F(-1, 10)),
            (2, 1, F(-1013, 11340)),
            (1, 2, F(-37, 2880)),
            (1, 1, F(-23593, 322560)),
        )
        assert monotone_generating(part(5, 3)) == FactoredRationalFunction(
            Poly((0,) * 8 + (4725, 0, -124425, 0, 1238580)),
            mirror_factors([3, 4, 5, 6, 7], double_ks=[1, 2]),
        )

        form321 = monotone_closed_form(part(3, 2, 1))
        assert form321.normalization == F(1, 6)
        assert form321.terms == (
            (5, 1, F(125, 1728)),
            (4, 1, F(-8, 27)),
            (3, 1, F(99, 320)),
            (2, 2, F(-2, 9)),
            (2, 1, F(182, 135)),
            (1, 2, F(-55, 72)),
            (1, 1, F(-43, 27)),
        )
        assert monotone_generating(part(3, 2, 1)) == FactoredRationalFunction(
            Poly((0,) * 7 + (1440, 0, -17040, 0, 55200)),
            mirror_factors([3, 4, 5], double_ks=[1, 2]),
        )

    criterion(2, "monotone multi-point", 10.0, body)


def test_criterion_3_simple_regression():
    def body():
        def mirrored(base, scale, odd):
            terms = {}
            for k, c in base.items():
                terms[k] = Fraction(c, scale)
                terms[-k] = Fraction(-c if odd else c, scale)
            return terms

        assert simple_generating(part(5)) == mirrored(
            {10: 1, 5: -4, 0: 6}, 600, odd=False
        )
        assert simple_closed_form(part(5)).terms == ((10, 1, F(1)), (5, 1, F(-4)))

        assert simple_generating(part(10)) == mirrored(
            {45: 1, 35: -9, 25: 36, 15: -84, 5: 126}, factorial(10) * 10, odd=True
        )
        assert simple_closed_form(part(10)).terms == (
            (45, 1, F(1)),
            (35, 1, F(-9)),
            (25, 1, F(36)),
            (15, 1, F(-84)),
            (5, 1, F(126)),
        )

        assert simple_generating(part(5, 2)) == mirrored(
            {21: 1, 14: -6, 11: -21, 9: 35, 6: 70, 4: -84, 1: -105},
            factorial(7) * 10,
            odd=True,
        )
        assert simple_closed_form(part(5, 2)).terms == (
            (21, 1, F(1)),
            (14, 1, F(-6)),
            (11, 1, F(-21)),
            (9, 1, F(35)),
            (6, 1, F(70)),
            (4, 1, F(-84)),
            (1, 1, F(-105)),
        )

        assert simple_generating(part(3, 2, 1)) == mirrored(
            {
                15: 1, 10: -6, 7: -15, 6: -20, 5: 39,
                4: 120, 3: 35, 2: -150, 1: -210,
            },
            factorial(6) * 6,
            odd=True,
        )
        assert simple_closed_form(part(3, 2, 1)).terms == (
            (15, 1, F(1)),
            (10, 1, F(-6)),
            (7, 1, F(-15)),
            (6, 1, F(-20)),
            (5, 1, F(39)),
            (4, 1, F(120)),
            (3, 1, F(35)),
            (2, 1, F(-150)),
            (1, 1, F(-210)),
        )

    criterion(3, "simple exponential sums", 10.0, body)


def test_criterion_4_oracle_equivalence():
    def body():
        triples = 0
        for d in range(2, 6):
            for mu in partitions_of(d):
                for kind, build in (
                    ("simple", simple_closed_form),
                    ("monotone", monotone_closed_form),
                ):
                    form = build(mu)
                    g = 0
                    while 2 * g - 2 + mu.size + mu.length <= 6:
                        assert evaluate(form, g) == oracle_hurwitz(mu, g, kind), (
                            mu,
                            g,
                            kind,
                        )
                        triples += 1
                        g += 1
        assert triples >= 50

    criterion(4, "oracle equivalence", 120.0, body)


def test_oracle_equivalence_to_degree_eight(closed_forms):
    # criterion 4 widened to every profile with d <= 8, at b <= 8 or g <= 1;
    # g = 1 reaches b = 16, past the CLI's oracle cap of b <= 12
    triples = 0
    for d in range(2, 9):
        for mu in partitions_of(d):
            for kind, build in closed_forms.items():
                form = build(mu)
                g = 0
                while branch_points(mu, g) <= 8 or g <= 1:
                    assert evaluate(form, g) == oracle_hurwitz(mu, g, kind), (mu, g, kind)
                    triples += 1
                    g += 1
    assert triples == 284


def test_oracle_equivalence_at_degree_nine(closed_forms):
    # every profile with d = 9 at every b the CLI's oracle guard admits
    # (b <= 12), in both kinds
    triples = 0
    for mu in partitions_of(9):
        for kind, build in closed_forms.items():
            form = build(mu)
            g = 0
            while branch_points(mu, g) <= 12:
                assert evaluate(form, g) == oracle_hurwitz(mu, g, kind), (mu, g, kind)
                triples += 1
                g += 1
    assert triples == 72


def test_criterion_5_simple_structure_sweep():
    def body():
        for d in range(2, 9):
            top_k = d * (d - 1) // 2
            second_k = (d - 1) * (d - 2) // 2
            for mu in partitions_of(d):
                form = simple_closed_form(mu)
                coeffs = {k: c for k, _, c in form.terms}
                assert all(c.denominator == 1 for c in coeffs.values())
                assert coeffs.get(top_k) == 1
                assert all(not (second_k < k < top_k) for k in coeffs)
                if d >= 3:
                    ones = sum(1 for p in mu.parts if p == 1)
                    observed = coeffs.get(second_k, F(0))
                    assert observed == -d * ones, (mu, observed)

    criterion(5, "simple structure theorem sweep", 60.0, body)


def test_criterion_6_monotone_leading_sweep():
    def body():
        for d in range(2, 9):
            expected = monotone_leading_coefficient(d)
            for mu in partitions_of(d):
                form = monotone_closed_form(mu)
                assert form.coefficient(d - 1) == expected, mu
                for k, i, _ in form.terms:
                    assert not (k in (d - 1, d - 2) and i >= 2), (mu, k, i)
                report = structure_checks(form)
                assert report.passed, mu

    criterion(6, "monotone leading-term sweep", 60.0, body)


def test_criterion_7_parity_and_support():
    def body():
        for d in range(2, 9):
            top_k = d * (d - 1) // 2
            for mu in partitions_of(d):
                l = mu.length
                sign = -1 if (d + l) % 2 else 1
                generating = monotone_generating(mu)
                numerator, factors = as_pair(generating)
                assert ref_flip(generating) == (
                    tuple(sign * c for c in numerator),
                    factors,
                ), mu
                for k, order in generating.denominator_factors.items():
                    assert order <= min(l, (d - 1) // abs(k)), (mu, k)
                exponential = simple_generating(mu)
                for k, coeff in exponential.items():
                    assert abs(k) <= top_k, (mu, k)
                    assert exponential.get(-k, 0) == sign * coeff, (mu, k)

    criterion(7, "parity and support", 60.0, body)


def test_criterion_8_round_trip():
    def body():
        for d in range(2, 9):
            for mu in partitions_of(d):
                offset = mu.size + mu.length - 2
                product = 1
                for p in mu.parts:
                    product *= p
                monotone_form = monotone_closed_form(mu)
                series = ref_taylor(*as_pair(monotone_generating(mu)), offset + 12)
                simple_form = simple_closed_form(mu)
                exponential = simple_generating(mu)
                for g in range(0, 7):
                    b = 2 * g + offset
                    assert evaluate(monotone_form, g) == series[b] / product, (mu, g)
                    # b! times the hbar^b coefficient of sum_k c_k e^{k hbar}
                    assert evaluate(simple_form, g) == sum(
                        c * k**b for k, c in exponential.items()
                    ), (mu, g)

    criterion(8, "round-trip coefficient extraction", 60.0, body)
