import json
from decimal import Decimal, Inexact, getcontext, localcontext
from fractions import Fraction
from itertools import islice
from math import comb, factorial, gcd, prod

import pytest

from hurwitz import closedform, npoint
from hurwitz.cli import main
from hurwitz.closedform import (
    GenusClosedForm,
    asymptotics,
    decimal_values,
    evaluate,
    monotone_closed_form,
    monotone_leading_coefficient,
    simple_closed_form,
    structure_checks,
)
from hurwitz.exactarith import (
    FactoredRationalFunction,
    PartialFraction,
    Poly,
    common_denominator_sum,
    partial_fractions,
)
from hurwitz.npoint import monotone_generating, simple_generating
from hurwitz.partitions import Partition, branch_points, partitions_of

from dense_reference import as_pair, ref_evaluate, ref_taylor


def part(*parts):
    return Partition(tuple(parts))


def F(num, den=1):
    return Fraction(num, den)


def printed(capsys, form):
    """The JSON payload that `closed-form` prints for the form's kind and mu."""
    mu = ",".join(map(str, form.mu.parts))
    assert main(["closed-form", "--kind", form.kind, "--mu", mu, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestMonotoneClosedForm:
    def test_profile_five(self, capsys):
        form = monotone_closed_form(part(5))
        assert form.normalization == F(1, 5)
        assert printed(capsys, form)["b_offset"] == branch_points(form.mu, 0) == 4
        assert form.terms == (
            (4, 1, F(8, 45)),
            (3, 1, F(-9, 20)),
            (2, 1, F(14, 45)),
            (1, 1, F(-7, 180)),
        )

    def test_profile_three_three(self):
        form = monotone_closed_form(part(3, 3))
        assert form.normalization == F(1, 9)
        assert form.terms == (
            (5, 1, F(125, 1728)),
            (4, 1, F(-32, 135)),
            (3, 1, F(81, 320)),
            (2, 2, F(-2, 9)),
            (2, 1, F(92, 135)),
            (1, 2, F(-17, 72)),
            (1, 1, F(-1663, 2160)),
        )

    def test_profile_two_is_constant_half(self):
        form = monotone_closed_form(part(2))
        assert form.terms == ((1, 1, F(1)),)
        assert form.normalization == F(1, 2)
        for g in (0, 3, 25):
            assert evaluate(form, g) == F(1, 2)


class TestSimpleClosedForm:
    def test_profile_five(self):
        form = simple_closed_form(part(5))
        assert form.terms == ((10, 1, F(1)), (5, 1, F(-4)))
        assert form.normalization == F(2, factorial(5) * 5)

    def test_profile_three_two_one(self):
        form = simple_closed_form(part(3, 2, 1))
        expected = {15: 1, 10: -6, 7: -15, 6: -20, 5: 39, 4: 120, 3: 35, 2: -150, 1: -210}
        assert {k: c for k, _, c in form.terms} == {k: F(v) for k, v in expected.items()}

    def test_profile_two(self):
        form = simple_closed_form(part(2))
        assert form.terms == ((1, 1, F(1)),)
        assert evaluate(form, 0) == F(1, 2)

    def test_coefficients_are_integers(self, closed_forms):
        for d in range(2, 7):
            for mu in partitions_of(d):
                for _, _, c in closed_forms["simple"](mu).terms:
                    assert c.denominator == 1


class TestEvaluate:
    def test_simple_five_genus_zero(self):
        assert evaluate(simple_closed_form(part(5)), 0) == 25

    def test_monotone_two_large_genus(self):
        assert evaluate(monotone_closed_form(part(2)), 7) == F(1, 2)

    def test_simple_three_genus_one(self):
        # H_{g;(3)} = 3^{2g}
        form = simple_closed_form(part(3))
        assert evaluate(form, 1) == 9
        assert evaluate(form, 4) == 3**8

    @pytest.mark.parametrize("g, error", [(-1, ValueError), (1.5, TypeError)])
    def test_negative_genus_rejected(self, g, error):
        with pytest.raises(error):
            evaluate(simple_closed_form(part(3)), g)
        with pytest.raises(error):
            next(decimal_values(simple_closed_form(part(3)), g))

    # start 20000: the first row's k^b, raised once per pole, against the
    # reference where k^b has thousands of digits and b^{i-1} is large
    @pytest.mark.parametrize("start", [0, 997, 20000])
    @pytest.mark.parametrize(
        "kind, parts",
        [
            ("simple", (4, 4, 4)),
            ("simple", (3, 2, 1)),
            ("monotone", (5,)),
            # i >= 2 terms: b^{i-1} moves with b while k^b is carried
            ("monotone", (3, 3, 2, 1)),
            ("monotone", (2, 2, 2, 2, 2, 2)),
        ],
    )
    def test_carried_values_match_reference(self, closed_forms, kind, parts, start):
        form = closed_forms[kind](part(*parts))
        for g, (num, den) in zip(range(start, start + 3), decimal_values(form, start)):
            expected = ref_evaluate(form, g)
            assert Fraction(int(num), den) == expected, (g, kind, parts)
            value = evaluate(form, g)
            assert type(value) is Fraction and value == expected, (g, kind, parts)


class TestDecimalValues:
    """decimal_values: the reference's values as exact Decimal rows, in lowest terms."""

    # mu = (2), so b = 2g + 1 and the normalization is 1/2.
    # (2^b - 8)/2: -3, then 0 where two nonzero Decimal terms cancel, then 12.
    CANCELLING = GenusClosedForm("monotone", part(2), [(2, 1, 1), (1, 1, -8)])
    # (b - 7) 2^(b-1) / 3: -2, -16/3, -32/3, 0, 512/3.
    THIRDS = GenusClosedForm("monotone", part(2), [(2, 2, F(1, 3)), (2, 1, F(-7, 3))])
    # (7 - b) 2^(b-1) / 3: 2, 16/3, 32/3, 0, -512/3.  At b = 7 the negative
    # carried term times b cancels the positive one: a 0 row, never -0.
    NEG_THIRDS = GenusClosedForm("monotone", part(2), [(2, 2, F(-1, 3)), (2, 1, F(7, 3))])
    # Three terms on one pole (i = 1, 2, 3) and a second pole, with
    # unlike denominators.
    THREE_TERMS = GenusClosedForm(
        "monotone", part(3), [(3, 3, F(2, 5)), (3, 2, F(-3, 7)), (3, 1, F(5, 2)), (1, 1, F(-1, 6))]
    )

    @staticmethod
    def assert_rows_agree(form, start, count):
        for g, (num, den) in zip(range(start, start + count), decimal_values(form, start)):
            assert type(num) is Decimal and type(den) is int and den > 0, g
            assert str(num) == str(int(num)), g  # plain integer digits
            assert gcd(int(num), den) == 1, g
            expected = ref_evaluate(form, g)
            assert Fraction(int(num), den) == expected, (g, form.kind, form.mu.parts)

    @pytest.mark.parametrize("start", [0, 37])
    @pytest.mark.parametrize("kind", ["simple", "monotone"])
    def test_rows_match_values(self, closed_forms, kind, start):
        for d in range(2, 8):
            for mu in partitions_of(d):
                self.assert_rows_agree(closed_forms[kind](mu), start, 40)

    def test_negative_zero_and_fractional_rows(self):
        for form in (self.CANCELLING, self.THIRDS, self.NEG_THIRDS, self.THREE_TERMS):
            for start in (0, 37):
                self.assert_rows_agree(form, start, 40)
        rows = islice(decimal_values(self.CANCELLING), 3)
        assert [(str(num), den) for num, den in rows] == [("-3", 1), ("0", 1), ("12", 1)]
        rows = islice(decimal_values(self.THIRDS), 5)
        assert [(str(num), den) for num, den in rows] == [
            ("-2", 1), ("-16", 3), ("-32", 3), ("0", 1), ("512", 3),
        ]
        rows = islice(decimal_values(self.NEG_THIRDS), 5)
        assert [(str(num), den) for num, den in rows] == [
            ("2", 1), ("16", 3), ("32", 3), ("0", 1), ("-512", 3),
        ]

    def test_table_prints_the_hand_built_rows(self, capsys, monkeypatch):
        for form, shown in (
            (self.CANCELLING, ["0  1  -3  -3", "1  3  0  0", "2  5  12  12"]),
            (
                self.THIRDS,
                ["0  1  -2  -2", "1  3  -16/3  -5.33333", "2  5  -32/3  -10.6667",
                 "3  7  0  0", "4  9  512/3  170.667"],
            ),
        ):
            monkeypatch.setattr(closedform, "monotone_closed_form", lambda mu: form)
            genus_max = str(len(shown) - 1)
            argv = ["table", "--kind", "monotone", "--mu", "2", "--genus-max", genus_max]
            assert main(argv) == 0
            assert capsys.readouterr().out.splitlines()[3:] == shown

    def test_caller_context_is_untouched(self, closed_forms):
        # A context left set by the generator would show here as a changed
        # prec; rows computed in the caller's context would raise Inexact.
        # Monotone (3,3,2,1) has i >= 2 terms, whose rows multiply by b^{i-1}.
        for kind, parts in (("simple", (4, 4, 4)), ("monotone", (3, 3, 2, 1))):
            form = closed_forms[kind](part(*parts))
            with localcontext() as caller:
                caller.prec = 6
                caller.traps[Inexact] = True
                traps = dict(caller.traps)
                rows = decimal_values(form)
                for g in range(40):
                    num, den = next(rows)
                    assert getcontext() is caller
                    assert (caller.prec, dict(caller.traps)) == (6, traps)
                    assert Fraction(int(num), den) == ref_evaluate(form, g), (kind, g)


class TestGenusZeroAnchors:
    # Closed formulas that share nothing with npoint or the oracle; the
    # library has no guard, so the profiles past the CLI's reach run too.
    PROFILES = [mu for d in range(2, 10) for mu in partitions_of(d)] + [
        Partition((1,) * 10),
        Partition((2,) + (1,) * 8),
        Partition((1,) * 11),
        Partition((1,) * 12),
        Partition((2,) + (1,) * 10),
        Partition((20, 20)),
        Partition((10, 10, 10)),
        Partition((8, 7, 5)),
    ]

    def test_simple_hurwitz_formula(self, closed_forms):
        # (d+l-2)! d^(l-3) prod mu_i^mu_i / mu_i!  (Hurwitz 1891)
        assert len(self.PROFILES) == 103
        for mu in self.PROFILES:
            d, l = mu.size, mu.length
            expected = factorial(d + l - 2) * F(d) ** (l - 3)
            expected *= prod(F(p**p, factorial(p)) for p in mu.parts)
            assert evaluate(closed_forms["simple"](mu), 0) == expected, mu.parts

    def test_monotone_formula(self, closed_forms):
        # (2d+1)^(rising l-3) prod binom(2 mu_i, mu_i), the rising factorial
        # read as Gamma(2d+1+l-3)/Gamma(2d+1): 1/(2d) at l = 2 and
        # 1/((2d)(2d-1)) at l = 1  (Goulden, Guay-Paquet and Novak 2013)
        for mu in self.PROFILES:
            d, l = mu.size, mu.length
            rising = F(factorial(2 * d + l - 3), factorial(2 * d))
            expected = rising * prod(comb(2 * p, p) for p in mu.parts)
            assert evaluate(closed_forms["monotone"](mu), 0) == expected, mu.parts


class TestOnePartAnchors:
    # At every genus: of all shapes of size d only the hooks (d-k, 1^k) have
    # a nonzero character at a d-cycle, (-1)^k, with dimension binom(d-1, k)
    # and contents 1..d-k-1 and -1..-k besides 0 (Shapiro, Shapiro and
    # Vainshtein 1997; Goulden, Jackson and Vakil 2005).
    DEGREES = range(2, 41)

    def test_simple_hook_sum(self):
        # sum_k (-1)^k binom(d-1,k) / (d * d!) e^{c_k hbar},
        # c_k = binom(d-k, 2) - binom(k+1, 2), the hook's content sum
        for d in self.DEGREES:
            expected = {
                comb(d - k, 2) - comb(k + 1, 2): F((-1) ** k * comb(d - 1, k), d * factorial(d))
                for k in range(d)
            }
            assert list(simple_generating(part(d)).items()) == sorted(expected.items()), d

    def test_monotone_hook_sum(self):
        # sum_k (-1)^k binom(d-1,k) / d! prod_{c != 0} 1/(1 - c hbar)
        for d in self.DEGREES:
            expected = common_denominator_sum(
                (
                    F((-1) ** k * comb(d - 1, k), factorial(d)),
                    {c: 1 for c in [*range(1, d - k), *range(-k, 0)]},
                )
                for k in range(d)
            )
            assert monotone_generating(part(d)) == expected, d


class TestRoundTrip:
    def test_monotone_taylor_agreement(self, closed_forms):
        for d in range(2, 7):
            for mu in partitions_of(d):
                form = closed_forms["monotone"](mu)
                product = 1
                for p in mu.parts:
                    product *= p
                series = ref_taylor(*as_pair(monotone_generating(mu)), branch_points(mu, 4))
                for g in range(0, 5):
                    b = branch_points(mu, g)
                    assert evaluate(form, g) == series[b] / product

    def test_simple_taylor_agreement(self, closed_forms):
        for d in range(2, 7):
            for mu in partitions_of(d):
                form = closed_forms["simple"](mu)
                series = simple_generating(mu)
                for g in range(0, 5):
                    b = branch_points(mu, g)
                    # b! times the hbar^b coefficient of sum_k c_k e^{k hbar}
                    assert evaluate(form, g) == sum(c * k**b for k, c in series.items())


class TestStructureChecks:
    def test_simple_five_two(self):
        report = structure_checks(simple_closed_form(part(5, 2)))
        assert report.top_coefficient == 1
        assert report.gap_all_zero
        assert report.second_coefficient == 0  # no unit parts
        assert report.expected_second == 0
        assert report.passed

    def test_simple_three_two_one(self):
        report = structure_checks(simple_closed_form(part(3, 2, 1)))
        assert report.second_coefficient == -6
        assert report.expected_second == -6
        assert report.passed

    def test_monotone_ten_leading(self):
        form = monotone_closed_form(part(10))
        report = structure_checks(form)
        assert report.top_coefficient == F(59049, 100352000)
        assert report.expected_top == F(2 * 9**8, factorial(10) * factorial(8))
        assert report.passed

    def test_monotone_leading_formula(self):
        assert monotone_leading_coefficient(2) == 1
        assert monotone_leading_coefficient(5) == F(2 * 4**3, factorial(5) * factorial(3))

    def test_monotone_second_coefficient(self, closed_forms):
        # C(mu; d-2, 1) = -4 (d-2)^(d-3) (d-2+m_1) / (d! (d-3)!), with m_1
        # the number of parts equal to 1; structure_checks does not read it.
        profiles = [mu for d in range(3, 10) for mu in partitions_of(d)]
        assert len(profiles) == 93
        for mu in profiles:
            d, m1 = mu.size, mu.parts.count(1)
            expected = F(-4 * (d - 2) ** (d - 3) * (d - 2 + m1), factorial(d) * factorial(d - 3))
            assert closed_forms["monotone"](mu).coefficient(d - 2) == expected, mu.parts

    def test_degree_two_second_not_applicable(self):
        report = structure_checks(simple_closed_form(part(1, 1)))
        assert report.second_coefficient is None
        assert report.passed


class TestAsymptotics:
    def test_monotone_five_three(self):
        terms = asymptotics(monotone_closed_form(part(5, 3)))
        head = terms[0]
        assert (head.k, head.i) == (7, 1)
        assert head.coeff == F(16807, 2073600)
        assert head.coeff == F(2 * 7**6, factorial(8) * factorial(6))
        assert head.leading
        assert all(not t.leading for t in terms[1:])

    def test_simple_five_order(self):
        terms = asymptotics(simple_closed_form(part(5)))
        assert [(t.k, t.i) for t in terms] == [(10, 1), (5, 1)]
        assert terms[0].leading

    def test_simple_flags_second_head_when_present(self):
        terms = asymptotics(simple_closed_form(part(3, 2, 1)))
        flagged = [(t.k, t.i) for t in terms if t.leading]
        assert flagged == [(15, 1), (10, 1)]

    def test_monotone_two_single_exact_term(self):
        terms = asymptotics(monotone_closed_form(part(2)))
        assert len(terms) == 1
        assert terms[0].leading

    def test_dominance_order(self):
        terms = asymptotics(monotone_closed_form(part(3, 3)))
        keys = [(t.k, t.i) for t in terms]
        assert keys == sorted(keys, key=lambda t: (-t[0], -t[1]))

    @pytest.mark.parametrize("kind", ["simple", "monotone"])
    def test_flags_follow_each_kind_rule(self, closed_forms, kind):
        # asymptotics reads both rules as k >= cutoff; for the monotone kind
        # that is k = d-1 only because no monotone pole lies beyond d-1
        for d in range(2, 9):
            for mu in partitions_of(d):
                terms = asymptotics(closed_forms[kind](mu))
                if kind == "simple":
                    expected = [t.k >= (d - 1) * (d - 2) // 2 for t in terms]
                else:
                    assert all(t.k <= d - 1 for t in terms), mu.parts
                    expected = [t.k == d - 1 for t in terms]
                assert [t.leading for t in terms] == expected, mu.parts


class TestSerialization:
    def test_json_round_trip_small(self, capsys):
        for mu in (part(5), part(3, 3), part(3, 2, 1), part(2)):
            for build in (monotone_closed_form, simple_closed_form):
                form = build(mu)
                data = printed(capsys, form)
                assert (data["kind"], data["mu"]) == (form.kind, list(mu.parts))
                assert data["b_offset"] == branch_points(mu, 0)
                terms = [(t["k"], t["i"], Fraction(t["coeff"])) for t in data["terms"]]
                assert terms == list(form.terms)
                assert Fraction(data["normalization"]) == form.normalization

    def test_json_schema_fields(self, capsys):
        data = printed(capsys, monotone_closed_form(part(3, 3)))
        assert set(data) == {"kind", "mu", "b_offset", "normalization", "terms"}
        assert data["mu"] == [3, 3]
        assert data["normalization"] == "1/9"
        assert {"k": 2, "i": 2, "coeff": "-2/9"} in data["terms"]


class TestSelfChecks:
    """Each internal check still raises when its input is corrupted."""

    def test_recombination_mismatch_raises(self, monkeypatch):
        def corrupted(f):
            pf = partial_fractions(f)
            return PartialFraction(pf.constant + 1, pf.terms)

        monkeypatch.setattr(closedform, "partial_fractions", corrupted)
        with pytest.raises(ArithmeticError, match="recombination mismatch"):
            monotone_closed_form(part(3))

    def test_pole_parity_violation_raises(self, monkeypatch):
        lopsided = FactoredRationalFunction(Poly((1,)), {2: 1})
        monkeypatch.setattr(npoint, "monotone_generating", lambda mu: lopsided)
        with pytest.raises(ArithmeticError, match="parity"):
            monotone_closed_form(part(3))

    def test_simple_parity_violation_raises(self, monkeypatch):
        # d = 2, l = 1: the sign is -1, so D(-1) = D(1) breaks parity
        even = {1: F(1), -1: F(1)}
        monkeypatch.setattr(npoint, "simple_generating", lambda mu: even)
        with pytest.raises(ArithmeticError, match="parity"):
            simple_closed_form(part(2))

    def test_non_integer_simple_coefficient_raises(self, monkeypatch):
        # d = 2, l = 1: odd parity, scale 2! * 2 = 4, so C(1) = 4/8
        halves = {1: F(1, 8), -1: F(-1, 8)}
        monkeypatch.setattr(npoint, "simple_generating", lambda mu: halves)
        with pytest.raises(ArithmeticError, match="non-integer"):
            simple_closed_form(part(2))
