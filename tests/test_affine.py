from math import factorial

import pytest

from hurwitz.affine import monotone_affine, simple_affine
from dense_reference import hook_product
from hurwitz.partitions import Partition


class TestMonotoneAffine:
    def test_origin_is_one(self):
        assert monotone_affine(0, 0) == ((), 1)

    def test_first_column(self):
        # (n, m) = (1, 0): -1/2 * 1/(1 + hbar), so h = -2
        assert monotone_affine(1, 0) == ((-1,), -2)

    def test_first_row_d5(self):
        # (n, m) = (0, 4): 1/(5 * 4!) * prod_{j=1}^{4} 1/(1 - j*hbar), so h = 120
        assert monotone_affine(0, 4) == ((1, 2, 3, 4), 120)

    def test_factor_keys_within_range(self):
        for n in range(0, 7):
            for m in range(0, 7):
                keys, _ = monotone_affine(n, m)
                assert sorted(keys) == [k for k in range(-n, m + 1) if k != 0]

    def test_mirror_under_hbar_negation(self):
        # the (n, m) and (m, n) weights swap under hbar -> -hbar, up to (-1)^{n+m}
        for n in range(0, 6):
            for m in range(0, 6):
                keys, coefficient = monotone_affine(n, m)
                mirror_keys, mirror_coefficient = monotone_affine(m, n)
                sign = -1 if (n + m) % 2 else 1
                assert sorted(-k for k in keys) == sorted(mirror_keys)
                assert coefficient == sign * mirror_coefficient

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            monotone_affine(-1, 0)


class TestSimpleAffine:
    def test_origin(self):
        assert simple_affine(0, 0) == (0, 1)

    def test_first_row(self):
        # 1/2 * e^{hbar}
        assert simple_affine(0, 1) == (1, 2)

    def test_top_corner_exponent(self):
        # (0, d-1): exponent d(d-1)/2 and coefficient 1/d!, so h = d!
        for d in range(2, 9):
            k, hook = simple_affine(0, d - 1)
            assert k == d * (d - 1) // 2
            assert hook == factorial(d)

    def test_exponent_antisymmetry(self):
        for n in range(0, 9):
            for m in range(0, 9):
                assert simple_affine(n, m)[0] == -simple_affine(m, n)[0]


class TestCrossFamilyConsistency:
    def test_coefficient_is_signed_hook_product(self):
        # h = (-1)^n (n+m+1) n! m!: the hook lengths of (m+1, 1^n), signed
        for n in range(0, 9):
            for m in range(0, 9):
                hook_shape = Partition((m + 1,) + (1,) * n)
                hook = simple_affine(n, m)[1]
                assert type(hook) is int
                assert abs(hook) == hook_product(hook_shape)
                assert (hook < 0) == (n % 2 == 1)

    def test_families_agree_at_hbar_zero(self):
        # every pole factor (1 - k*hbar) is 1 at hbar = 0, as is e^{k*hbar}
        for n in range(0, 9):
            for m in range(0, 9):
                assert monotone_affine(n, m)[1] == simple_affine(n, m)[1]
