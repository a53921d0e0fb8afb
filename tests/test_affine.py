import pytest

from hurwitz.npoint import monotone_affine, simple_affine


class TestMonotoneAffine:
    def test_origin_is_one(self):
        # a_{0,0} = 1: no pole factor
        assert monotone_affine(0, 0) == ()

    def test_first_column(self):
        # (n, m) = (1, 0): -1/2 * 1/(1 + hbar)
        assert monotone_affine(1, 0) == (-1,)

    def test_first_row_d5(self):
        # (n, m) = (0, 4): 1/(5 * 4!) * prod_{j=1}^{4} 1/(1 - j*hbar)
        assert monotone_affine(0, 4) == (1, 2, 3, 4)

    def test_factor_keys_within_range(self):
        for n in range(0, 7):
            for m in range(0, 7):
                keys = monotone_affine(n, m)
                assert sorted(keys) == [k for k in range(-n, m + 1) if k != 0]

    def test_mirror_under_hbar_negation(self):
        # the (n, m) and (m, n) poles swap under hbar -> -hbar
        for n in range(0, 6):
            for m in range(0, 6):
                keys, mirror_keys = monotone_affine(n, m), monotone_affine(m, n)
                assert sorted(-k for k in keys) == sorted(mirror_keys)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            monotone_affine(-1, 0)


class TestSimpleAffine:
    def test_origin(self):
        assert simple_affine(0, 0) == 0

    def test_first_row(self):
        # 1/2 * e^{hbar}
        assert simple_affine(0, 1) == 1

    def test_top_corner_exponent(self):
        # (0, d-1): 1/d! * e^{hbar d(d-1)/2}
        for d in range(2, 9):
            k = simple_affine(0, d - 1)
            assert type(k) is int
            assert k == d * (d - 1) // 2

    def test_exponent_antisymmetry(self):
        for n in range(0, 9):
            for m in range(0, 9):
                assert simple_affine(n, m) == -simple_affine(m, n)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            simple_affine(0, -1)
