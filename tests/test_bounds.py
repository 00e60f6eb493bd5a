"""Closed-form bounds: lower 2t, binary upper, BCH redundancy, sphere packing."""

import math

import pytest

from fcckit.bounds import (
    LOG2_E,
    bch_extension_degree,
    bch_redundancy,
    hamming_ball_volume,
    lower_bound,
    mds_equality,
    report,
    sphere_packing_min_r,
    upper_bound_binary,
)
from fcckit.constructions import bch_systematic
from fcckit.errors import BoundUndefined, DimensionError, InvalidOrder

# frozen from a 50-digit Decimal evaluation of t*log2(2k) / (1 - (t/k)*log2(e))
UPPER_16_2 = 12.200134125048452
UPPER_2_1 = 7.177398899124180
UPPER_7_1 = 4.795757053193367
UPPER_10_2 = 12.149444999979433


class TestLowerBound:
    def test_two_valued(self):
        assert lower_bound(2, 3) == 6

    def test_constant(self):
        assert lower_bound(1, 3) == 0

    def test_t_zero(self):
        assert lower_bound(5, 0) == 0

    def test_validation(self):
        with pytest.raises(DimensionError):
            lower_bound(0, 1)


class TestUpperBoundBinary:
    def test_16_2(self):
        assert upper_bound_binary(16, 2) == pytest.approx(UPPER_16_2, abs=1e-9)

    def test_2_1(self):
        assert upper_bound_binary(2, 1) == pytest.approx(UPPER_2_1, abs=1e-9)

    def test_undefined_when_denominator_dies(self):
        with pytest.raises(BoundUndefined):
            upper_bound_binary(2, 2)  # 2 < 2*log2(e) ~ 2.885

    def test_undefined_for_k1(self):
        with pytest.raises(BoundUndefined):
            upper_bound_binary(1, 1)

    def test_chain_2t_le_tlog2k_lt_bound(self):
        for k in range(2, 12):
            for t in range(1, 4):
                try:
                    bound = upper_bound_binary(k, t)
                except BoundUndefined:
                    continue
                mid = t * math.log2(2 * k)
                assert 2 * t <= mid < bound


class TestSpherePacking:
    def test_2_3_1(self):
        assert sphere_packing_min_r(2, 3, 1) == 3

    def test_2_1_1(self):
        assert sphere_packing_min_r(2, 1, 1) == 2

    def test_perfect_hamming_point(self):
        assert sphere_packing_min_r(2, 4, 1) == 3

    def test_exceeds_2t_for_k_at_least_2(self):
        for k in range(2, 11):
            for t in range(1, 4):
                assert sphere_packing_min_r(2, k, t) >= 2 * t + 1

    def test_repetition_adjacent_at_k1(self):
        for t in range(1, 6):
            assert sphere_packing_min_r(2, 1, t) == 2 * t

    def test_volume(self):
        assert hamming_ball_volume(3, 1, 2) == 4
        assert hamming_ball_volume(3, 2, 3) == 19
        assert hamming_ball_volume(2, 5, 2) == 4  # radius clamped to n


class TestMdsEquality:
    def test_true_above_threshold(self):
        assert mds_equality(11, 5, 3)

    def test_false_small_field(self):
        assert not mds_equality(2, 3, 1)

    def test_boundary(self):
        assert mds_equality(7, 3, 2)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            mds_equality(6, 2, 1)


class TestConstructiveConsistency:
    @pytest.mark.parametrize("k,t,expected_r", [(7, 1, 4), (10, 2, 10)])
    def test_bch_r_below_binary_bound(self, k, t, expected_r):
        rep = bch_systematic(k, t)
        assert rep.r == expected_r
        assert rep.r < upper_bound_binary(k, t)

    def test_upper_exceeds_lower_strictly(self):
        for k in range(2, 12):
            for t in range(1, 3):
                try:
                    bound = upper_bound_binary(k, t)
                except BoundUndefined:
                    continue
                assert bound > lower_bound(2, t)


class TestBchRedundancy:
    def test_matches_construction(self):
        # The generator depends on k only through m, so one construction
        # per (m, t) stands for every k that selects that m.
        for t in range(1, 5):
            built = {}
            for k in range(1, 301):
                m = bch_extension_degree(k, t)
                if m not in built:
                    built[m] = bch_systematic(k, t).r
                assert bch_redundancy(k, t) == built[m], (k, t)

    def test_extension_degree_rule(self):
        for k in range(1, 301):
            for t in range(1, 5):
                m = bch_extension_degree(k, t)
                assert 2**m - 1 >= k + m * t
                assert m == 2 or 2 ** (m - 1) - 1 < k + (m - 1) * t

    def test_past_the_construction_degree_cap(self):
        # m = 21: the cosets of 1 and 2 mod 2^21 - 1 are one coset of size 21
        assert bch_extension_degree(2_000_000, 1) == 21
        assert bch_redundancy(2_000_000, 1) == 21

    def test_validation(self):
        with pytest.raises(DimensionError):
            bch_redundancy(0, 1)
        with pytest.raises(DimensionError):
            bch_redundancy(5, 0)


class TestReport:
    def test_binary_report_fields(self):
        rep = report(2, 16, 2)
        assert rep.lower == 4
        assert rep.upper_binary == pytest.approx(UPPER_16_2, abs=1e-9)
        assert rep.upper_binary_ceil == 13
        assert rep.bch_constructive == 10
        assert not rep.mds_equality
        assert not rep.upper_is_conjectured

    def test_non_binary_flags_conjecture(self):
        rep = report(5, 2, 1)
        assert rep.upper_is_conjectured
        assert rep.bch_constructive is None
        assert rep.mds_equality

    def test_builds_no_construction(self, monkeypatch):
        import fcckit.constructions

        def refuse(*args, **kwargs):
            raise AssertionError("report built a BCH code")

        monkeypatch.setattr(fcckit.constructions, "bch_systematic", refuse)
        assert report(2, 182, 3).bch_constructive == 24
        assert report(2, 2_000_000, 1).bch_constructive == 21

    def test_undefined_upper(self):
        rep = report(2, 2, 2)
        assert rep.upper_binary is None
        assert rep.upper_binary_ceil is None


def test_log2e_constant():
    assert LOG2_E == pytest.approx(1.4426950408889634, abs=1e-15)
