"""Tests for repro.disk.seek — the paper's Table 1 seek-time functions."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.disk.disk import Disk
from repro.disk.models import FUJITSU_M2266, MODERN_DISK, TOSHIBA_MK156F
from repro.disk.seek import SeekCurve, seek_table


class TestPublishedToshibaFunction:
    """seektime(d) = 6.248 + 1.393*sqrt(d) - 0.99*cbrt(d) + 0.813*ln(d)
    for d < 315, 17.503 + 0.03*d for d >= 315 (Table 1)."""

    seek = TOSHIBA_MK156F.seek

    def test_zero_distance_is_free(self):
        assert self.seek.time(0) == 0.0

    def test_one_cylinder(self):
        expected = 6.248 + 1.393 - 0.99 + 0.813 * math.log(1)
        assert self.seek.time(1) == pytest.approx(expected)

    def test_short_branch_at_100(self):
        expected = (
            6.248
            + 1.393 * math.sqrt(100)
            - 0.99 * 100 ** (1 / 3)
            + 0.813 * math.log(100)
        )
        assert self.seek.time(100) == pytest.approx(expected)

    def test_long_branch_at_400(self):
        assert self.seek.time(400) == pytest.approx(17.503 + 0.03 * 400)

    def test_branch_boundary_uses_linear_at_315(self):
        assert self.seek.time(315) == pytest.approx(17.503 + 0.03 * 315)

    def test_crossover_discontinuity_is_small(self):
        """The published piecewise fit has a ~2 ms step at d=315 (an
        artifact of the original least-squares fit, reproduced verbatim)."""
        below = self.seek.time(314)
        above = self.seek.time(315)
        assert abs(above - below) < 2.5

    def test_negative_distance_treated_as_magnitude(self):
        assert self.seek.time(-50) == self.seek.time(50)

    def test_distance_beyond_disk_rejected(self):
        with pytest.raises(ValueError):
            self.seek.time(815)


class TestPublishedFujitsuFunction:
    """seektime(d) = 1.205 + 0.65*sqrt(d) - 0.734*cbrt(d) + 0.659*ln(d)
    for d <= 225, 7.44 + 0.0114*d for d > 225 (Table 1)."""

    seek = FUJITSU_M2266.seek

    def test_zero_distance_is_free(self):
        assert self.seek.time(0) == 0.0

    def test_short_branch_at_225_inclusive(self):
        expected = (
            1.205
            + 0.65 * math.sqrt(225)
            - 0.734 * 225 ** (1 / 3)
            + 0.659 * math.log(225)
        )
        assert self.seek.time(225) == pytest.approx(expected)

    def test_long_branch_at_226(self):
        assert self.seek.time(226) == pytest.approx(7.44 + 0.0114 * 226)

    def test_fujitsu_faster_than_toshiba_at_all_distances(self):
        for d in (1, 10, 50, 100, 200, 300, 500, 800):
            assert self.seek.time(d) < TOSHIBA_MK156F.seek.time(d)


class TestMeanTime:
    """The paper computes mean seek times by pushing the measured
    seek-distance distribution through these functions (Section 5.2)."""

    def test_empty_histogram_gives_zero(self):
        assert TOSHIBA_MK156F.seek.mean_time({}) == 0.0

    def test_all_zero_distances_give_zero(self):
        assert TOSHIBA_MK156F.seek.mean_time({0: 100}) == 0.0

    def test_point_mass(self):
        seek = TOSHIBA_MK156F.seek
        assert seek.mean_time({100: 7}) == pytest.approx(seek.time(100))

    def test_weighted_mixture(self):
        seek = TOSHIBA_MK156F.seek
        expected = (3 * seek.time(10) + 1 * seek.time(200)) / 4
        assert seek.mean_time({10: 3, 200: 1}) == pytest.approx(expected)

    def test_zero_seeks_dilute_the_mean(self):
        seek = TOSHIBA_MK156F.seek
        without_zeros = seek.mean_time({100: 10})
        with_zeros = seek.mean_time({0: 90, 100: 10})
        assert with_zeros == pytest.approx(without_zeros / 10)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            TOSHIBA_MK156F.seek.mean_time({10: -1})

    def test_distance_beyond_the_span_rejected(self):
        seek = TOSHIBA_MK156F.seek
        with pytest.raises(ValueError, match="exceeds disk span"):
            seek.mean_time({seek.max_cylinders: 1})

    @pytest.mark.parametrize("model", [TOSHIBA_MK156F, FUJITSU_M2266, MODERN_DISK])
    def test_sum_matches_the_curve_bucket_by_bucket(self, model):
        """Read from the shared table, in bucket order, the mean is the
        very float that evaluating the curve per bucket gives."""
        seek = model.seek
        counts = {d: 1 + d % 7 for d in range(seek.max_cylinders - 1, -1, -37)}
        weighted = 0.0
        for distance, count in counts.items():
            weighted += count * seek.time(distance)
        assert seek.mean_time(counts) == weighted / sum(counts.values())

    def test_reads_the_table_every_disk_shares(self):
        disk = Disk(TOSHIBA_MK156F)
        seek = TOSHIBA_MK156F.seek
        assert seek_table(seek, seek.max_cylinders) is disk._seek_table

    def test_times_list(self):
        seek = TOSHIBA_MK156F.seek
        assert seek.times([0, 1]) == [seek.time(0), seek.time(1)]


class TestSeekCurve:
    def test_linear_curve(self):
        curve = SeekCurve(a=2.0, b=0.5, linear=True)
        assert curve(10) == pytest.approx(7.0)

    def test_nonlinear_curve(self):
        curve = SeekCurve(a=1.0, b=2.0, c=0.0, e=0.0)
        assert curve(4) == pytest.approx(1.0 + 2.0 * 2.0)

    def test_callable_model(self):
        assert TOSHIBA_MK156F.seek(10) == TOSHIBA_MK156F.seek.time(10)


@given(d=st.integers(min_value=1, max_value=814))
def test_toshiba_seek_time_positive_and_bounded(d):
    time = TOSHIBA_MK156F.seek.time(d)
    assert 0 < time < 50


@given(d=st.integers(min_value=2, max_value=814))
def test_toshiba_seek_time_monotone_within_branches(d):
    """Longer seeks never take less time, except across the published
    fit's crossover step at d=315."""
    seek = TOSHIBA_MK156F.seek
    if d == seek.crossover:
        return
    assert seek.time(d) >= seek.time(d - 1) - 1e-9


@given(d=st.integers(min_value=2, max_value=1657))
def test_fujitsu_seek_time_monotone_within_branches(d):
    seek = FUJITSU_M2266.seek
    if d == seek.crossover:
        return
    assert seek.time(d) >= seek.time(d - 1) - 1e-9


@given(
    counts=st.dictionaries(
        st.integers(min_value=0, max_value=814),
        st.integers(min_value=0, max_value=1000),
        max_size=30,
    )
)
def test_mean_time_is_convex_combination(counts):
    """The histogram mean always lies within [min, max] of member times."""
    seek = TOSHIBA_MK156F.seek
    total = sum(counts.values())
    mean = seek.mean_time(counts)
    if total == 0:
        assert mean == 0.0
        return
    times = [seek.time(d) for d, c in counts.items() if c > 0]
    assert min(times) - 1e-9 <= mean <= max(times) + 1e-9
