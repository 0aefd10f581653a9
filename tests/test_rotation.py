"""Tests for repro.disk.rotation."""

import pytest
from hypothesis import given, strategies as st

from repro.disk.models import TOSHIBA_MK156F
from repro.disk.rotation import RotationModel


@pytest.fixture
def rotation():
    return RotationModel(TOSHIBA_MK156F.geometry)


class TestAngle:
    def test_angle_at_time_zero(self, rotation):
        assert rotation.angle_at(0.0) == 0.0

    def test_angle_after_one_sector_time(self, rotation):
        assert rotation.angle_at(rotation.sector_time_ms) == pytest.approx(1.0)

    def test_angle_wraps_after_full_rotation(self, rotation):
        assert rotation.angle_at(rotation.rotation_time_ms) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_negative_time_rejected(self, rotation):
        with pytest.raises(ValueError):
            rotation.angle_at(-1.0)


class TestLatency:
    def test_latency_to_current_sector_is_zero(self, rotation):
        assert rotation.latency_to_sector(0.0, 0) == 0.0

    def test_latency_to_next_sector(self, rotation):
        assert rotation.latency_to_sector(0.0, 1) == pytest.approx(
            rotation.sector_time_ms
        )

    def test_latency_to_just_missed_sector_is_nearly_full_rotation(
        self, rotation
    ):
        # Head just passed sector 0: wait almost a full revolution.
        t = 0.5 * rotation.sector_time_ms
        latency = rotation.latency_to_sector(t, 0)
        assert latency == pytest.approx(
            rotation.rotation_time_ms - 0.5 * rotation.sector_time_ms
        )

    def test_latency_bounded_by_rotation_time(self, rotation):
        for t in (0.0, 3.7, 12.9, 100.001):
            for sector in (0, 10, 33):
                latency = rotation.latency_to_sector(t, sector)
                assert 0 <= latency < rotation.rotation_time_ms

    def test_invalid_sector_rejected(self, rotation):
        with pytest.raises(ValueError):
            rotation.latency_to_sector(0.0, 34)
        with pytest.raises(ValueError):
            rotation.latency_to_sector(0.0, -1)

    def test_latency_periodic_in_time(self, rotation):
        t = 5.3
        assert rotation.latency_to_sector(t, 7) == pytest.approx(
            rotation.latency_to_sector(t + rotation.rotation_time_ms, 7),
            abs=1e-6,
        )


class TestInterleaveEffect:
    """The physical basis of the interleaved placement policy (Table 10):
    after reading block k and a short think time, a one-block gap means the
    next block arrives under the head soon; a contiguous next block has
    just been missed and costs nearly a full revolution."""

    def test_gap_beats_contiguous_for_small_think_time(self):
        geometry = TOSHIBA_MK156F.geometry
        rotation = RotationModel(geometry)
        # Finish reading block 0 (sectors 0-15) at its transfer end time.
        finish = geometry.block_transfer_time_ms(1)
        think = 2.0
        now = finish + think
        contiguous_start = 16 % geometry.sectors_per_track  # block 1
        gap_start = 32 % geometry.sectors_per_track  # block 2 (one-block gap)
        wait_contiguous = rotation.latency_to_sector(now, contiguous_start)
        wait_gap = rotation.latency_to_sector(now, gap_start)
        assert wait_gap < wait_contiguous
        # The miss costs most of a revolution.
        assert wait_contiguous > 0.8 * rotation.rotation_time_ms


@given(
    t=st.floats(min_value=0, max_value=1e7, allow_nan=False),
    sector=st.integers(min_value=0, max_value=33),
)
def test_latency_always_in_range(t, sector):
    rotation = RotationModel(TOSHIBA_MK156F.geometry)
    latency = rotation.latency_to_sector(t, sector)
    assert 0 <= latency < rotation.rotation_time_ms


@given(
    t=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    sector=st.integers(min_value=0, max_value=33),
)
def test_arriving_after_latency_finds_the_sector(t, sector):
    """Waiting out the returned latency lands exactly on the sector edge."""
    rotation = RotationModel(TOSHIBA_MK156F.geometry)
    latency = rotation.latency_to_sector(t, sector)
    angle = rotation.angle_at(t + latency)
    # Modulo float error, the head is at the start of `sector`.
    assert angle == pytest.approx(sector, abs=1e-3) or (
        sector == 0 and angle == pytest.approx(34, abs=1e-3)
    )
