"""Tests for repro.disk.geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.disk.geometry import (
    DEFAULT_BLOCK_BYTES,
    SECTOR_BYTES,
    DiskGeometry,
)
from repro.disk.models import FUJITSU_M2266, TOSHIBA_MK156F


@pytest.fixture
def toshiba():
    return TOSHIBA_MK156F.geometry


@pytest.fixture
def fujitsu():
    return FUJITSU_M2266.geometry


class TestDerivedSizes:
    def test_sectors_per_block_is_16_for_8k_blocks(self, toshiba):
        assert toshiba.sectors_per_block == DEFAULT_BLOCK_BYTES // SECTOR_BYTES == 16

    def test_toshiba_blocks_per_cylinder(self, toshiba):
        # 10 tracks * 34 sectors = 340 sectors; 340 // 16 = 21 whole blocks.
        assert toshiba.sectors_per_cylinder == 340
        assert toshiba.blocks_per_cylinder == 21

    def test_fujitsu_blocks_per_cylinder(self, fujitsu):
        # 15 * 85 = 1275 sectors; 1275 // 16 = 79 whole blocks.
        assert fujitsu.blocks_per_cylinder == 79

    def test_toshiba_capacity_is_about_135_mb(self, toshiba):
        assert toshiba.capacity_bytes == pytest.approx(135e6, rel=0.06)

    def test_fujitsu_capacity_is_about_1_gb(self, fujitsu):
        assert fujitsu.capacity_bytes == pytest.approx(1e9, rel=0.09)

    def test_total_blocks(self, toshiba):
        assert toshiba.total_blocks == 815 * 21


class TestTiming:
    def test_rotation_time_at_3600_rpm(self, toshiba):
        assert toshiba.rotation_time_ms == pytest.approx(16.6667, abs=1e-3)

    def test_sector_time(self, toshiba):
        assert toshiba.sector_time_ms == pytest.approx(16.6667 / 34, abs=1e-4)

    def test_block_transfer_time_toshiba(self, toshiba):
        # 16 of 34 sectors per track: just under half a revolution.
        assert toshiba.block_transfer_time_ms(1) == pytest.approx(7.843, abs=0.01)

    def test_block_transfer_time_fujitsu(self, fujitsu):
        assert fujitsu.block_transfer_time_ms(1) == pytest.approx(3.137, abs=0.01)

    def test_transfer_time_scales_linearly(self, toshiba):
        one = toshiba.transfer_time_ms(1)
        assert toshiba.transfer_time_ms(10) == pytest.approx(10 * one)

    def test_negative_sectors_rejected(self, toshiba):
        with pytest.raises(ValueError):
            toshiba.transfer_time_ms(-1)


class TestAddressing:
    def test_block_zero_is_cylinder_zero(self, toshiba):
        address = toshiba.locate_block(0)
        assert (address.cylinder, address.track, address.start_sector) == (0, 0, 0)

    def test_second_block_starts_16_sectors_in(self, toshiba):
        address = toshiba.locate_block(1)
        assert address.sector_in_cylinder == 16
        assert address.track == 0
        assert address.start_sector == 16

    def test_block_crossing_track_boundary(self, toshiba):
        # Block 3 starts at sector 48 of the cylinder = track 1, sector 14.
        address = toshiba.locate_block(3)
        assert address.track == 1
        assert address.start_sector == 14

    def test_cylinder_of_block_matches_locate(self, toshiba):
        for block in (0, 20, 21, 42, 815 * 21 - 1):
            assert (
                toshiba.cylinder_of_block(block)
                == toshiba.locate_block(block).cylinder
            )

    def test_block_at_inverts_locate(self, toshiba):
        block = 4567
        address = toshiba.locate_block(block)
        index = block % toshiba.blocks_per_cylinder
        assert toshiba.block_at(address.cylinder, index) == block

    def test_blocks_of_cylinder(self, toshiba):
        blocks = toshiba.blocks_of_cylinder(2)
        assert list(blocks) == list(range(42, 63))

    def test_out_of_range_block_rejected(self, toshiba):
        with pytest.raises(ValueError):
            toshiba.locate_block(toshiba.total_blocks)
        with pytest.raises(ValueError):
            toshiba.locate_block(-1)

    def test_out_of_range_cylinder_rejected(self, toshiba):
        with pytest.raises(ValueError):
            toshiba.blocks_of_cylinder(815)
        with pytest.raises(ValueError):
            toshiba.block_at(0, 21)


class TestValidation:
    def test_rejects_zero_cylinders(self):
        with pytest.raises(ValueError):
            DiskGeometry(cylinders=0, tracks_per_cylinder=1, sectors_per_track=34)

    def test_rejects_block_not_multiple_of_sector(self):
        with pytest.raises(ValueError):
            DiskGeometry(
                cylinders=10,
                tracks_per_cylinder=1,
                sectors_per_track=34,
                block_bytes=1000,
            )

    def test_rejects_block_bigger_than_cylinder(self):
        with pytest.raises(ValueError):
            DiskGeometry(
                cylinders=10,
                tracks_per_cylinder=1,
                sectors_per_track=8,
                block_bytes=8192,
            )

    def test_rejects_nonpositive_rpm(self):
        with pytest.raises(ValueError):
            DiskGeometry(
                cylinders=10, tracks_per_cylinder=2, sectors_per_track=34, rpm=0
            )


@given(block=st.integers(min_value=0, max_value=815 * 21 - 1))
def test_locate_block_roundtrip_property(block):
    """Every block maps to a unique in-range address and back."""
    geometry = TOSHIBA_MK156F.geometry
    address = geometry.locate_block(block)
    assert 0 <= address.cylinder < geometry.cylinders
    assert 0 <= address.track < geometry.tracks_per_cylinder
    assert 0 <= address.start_sector < geometry.sectors_per_track
    index = address.sector_in_cylinder // geometry.sectors_per_block
    assert geometry.block_at(address.cylinder, index) == block


@given(
    block_a=st.integers(min_value=0, max_value=815 * 21 - 1),
    block_b=st.integers(min_value=0, max_value=815 * 21 - 1),
)
def test_distinct_blocks_never_overlap(block_a, block_b):
    """Two distinct blocks never share a starting sector."""
    geometry = TOSHIBA_MK156F.geometry
    if block_a == block_b:
        return
    a = geometry.locate_block(block_a)
    b = geometry.locate_block(block_b)
    assert (a.cylinder, a.sector_in_cylinder) != (b.cylinder, b.sector_in_cylinder)
