"""Tests for repro.disk.models — the Table 1 presets."""

import pytest

from repro.disk.models import (
    DISK_MODELS,
    FUJITSU_M2266,
    MODERN_DISK,
    TOSHIBA_MK156F,
    disk_model,
)


class TestToshibaPreset:
    def test_geometry_matches_table_1(self):
        g = TOSHIBA_MK156F.geometry
        assert g.cylinders == 815
        assert g.tracks_per_cylinder == 10
        assert g.sectors_per_track == 34
        assert g.rpm == 3600.0

    def test_no_track_buffer(self):
        assert TOSHIBA_MK156F.track_buffer_bytes is None

    def test_seek_crossover(self):
        assert TOSHIBA_MK156F.seek.crossover == 315


class TestFujitsuPreset:
    def test_geometry_matches_table_1(self):
        g = FUJITSU_M2266.geometry
        assert g.cylinders == 1658
        assert g.tracks_per_cylinder == 15
        assert g.sectors_per_track == 85
        assert g.rpm == 3600.0

    def test_track_buffer_256kb(self):
        assert FUJITSU_M2266.track_buffer_bytes == 256 * 1024

    def test_seek_crossover_inclusive_225(self):
        assert FUJITSU_M2266.seek.crossover == 226


class TestModernPreset:
    """The synthetic ~8 GB scale-testing drive (not from the paper)."""

    def test_crosses_two_million_blocks(self):
        g = MODERN_DISK.geometry
        assert g.total_blocks == 2_097_152
        assert g.capacity_bytes == 8 * 1024**3
        assert g.block_bytes == 4096

    def test_seek_branches_meet_near_crossover(self):
        seek = MODERN_DISK.seek
        short = seek.time(seek.crossover - 1)
        long = seek.time(seek.crossover)
        assert abs(short - long) < 0.1
        assert seek.time(MODERN_DISK.geometry.cylinders - 1) < 15.0


class TestRegistry:
    def test_lookup_by_name(self):
        assert disk_model("toshiba") is TOSHIBA_MK156F
        assert disk_model("FUJITSU") is FUJITSU_M2266
        assert disk_model("modern") is MODERN_DISK

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            disk_model("ibm")

    def test_registry_contents(self):
        assert set(DISK_MODELS) == {"toshiba", "fujitsu", "modern"}

