"""Tests for repro.disk.trackbuffer — the Fujitsu read-ahead buffer."""

import pytest

from repro.disk.models import FUJITSU_M2266
from repro.disk.trackbuffer import TrackBuffer


@pytest.fixture
def buffer():
    return TrackBuffer(
        geometry=FUJITSU_M2266.geometry,
        capacity_bytes=256 * 1024,
        host_transfer_ms=2.0,
    )


class TestCapacity:
    def test_capacity_blocks(self, buffer):
        assert buffer.capacity_blocks == 32  # 256 KB / 8 KB

    def test_too_small_capacity_rejected(self):
        with pytest.raises(ValueError):
            TrackBuffer(geometry=FUJITSU_M2266.geometry, capacity_bytes=4096)

    def test_negative_transfer_rejected(self):
        with pytest.raises(ValueError):
            TrackBuffer(
                geometry=FUJITSU_M2266.geometry,
                capacity_bytes=256 * 1024,
                host_transfer_ms=-1.0,
            )


class TestReadAhead:
    def test_empty_buffer_misses(self, buffer):
        assert not buffer.lookup_read(100)
        assert buffer.misses == 1

    def test_fill_after_read_caches_following_blocks(self, buffer):
        buffer.fill_after_read(100)
        for block in range(100, 132):
            assert buffer.contains(block)

    def test_read_ahead_does_not_cross_cylinder(self, buffer):
        geometry = FUJITSU_M2266.geometry
        last_of_cylinder = geometry.blocks_per_cylinder - 1  # block 78
        buffer.fill_after_read(last_of_cylinder)
        assert buffer.contains(last_of_cylinder)
        assert not buffer.contains(last_of_cylinder + 1)

    def test_read_ahead_does_not_look_backward(self, buffer):
        buffer.fill_after_read(100)
        assert not buffer.contains(99)

    def test_sequential_read_pattern_hits(self, buffer):
        buffer.fill_after_read(100)
        assert buffer.lookup_read(101)
        assert buffer.lookup_read(102)
        assert buffer.hits == 2

    def test_refill_replaces_contents(self, buffer):
        buffer.fill_after_read(100)
        buffer.fill_after_read(1000)
        assert not buffer.contains(100)
        assert buffer.contains(1000)


class TestInvalidation:
    def test_write_invalidates_single_block(self, buffer):
        buffer.fill_after_read(100)
        buffer.invalidate_write(101)
        assert not buffer.contains(101)
        assert buffer.contains(102)

    def test_invalidate_absent_block_is_noop(self, buffer):
        buffer.invalidate_write(5)  # no error


class TestCounters:
    def test_hit_ratio(self, buffer):
        assert buffer.hit_ratio == 0.0
        buffer.fill_after_read(10)
        buffer.lookup_read(11)  # hit
        buffer.lookup_read(999)  # miss
        assert buffer.hit_ratio == pytest.approx(0.5)
