"""Tests for repro.fs.buffercache — LRU write-back with periodic sync."""

import pytest
from hypothesis import given, strategies as st

from repro.fs.buffercache import BufferCache


class TestWrites:
    def test_write_dirties_block(self):
        cache = BufferCache(capacity_blocks=4)
        cache.write(7)
        assert cache.dirty_blocks() == [7]

    def test_write_hit_keeps_dirty(self):
        cache = BufferCache(capacity_blocks=4)
        cache.write(7)
        cache.write(7)
        assert cache.dirty_blocks() == [7]

    def test_lru_eviction_order(self):
        cache = BufferCache(capacity_blocks=2)
        cache.write_many([1, 2, 3])  # 3 evicts 1
        assert 1 not in cache
        assert 2 in cache and 3 in cache

    def test_write_refreshes_lru_position(self):
        cache = BufferCache(capacity_blocks=2)
        cache.write_many([1, 2, 1])  # 1 becomes most recent
        cache.write(3)  # evicts 2
        assert 1 in cache and 2 not in cache


class TestSync:
    def test_sync_returns_and_cleans_dirty_set(self):
        """The periodic update policy: 'periodically, all dirty blocks are
        copied back to the disk' (Section 3.1)."""
        cache = BufferCache(capacity_blocks=8)
        cache.write(1)
        cache.write(2)
        assert sorted(cache.sync()) == [1, 2]
        assert cache.sync() == []
        assert 1 in cache  # blocks stay cached, just clean

    def test_redirtying_after_sync(self):
        cache = BufferCache(capacity_blocks=8)
        cache.write(1)
        cache.sync()
        cache.write(1)
        assert cache.sync() == [1]

    def test_write_eviction_follows_the_dirty_set(self):
        cache = BufferCache(capacity_blocks=2)
        cache.write(1)
        cache.write(2)
        cache.write(3)  # evicts dirty 1
        assert cache.sync() == [2, 3, 1]

    def test_dirty_dedup_within_interval(self):
        """Multiple writes to one block between syncs yield one write-back:
        the mechanism that makes bursts sets of *distinct* blocks."""
        cache = BufferCache(capacity_blocks=8)
        for __ in range(10):
            cache.write(5)
        assert cache.sync() == [5]


class TestInvalidate:
    def test_invalidate_removes_dirty_entry(self):
        cache = BufferCache(capacity_blocks=8)
        cache.write(5)
        cache.invalidate(5)
        assert cache.sync() == []

    def test_invalidate_absent_is_noop(self):
        BufferCache(capacity_blocks=2).invalidate(99)

    def test_clear(self):
        cache = BufferCache(capacity_blocks=8)
        cache.write(5)
        cache.clear()
        assert len(cache) == 0
        assert cache.sync() == []


class TestAccounting:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BufferCache(capacity_blocks=0)


@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=30)),
        max_size=200,
    )
)
def test_cache_size_and_dirty_invariants(ops):
    """The cache never exceeds capacity and every dirty block is cached,
    across writes and syncs."""
    cache = BufferCache(capacity_blocks=8)
    for is_write, block in ops:
        if is_write:
            cache.write(block)
        else:
            cache.sync()
        assert len(cache) <= 8
        for dirty in cache.dirty_blocks():
            assert dirty in cache


@given(
    writes=st.lists(st.integers(min_value=0, max_value=5), max_size=50),
)
def test_sync_returns_each_dirty_block_once(writes):
    cache = BufferCache(capacity_blocks=16)
    for block in writes:
        cache.write(block)
    flushed = cache.sync()
    assert len(flushed) == len(set(flushed))
    assert set(flushed) == set(writes)
