"""Tests for repro.core.hotlist."""

import pytest
from hypothesis import given, strategies as st

from repro.core.hotlist import HotBlock, HotBlockList


class TestConstruction:
    def test_from_pairs_sorts_by_count(self):
        hot = HotBlockList.from_pairs([(1, 5), (2, 50), (3, 10)])
        assert hot.blocks() == [2, 3, 1]

    def test_ties_break_by_block_number(self):
        hot = HotBlockList.from_pairs([(9, 5), (4, 5)])
        assert hot.blocks() == [4, 9]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            HotBlock(block=1, count=-1)


class TestQueries:
    def test_top(self):
        hot = HotBlockList.from_pairs([(1, 3), (2, 2), (3, 1)])
        assert hot.top(2).blocks() == [1, 2]
        assert len(hot.top(10)) == 3
        with pytest.raises(ValueError):
            hot.top(-1)

    def test_indexing_and_iteration(self):
        hot = HotBlockList.from_pairs([(1, 3), (2, 2)])
        assert hot[0].block == 1
        assert [entry.count for entry in hot] == [3, 2]

    def test_count_of_and_contains(self):
        hot = HotBlockList.from_pairs([(1, 3)])
        assert hot.count_of(1) == 3
        assert hot.count_of(2) == 0
        assert hot.contains(1)
        assert not hot.contains(2)

    def test_coverage_of(self):
        hot = HotBlockList.from_pairs([(1, 90), (2, 5)])
        true_counts = {1: 80, 2: 10, 3: 10}
        assert hot.coverage_of(true_counts) == pytest.approx(0.9)
        assert hot.coverage_of({}) == 0.0


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=100,
        unique_by=lambda p: p[0],
    )
)
def test_ordering_invariant(pairs):
    hot = HotBlockList.from_pairs(pairs)
    counts = [entry.count for entry in hot]
    assert counts == sorted(counts, reverse=True)
    assert len(hot) == len(pairs)
