"""Tests for repro.core.analyzer — the reference stream analyzer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analyzer import ReferenceStreamAnalyzer


def run_of(block, size=1):
    """``size`` consecutive block numbers from ``block``."""
    return list(range(block, block + size))


class TestExactCounting:
    def test_counts_references(self):
        analyzer = ReferenceStreamAnalyzer()
        for block in (1, 1, 2, 1, 3):
            analyzer.observe(block)
        assert analyzer.count_of(1) == 3
        assert analyzer.count_of(2) == 1
        assert analyzer.count_of(99) == 0
        assert analyzer.observed == 5
        assert analyzer.distinct_blocks() == 3

    def test_hot_blocks_ordered_by_count(self):
        analyzer = ReferenceStreamAnalyzer()
        for block in (2, 1, 1, 3, 3, 3):
            analyzer.observe(block)
        assert analyzer.hot_blocks() == [(3, 3), (1, 2), (2, 1)]
        assert analyzer.hot_blocks(1) == [(3, 3)]

    def test_ties_break_by_block_number(self):
        analyzer = ReferenceStreamAnalyzer()
        for block in (9, 4):
            analyzer.observe(block)
        assert analyzer.hot_blocks() == [(4, 1), (9, 1)]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            ReferenceStreamAnalyzer().hot_blocks(-1)

    def test_reset(self):
        analyzer = ReferenceStreamAnalyzer()
        analyzer.observe(1)
        analyzer.reset()
        assert analyzer.observed == 0
        assert analyzer.hot_blocks() == []


class TestBoundedList:
    def test_no_replacement_below_capacity(self):
        analyzer = ReferenceStreamAnalyzer(capacity=3)
        for block in (1, 2, 3):
            analyzer.observe(block)
        assert analyzer.replacements == 0

    def test_space_saving_inherits_floor(self):
        """The space-saving rule: the newcomer takes over the minimum
        entry's count plus one."""
        analyzer = ReferenceStreamAnalyzer(capacity=2, heuristic="space-saving")
        analyzer.observe(1)
        analyzer.observe(1)
        analyzer.observe(2)
        analyzer.observe(3)  # evicts 2 (count 1) -> 3 enters with count 2
        assert analyzer.count_of(3) == 2
        assert analyzer.count_of(2) == 0
        assert analyzer.replacements == 1

    def test_evict_min_starts_from_one(self):
        analyzer = ReferenceStreamAnalyzer(capacity=2, heuristic="evict-min")
        analyzer.observe(1)
        analyzer.observe(1)
        analyzer.observe(2)
        analyzer.observe(3)
        assert analyzer.count_of(3) == 1

    def test_space_saving_keeps_true_heavy_hitter(self):
        """A block far hotter than capacity churn always survives."""
        analyzer = ReferenceStreamAnalyzer(capacity=5, heuristic="space-saving")
        stream = []
        for i in range(200):
            stream.append(777)  # the heavy hitter
            stream.append(1000 + i)  # parade of one-off blocks
        for block in stream:
            analyzer.observe(block)
        hot = analyzer.hot_blocks(1)
        assert hot[0][0] == 777
        assert hot[0][1] >= 200

    def test_validation(self):
        with pytest.raises(ValueError):
            ReferenceStreamAnalyzer(capacity=0)
        with pytest.raises(ValueError):
            ReferenceStreamAnalyzer(heuristic="magic")


class TestRecordDigestion:
    def test_reads_and_writes_both_count(self):
        from repro.disk.disk import Disk
        from repro.disk.label import DiskLabel
        from repro.disk.models import TOSHIBA_MK156F
        from repro.driver.driver import AdaptiveDiskDriver
        from repro.driver.ioctl import IoctlInterface
        from repro.driver.request import read_request, write_request

        driver = AdaptiveDiskDriver(
            disk=Disk(TOSHIBA_MK156F), label=DiskLabel(TOSHIBA_MK156F.geometry)
        )
        for request in (read_request(1, 0.0), write_request(2, 0.0)):
            completion = driver.strategy(request, 0.0)
            while completion is not None:
                __, completion = driver.complete(completion)
        analyzer = ReferenceStreamAnalyzer()
        assert analyzer.poll(IoctlInterface(driver)) == 2
        assert analyzer.count_of(1) == 1
        assert analyzer.count_of(2) == 1

    def test_poll_reads_and_clears_driver_table(self):
        from repro.disk.disk import Disk
        from repro.disk.label import DiskLabel
        from repro.disk.models import TOSHIBA_MK156F
        from repro.driver.driver import AdaptiveDiskDriver
        from repro.driver.ioctl import IoctlInterface
        from repro.driver.request import read_request

        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
        driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
        ioctl = IoctlInterface(driver)
        completion = driver.strategy(read_request(5, 0.0), 0.0)
        while completion is not None:
            __, completion = driver.complete(completion)

        analyzer = ReferenceStreamAnalyzer()
        assert analyzer.poll(ioctl) == 1
        assert analyzer.count_of(5) == 1
        assert analyzer.poll(ioctl) == 0  # table was cleared


@given(
    stream=st.lists(st.integers(min_value=0, max_value=20), max_size=400),
    capacity=st.integers(min_value=1, max_value=30),
)
def test_space_saving_overestimates_only(stream, capacity):
    """Space-saving estimates are never below the true count (the classic
    stream-summary guarantee)."""
    analyzer = ReferenceStreamAnalyzer(capacity=capacity, heuristic="space-saving")
    true_counts: dict[int, int] = {}
    for block in stream:
        analyzer.observe(block)
        true_counts[block] = true_counts.get(block, 0) + 1
    for block, estimate in analyzer.hot_blocks():
        assert estimate >= true_counts.get(block, 0)


@given(stream=st.lists(st.integers(min_value=0, max_value=50), max_size=400))
def test_unbounded_analyzer_is_exact(stream):
    analyzer = ReferenceStreamAnalyzer()
    true_counts: dict[int, int] = {}
    for block in stream:
        analyzer.observe(block)
        true_counts[block] = true_counts.get(block, 0) + 1
    assert dict(analyzer.hot_blocks()) == true_counts


RANKING_COUNTERS = {
    "exact": dict(),
    "exact-bounded-space-saving": dict(capacity=48, heuristic="space-saving"),
    "exact-bounded-evict-min": dict(capacity=48, heuristic="evict-min"),
    "spacesaving": dict(counter="spacesaving", capacity=48),
}


def _count_table(analyzer):
    sketch = analyzer._sketch
    return dict(analyzer._counts if sketch is None else sketch.items())


@pytest.mark.parametrize("universe", [24, 4000])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("counter", sorted(RANKING_COUNTERS))
def test_hot_blocks_matches_a_full_sort(counter, seed, universe):
    """Random interleavings of ``observe``, ``observe_blocks`` and
    ``reset``: every ``hot_blocks(n)`` is the fully sorted table's prefix,
    cached or not.  A small block universe makes ties at the n-th entry
    common; a large one (with big batches) takes the numpy ranking
    and the vectorized ingest."""
    import random

    rng = random.Random(seed * 1000 + universe)
    options = dict(RANKING_COUNTERS[counter])
    if universe > 1000 and "capacity" in options:
        options["capacity"] = 2500  # past the numpy ranking threshold
    analyzer = ReferenceStreamAnalyzer(**options)
    for __ in range(40):
        action = rng.random()
        if action < 0.45:
            for __ in range(rng.randint(1, 60)):
                analyzer.observe(rng.randrange(universe))
        elif action < 0.9:
            batch = []
            for __ in range(rng.choice([5, 50, 1200])):
                batch += run_of(rng.randrange(universe), rng.choice([1, 1, 1, 3]))
            analyzer.observe_blocks(batch)
        else:
            analyzer.reset()
        expected = sorted(
            _count_table(analyzer).items(), key=lambda item: (-item[1], item[0])
        )
        size = len(expected)
        # Cache misses and hits in turn: a short prefix, then longer ones.
        for n in (16, None, 0, 1, 16, size - 1, size, size + 5, None, 1):
            if n is not None and n < 0:
                continue
            got = analyzer.hot_blocks(n)
            assert got == expected[:n], (n, size)
            got.append((-1, -1))  # callers own the list they get back
            got.reverse()
        assert analyzer.hot_blocks(16) == expected[:16]


@pytest.mark.parametrize("universe", [24, 4000])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("counter", sorted(RANKING_COUNTERS))
def test_hot_blocks_online_pattern_matches_a_full_sort(counter, seed, universe):
    """The online arranger's pattern: only ``hot_blocks(16)``, once or
    twice between count changes.  Under the exact counter each miss after
    the first re-ranks the cached top 16 with the blocks counted since;
    that merge must equal the fully sorted table's prefix, with ties at
    the 16th entry (the small universe), through bounded-counter
    evictions and resets.  The Space-Saving sketch never merges."""
    import random

    rng = random.Random(seed * 1000 + universe + 7)
    options = dict(RANKING_COUNTERS[counter])
    if universe > 1000 and "capacity" in options:
        options["capacity"] = 2500  # past the numpy ranking threshold
    analyzer = ReferenceStreamAnalyzer(**options)
    merges = ties = 0
    for __ in range(50):
        action = rng.random()
        if action < 0.55:
            for __ in range(rng.randint(1, 12)):
                analyzer.observe(rng.randrange(universe))
        elif action < 0.95:
            batch = []
            for __ in range(rng.choice([5, 40, 40, 1200])):
                batch += run_of(rng.randrange(universe), rng.choice([1, 1, 3]))
            analyzer.observe_blocks(batch)
        else:
            analyzer.reset()
        expected = sorted(
            _count_table(analyzer).items(), key=lambda item: (-item[1], item[0])
        )
        if len(expected) > 16 and expected[15][1] == expected[16][1]:
            ties += 1
        merges += analyzer._touched is not None
        for __ in range(rng.choice([1, 2])):
            assert analyzer.hot_blocks(16) == expected[:16]
    if counter == "spacesaving":
        assert merges == 0
    else:
        assert merges > 0
    if universe < 100:
        assert ties > 0


def test_hot_blocks_cache_follows_every_count_change():
    analyzer = ReferenceStreamAnalyzer()
    for block in (1, 2, 2):
        analyzer.observe(block)
    assert analyzer.hot_blocks(1) == [(2, 2)]
    analyzer.observe(1)
    analyzer.observe(1)
    assert analyzer.hot_blocks(1) == [(1, 3)]
    analyzer.observe_blocks([7] * 1100)
    assert analyzer.hot_blocks(1) == [(7, 1100)]
    analyzer.reset()
    assert analyzer.hot_blocks(1) == []


@settings(deadline=None, max_examples=60)
@given(
    counter=st.sampled_from(sorted(RANKING_COUNTERS)),
    polls=st.lists(
        st.lists(st.integers(min_value=0, max_value=80), max_size=120),
        min_size=1,
        max_size=6,
    ),
    n=st.integers(min_value=0, max_value=60),
)
def test_hot_blocks_is_the_ranked_hot_list(counter, polls, n):
    """``hot_blocks`` is the paper's hot block list, ranked at the
    source: counts never increase down the list, equal counts go by
    ascending block number, and every tracked block appears once.  An
    analyzer asked only for its top ``n`` after each poll (which merges
    the cached prefix with the blocks counted since) answers exactly the
    first ``n`` of a full re-ranking of a twin that saw the same polls."""
    options = RANKING_COUNTERS[counter]
    prefix_only = ReferenceStreamAnalyzer(**options)
    full = ReferenceStreamAnalyzer(**options)
    for poll in polls:
        prefix_only.observe_blocks(poll)
        full.observe_blocks(poll)
        ranked = full.hot_blocks()
        keys = [(-count, block) for block, count in ranked]
        assert keys == sorted(keys)
        assert len({block for block, __ in ranked}) == len(ranked)
        assert len(ranked) == full.distinct_blocks()
        assert prefix_only.hot_blocks(n) == ranked[:n]
