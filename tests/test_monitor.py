"""Tests for repro.driver.monitor — request and performance monitoring."""

import copy
import os
import random

import numpy as np
import pytest

from repro.driver.monitor import (
    FOLD_LIMIT,
    ClassStats,
    PerformanceMonitor,
    RequestMonitor,
)
from repro.driver.request import DiskRequest, Op, read_request, write_request


def finished_request(block, cylinder, is_read=True, arrival=0.0, submit=1.0,
                     complete=10.0, seek_distance=0, rotation=2.0,
                     transfer=3.0, buffer_hit=False):
    request = DiskRequest(
        logical_block=block,
        op=Op.READ if is_read else Op.WRITE,
        arrival_ms=arrival,
    )
    request.home_cylinder = cylinder
    request.submit_ms = submit
    request.complete_ms = complete
    request.seek_distance = seek_distance
    request.rotation_ms = rotation
    request.transfer_ms = transfer
    request.buffer_hit = buffer_hit
    return request


class TestRequestMonitor:
    def test_records_arrivals(self):
        monitor = RequestMonitor(capacity=10)
        monitor.record(read_request(5, 1.0))
        monitor.record(write_request(9, 2.0))
        assert monitor.read_and_clear() == [5, 9]

    def test_read_and_clear_empties_table(self):
        monitor = RequestMonitor(capacity=10)
        monitor.record(read_request(5, 1.0))
        monitor.read_and_clear()
        assert monitor.read_and_clear() == []

    def test_suspends_when_full(self):
        """Section 4.1.4: if the table fills before being cleared,
        recording is temporarily suspended."""
        monitor = RequestMonitor(capacity=2)
        for i in range(5):
            monitor.record(read_request(i, float(i)))
        assert len(monitor) == 2
        assert monitor.suspended_count == 3

    def test_recording_resumes_after_clear(self):
        monitor = RequestMonitor(capacity=1)
        monitor.record(read_request(1, 0.0))
        monitor.record(read_request(2, 0.0))  # suspended
        monitor.read_and_clear()
        monitor.record(read_request(3, 0.0))
        assert monitor.read_and_clear() == [3]


class TestPerformanceMonitorArrivalOrder:
    def test_first_arrival_records_no_distance(self):
        monitor = PerformanceMonitor()
        request = finished_request(1, cylinder=100)
        monitor.note_arrival(request)
        assert monitor.stats("all").arrival_seek.count == 0
        assert monitor.stats("all").requests == 1

    def test_arrival_distances_use_home_cylinders(self):
        monitor = PerformanceMonitor()
        monitor.note_arrival(finished_request(1, cylinder=100))
        monitor.note_arrival(finished_request(2, cylinder=350))
        assert monitor.stats("all").arrival_seek.mean == 250

    def test_per_class_distance_chains_are_independent(self):
        """The read-only FCFS counterfactual chains over reads only."""
        monitor = PerformanceMonitor()
        monitor.note_arrival(finished_request(1, cylinder=0, is_read=True))
        monitor.note_arrival(finished_request(2, cylinder=500, is_read=False))
        monitor.note_arrival(finished_request(3, cylinder=10, is_read=True))
        assert monitor.stats("read").arrival_seek.mean == 10  # 0 -> 10
        assert monitor.stats("write").arrival_seek.count == 0
        # The combined stream saw 0 -> 500 -> 10.
        assert monitor.stats("all").arrival_seek.total == 500 + 490

    def test_arrival_requires_home_cylinder(self):
        monitor = PerformanceMonitor()
        with pytest.raises(ValueError):
            monitor.note_arrival(read_request(1, 0.0))


class TestPerformanceMonitorCompletion:
    def test_completion_populates_all_tables(self):
        monitor = PerformanceMonitor()
        request = finished_request(
            1, cylinder=10, seek_distance=7, rotation=4.0, transfer=3.0
        )
        monitor.note_arrival(request)
        monitor.note_completion(request)
        stats = monitor.stats("read")
        assert stats.scheduled_seek.mean == 7
        assert stats.service.mean_ms == pytest.approx(9.0)  # 10 - 1
        assert stats.queueing.mean_ms == pytest.approx(1.0)  # 1 - 0
        assert stats.rotation.mean_ms == pytest.approx(4.0)
        assert stats.transfer.mean_ms == pytest.approx(3.0)

    def test_buffer_hits_counted(self):
        monitor = PerformanceMonitor()
        request = finished_request(1, cylinder=10, buffer_hit=True)
        monitor.note_arrival(request)
        monitor.note_completion(request)
        assert monitor.stats("read").buffer_hits == 1
        assert monitor.stats("write").buffer_hits == 0

    def test_completion_requires_breakdown(self):
        monitor = PerformanceMonitor()
        request = read_request(1, 0.0)
        request.home_cylinder = 5
        monitor.note_arrival(request)
        with pytest.raises(ValueError):
            monitor.note_completion(request)

    @pytest.mark.parametrize("sample", ["rotation", "transfer"])
    def test_negative_sample_rejected_before_recording(self, sample):
        monitor = PerformanceMonitor()
        request = finished_request(1, cylinder=10, **{sample: -1.0})
        monitor.note_arrival(request)
        with pytest.raises(ValueError):
            monitor.note_completion(request)
        assert monitor.stats("all").scheduled_seek.count == 0
        assert monitor.stats("all").service.count == 0

    def test_distance_is_recorded_as_whole_cylinders(self):
        monitor = PerformanceMonitor()
        request = finished_request(1, cylinder=10, seek_distance=7.9)
        monitor.note_arrival(request)
        monitor.note_completion(request)
        seek = monitor.stats("all").scheduled_seek
        assert seek.total == 7
        assert dict(seek.buckets) == {7: 1}

    def test_writes_do_not_pollute_read_stats(self):
        monitor = PerformanceMonitor()
        request = finished_request(1, cylinder=10, is_read=False)
        monitor.note_arrival(request)
        monitor.note_completion(request)
        assert monitor.stats("read").requests == 0
        assert monitor.stats("write").requests == 1
        assert monitor.stats("all").requests == 1


class TestReadAndClear:
    def test_ioctl_semantics(self):
        monitor = PerformanceMonitor()
        request = finished_request(1, cylinder=10)
        monitor.note_arrival(request)
        monitor.note_completion(request)
        tables = monitor.read_and_clear()
        assert tables["all"].requests == 1
        assert monitor.stats("all").requests == 0
        # The arrival-distance chain also resets.
        monitor.note_arrival(finished_request(2, cylinder=400))
        assert monitor.stats("all").arrival_seek.count == 0
        # The tables read out, and a snapshot, are copies: the monitor
        # resets and keeps writing its own layout, never theirs.
        snapshot = monitor.stats("read")
        kept = copy.deepcopy((tables, snapshot))
        for block, cylinder in [(3, 90), (4, 7), (5, 400)]:
            later = finished_request(
                block, cylinder, seek_distance=cylinder, buffer_hit=True
            )
            monitor.note_arrival(later)
            monitor.note_completion(later)
            monitor.note_fault(True)
            monitor.note_retry(True)
        assert (tables, snapshot) == kept
        assert monitor.stats("read").requests == 4
        assert monitor.read_and_clear()["read"].scheduled_seek.count == 3
        assert (tables, snapshot) == kept

    def test_unknown_scope(self):
        with pytest.raises(KeyError):
            PerformanceMonitor().stats("meta")


_SCOPES = ("all", "read", "write")
STRESS_SEEDS = [11, 23, 37]
if os.environ.get("VECTOR_STRESS_SEED"):
    # CI runs extra pinned seeds; a failure reproduces with
    # ``VECTOR_STRESS_SEED=<n>``.
    STRESS_SEEDS.append(int(os.environ["VECTOR_STRESS_SEED"]))


class _ReferenceTables:
    """The monitor's tables rebuilt one sample at a time with
    ``TimeHistogram.record`` and ``DistanceHistogram.record``."""

    def __init__(self):
        self.scopes = {scope: ClassStats() for scope in _SCOPES}
        self.last = dict.fromkeys(self.scopes)

    def arrival(self, request):
        for scope in ("all", "read" if request.is_read else "write"):
            stats = self.scopes[scope]
            if self.last[scope] is not None:
                stats.arrival_seek.record(
                    abs(request.home_cylinder - self.last[scope])
                )
            self.last[scope] = request.home_cylinder
            stats.requests += 1

    def completion(self, request):
        for scope in ("all", "read" if request.is_read else "write"):
            stats = self.scopes[scope]
            stats.scheduled_seek.record(request.seek_distance)
            stats.service.record(request.service_ms)
            stats.queueing.record(request.queueing_ms)
            if request.rotation_ms is not None:
                stats.rotation.record(request.rotation_ms)
            if request.transfer_ms is not None:
                stats.transfer.record(request.transfer_ms)
            if request.buffer_hit:
                stats.buffer_hits += 1


def _assert_tables_equal(got, want):
    assert got.requests == want.requests
    assert got.buffer_hits == want.buffer_hits
    for name in ("arrival_seek", "scheduled_seek"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.count, a.total) == (b.count, b.total), name
        assert list(a.buckets.items()) == list(b.buckets.items()), name
    for name in ("service", "queueing", "rotation", "transfer"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.count, a.total_ms, a.total_sq_ms, a.max_ms) == (
            b.count,
            b.total_ms,
            b.total_sq_ms,
            b.max_ms,
        ), name
        assert list(a.buckets.items()) == list(b.buckets.items()), name


def _random_request(rng, block, clock, read_fraction=0.6):
    request = DiskRequest(
        logical_block=block,
        op=Op.READ if rng.random() < read_fraction else Op.WRITE,
        arrival_ms=clock,
    )
    request.home_cylinder = rng.randrange(1000)
    request.submit_ms = clock + rng.expovariate(0.1)
    request.complete_ms = request.submit_ms + rng.uniform(0.0, 40.0)
    # Trace replay may carry a fractional distance; the tables keep
    # whole cylinders.
    request.seek_distance = rng.randrange(1000) + rng.choice((0, 0, 0.5))
    request.rotation_ms = None if rng.random() < 0.1 else rng.uniform(0, 16.7)
    request.transfer_ms = None if rng.random() < 0.1 else rng.uniform(0.1, 2)
    request.buffer_hit = rng.random() < 0.2
    return request


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_tables_match_histograms_recorded_one_sample_at_a_time(
    seed, monkeypatch
):
    """Oracle: the monitor's folded tables equal per-scope histograms fed
    with ``record``, in every field and in bucket key order.  The stream
    crosses the fold limit twice before the first read (so later folds
    start from non-zero running totals), is read by ``stats`` and by a
    ``read_and_clear`` that restarts the arrival chains, both with part
    of a chunk still in the columns, has read-only and write-only
    stretches long enough to fold chunks with no writes and no reads,
    and ends draining a backlog, so the completions reach the limit on
    their own; about a tenth of the rotation and transfer samples are
    ``None``."""
    chunks = []
    fold = PerformanceMonitor.fold

    def spying(monitor):
        # The direction flags of the arrivals and completions folded.
        chunks.append(
            (bytes(monitor._arrival_reads), bytes(monitor._reads))
        )
        fold(monitor)

    monkeypatch.setattr(PerformanceMonitor, "fold", spying)
    rng = random.Random(seed)
    monitor = PerformanceMonitor()
    reference = _ReferenceTables()
    pending = []
    clock = 0.0
    block = 0

    def run(requests, read_fraction, completing=0.55):
        nonlocal clock, block
        for __ in range(requests):
            clock += rng.expovariate(0.5)
            request = _random_request(rng, block, clock, read_fraction)
            block += 1
            monitor.note_arrival(request)
            reference.arrival(request)
            pending.append(request)
            while pending and rng.random() < completing:
                done = pending.pop(rng.randrange(len(pending)))
                monitor.note_completion(done)
                reference.completion(done)

    def check(read):
        folds = len(chunks)
        tables = read()
        assert 0 < len(chunks[folds][1]) < FOLD_LIMIT  # read mid-chunk
        for scope, want in reference.scopes.items():
            assert 0 < want.rotation.count < want.scheduled_seek.count
            assert 0 < want.transfer.count < want.scheduled_seek.count
            assert want.buffer_hits > 0
            _assert_tables_equal(tables[scope], want)

    run(2 * FOLD_LIMIT + FOLD_LIMIT // 2, 0.6)
    assert len(chunks) >= 2  # two full chunks folded before any read
    check(lambda: {scope: monitor.stats(scope) for scope in _SCOPES})
    run(FOLD_LIMIT // 3, 0.6)
    check(monitor.read_and_clear)
    reference = _ReferenceTables()
    run(3 * FOLD_LIMIT, 1.0)
    run(3 * FOLD_LIMIT, 0.0, completing=0.3)
    run(FOLD_LIMIT // 2, 0.6)
    assert len(pending) > FOLD_LIMIT
    for done in pending:
        monitor.note_completion(done)
        reference.completion(done)
    assert any(
        not arrived and len(done) == FOLD_LIMIT for arrived, done in chunks
    )
    check(lambda: {scope: monitor.stats(scope) for scope in _SCOPES})
    folded = [flags for chunk in chunks for flags in chunk if flags]
    assert any(set(flags) == {1} for flags in folded)  # no writes
    assert any(set(flags) == {0} for flags in folded)  # no reads


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_seeded_accumulate_matches_running_sum(seed):
    """Guard: the fold's float totals rely on ``np.add.accumulate``
    seeded with the running value adding left to right, exactly as
    ``+=`` does, also along the rows of a 2-D array.  A numpy release
    that reordered accumulation would move every digest; this fails
    first, and names the cause."""
    rng = np.random.default_rng(seed)
    for trial in range(50):
        rows = rng.exponential(rng.uniform(0.1, 100.0), (3, 700))
        rows[1] *= rows[1]
        rows[2, rng.random(700) < 0.1] = 0.0
        start = [float(rng.uniform(0.0, 1e6)) for __ in rows]
        want = []
        for total, row in zip(start, rows.tolist()):
            for value in row:
                total += value
            want.append(total)
        seeded = np.concatenate(([[value] for value in start], rows), axis=1)
        assert [np.add.accumulate(row)[-1] for row in seeded] == want
        assert np.add.accumulate(seeded, axis=1)[:, -1].tolist() == want
        # In place, as the fold accumulates.
        np.add.accumulate(seeded, axis=1, out=seeded)
        assert seeded[:, -1].tolist() == want


def test_columns_stay_below_the_fold_limit():
    """An arrival-only stream (no completion ever triggers a fold) is
    folded by its own arrivals: no column grows to the limit."""
    columns = (
        "_homes",
        "_arrival_reads",
        "_distances",
        "_services",
        "_queueings",
        "_rotations",
        "_transfers",
        "_hits",
        "_reads",
    )
    monitor = PerformanceMonitor()
    for home in range(5 * FOLD_LIMIT):
        monitor.record_arrival(home % 977, home % 3 == 0)
        for name in columns:
            assert len(getattr(monitor, name)) < FOLD_LIMIT, name
    assert monitor.stats("all").requests == 5 * FOLD_LIMIT
    assert monitor.stats("all").arrival_seek.count == 5 * FOLD_LIMIT - 1
