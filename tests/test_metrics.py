"""Tests for repro.stats.metrics."""

import pytest

from repro.disk.models import TOSHIBA_MK156F
from repro.driver.monitor import ClassStats
from repro.stats.metrics import (
    DayMetrics,
    MinAvgMax,
    ScopeMetrics,
    scope_metrics,
    seek_time_reduction_vs_fcfs,
    summarize_on_off,
)


def stats_with(scheduled=(), arrival=(), services=(), waits=(),
               rotations=(), transfers=()):
    stats = ClassStats()
    for d in scheduled:
        stats.scheduled_seek.record(d)
    for d in arrival:
        stats.arrival_seek.record(d)
    for s in services:
        stats.service.record(s)
    for w in waits:
        stats.queueing.record(w)
    for r in rotations:
        stats.rotation.record(r)
    for t in transfers:
        stats.transfer.record(t)
    stats.requests = max(len(scheduled), len(services))
    return stats


def day(seek_on, seek_off=None, day_index=0, rearranged=False, seek=10.0,
        service=30.0, wait=50.0):
    scope = ScopeMetrics(
        requests=100,
        mean_seek_distance=50.0,
        fcfs_mean_seek_distance=100.0,
        zero_seek_fraction=0.2,
        mean_seek_time_ms=seek,
        fcfs_mean_seek_time_ms=20.0,
        mean_service_ms=service,
        mean_waiting_ms=wait,
        mean_rotation_ms=8.0,
        mean_transfer_ms=7.0,
        buffer_hits=0,
    )
    return DayMetrics(
        day=day_index,
        rearranged=rearranged,
        scopes={"all": scope, "read": scope, "write": scope},
    )


class TestScopeMetrics:
    def test_from_class_stats(self):
        stats = stats_with(
            scheduled=[0, 0, 100],
            arrival=[200, 300],
            services=[10.0, 20.0],
            waits=[1.0, 3.0],
            rotations=[8.0],
            transfers=[7.8],
        )
        metrics = scope_metrics(stats, TOSHIBA_MK156F.seek)
        assert metrics.mean_seek_distance == pytest.approx(100 / 3)
        assert metrics.fcfs_mean_seek_distance == 250
        assert metrics.zero_seek_fraction == pytest.approx(2 / 3)
        assert metrics.zero_seek_percent == pytest.approx(200 / 3)
        expected_seek = TOSHIBA_MK156F.seek.time(100) / 3
        assert metrics.mean_seek_time_ms == pytest.approx(expected_seek)
        assert metrics.mean_service_ms == 15.0
        assert metrics.mean_waiting_ms == 2.0
        assert metrics.mean_rotation_plus_transfer_ms == pytest.approx(15.8)

    def test_paper_methodology_seek_from_distance_histogram(self):
        """Seek time is computed from the distance histogram through the
        seek function — never measured directly."""
        stats = stats_with(scheduled=[50, 50], services=[1.0])
        metrics = scope_metrics(stats, TOSHIBA_MK156F.seek)
        assert metrics.mean_seek_time_ms == pytest.approx(
            TOSHIBA_MK156F.seek.time(50)
        )


class TestDayMetrics:
    def test_from_tables(self):
        tables = {
            "all": stats_with(scheduled=[10], services=[5.0], waits=[0.5]),
            "read": stats_with(scheduled=[10], services=[5.0], waits=[0.5]),
            "write": stats_with(),
        }
        metrics = DayMetrics.from_tables(
            tables, TOSHIBA_MK156F.seek, day=3, rearranged=True
        )
        assert metrics.day == 3
        assert metrics.rearranged
        assert metrics.all.requests == 1
        assert metrics.read.mean_service_ms == 5.0
        assert metrics.write.requests == 0


class TestMinAvgMax:
    def test_of(self):
        summary = MinAvgMax.of([3.0, 1.0, 2.0])
        assert (summary.min, summary.avg, summary.max) == (1.0, 2.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MinAvgMax.of([])


class TestOnOffSummary:
    def test_summarize_and_reductions(self):
        days = [
            day(None, day_index=0, rearranged=False, seek=20.0, service=40.0, wait=80.0),
            day(None, day_index=1, rearranged=True, seek=2.0, service=24.0, wait=48.0),
            day(None, day_index=2, rearranged=False, seek=18.0, service=38.0, wait=70.0),
            day(None, day_index=3, rearranged=True, seek=2.2, service=22.0, wait=44.0),
        ]
        summary = summarize_on_off(days)
        assert summary.off_seek.avg == pytest.approx(19.0)
        assert summary.on_seek.avg == pytest.approx(2.1)
        assert summary.seek_reduction == pytest.approx(1 - 2.1 / 19.0)
        assert summary.service_reduction == pytest.approx(1 - 23.0 / 39.0)
        assert summary.waiting_reduction == pytest.approx(1 - 46.0 / 75.0)

    def test_requires_both_kinds_of_day(self):
        with pytest.raises(ValueError):
            summarize_on_off([day(None, rearranged=False)])

    def test_scope_selection(self):
        days = [
            day(None, day_index=0, rearranged=False),
            day(None, day_index=1, rearranged=True),
        ]
        summary = summarize_on_off(days, scope="read")
        assert summary.scope == "read"


class TestServicePercentiles:
    def test_percentile_and_fraction_accessors(self):
        from repro.stats.histogram import TimeHistogram

        hist = TimeHistogram()
        for value in (5.0, 10.0, 20.0, 40.0):
            hist.record(value)
        metrics = ScopeMetrics(
            requests=4,
            mean_seek_distance=0,
            fcfs_mean_seek_distance=0,
            zero_seek_fraction=0,
            mean_seek_time_ms=0,
            fcfs_mean_seek_time_ms=0,
            mean_service_ms=18.75,
            mean_waiting_ms=0,
            mean_rotation_ms=0,
            mean_transfer_ms=0,
            buffer_hits=0,
            service_histogram=hist,
        )
        assert metrics.service_percentile_ms(0.5) == pytest.approx(11.0)
        assert metrics.service_percentile_ms(1.0) == pytest.approx(41.0)


class TestFcfsReduction:
    def test_reduction_vs_fcfs(self):
        metrics = day(None).all
        # seek 10 vs FCFS 20 -> 50% reduction (the Table 7 quantity).
        assert seek_time_reduction_vs_fcfs(metrics) == pytest.approx(0.5)

    def test_zero_fcfs_gives_zero(self):
        metrics = ScopeMetrics(
            requests=0,
            mean_seek_distance=0,
            fcfs_mean_seek_distance=0,
            zero_seek_fraction=0,
            mean_seek_time_ms=0,
            fcfs_mean_seek_time_ms=0,
            mean_service_ms=0,
            mean_waiting_ms=0,
            mean_rotation_ms=0,
            mean_transfer_ms=0,
            buffer_hits=0,
        )
        assert seek_time_reduction_vs_fcfs(metrics) == 0.0
