"""Per-day metrics in the paper's vocabulary.

Each experimental day yields, per request class (all/read/write):

* mean seek **distance** in scheduled order and in arrival order (the FCFS
  counterfactual over original block positions — Table 3's "FCFS Mean Seek
  Dist"),
* mean seek **time**, computed by pushing the seek-distance histograms
  through the drive's seek-time function — the paper's stated methodology
  ("these were computed using the measured seek distance distribution and
  the seek time functions", Section 5.2),
* the zero-length-seek percentage,
* measured mean service and waiting (queueing) times, and rotation/transfer
  components (used for Table 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..disk.seek import SeekModel
from .histogram import TimeHistogram

if TYPE_CHECKING:  # avoid a circular import with repro.driver.monitor
    from ..driver.monitor import ClassStats

SCOPES = ("all", "read", "write")


@dataclass(frozen=True)
class ScopeMetrics:
    """One request class's metrics for one day."""

    requests: int
    mean_seek_distance: float
    fcfs_mean_seek_distance: float
    zero_seek_fraction: float
    mean_seek_time_ms: float
    fcfs_mean_seek_time_ms: float
    mean_service_ms: float
    mean_waiting_ms: float
    mean_rotation_ms: float
    mean_transfer_ms: float
    buffer_hits: int
    errors: int = 0
    """Injected device errors hit while serving this class's requests."""
    retries: int = 0
    """Bounded retry attempts issued after transient errors."""
    service_histogram: TimeHistogram = field(repr=False, hash=False, compare=False, default_factory=TimeHistogram)

    @property
    def zero_seek_percent(self) -> float:
        return 100.0 * self.zero_seek_fraction

    @property
    def mean_rotation_plus_transfer_ms(self) -> float:
        """The Table 10 quantity: rotational latency plus transfer time."""
        return self.mean_rotation_ms + self.mean_transfer_ms

    def service_percentile_ms(self, q: float) -> float:
        """Service-time percentile (1 ms resolution), e.g. q=0.5 for the
        median used to read points off the Figure 4/6 CDFs."""
        return self.service_histogram.percentile(q)


def scope_metrics(stats: ClassStats, seek_model: SeekModel) -> ScopeMetrics:
    """Reduce one of the driver's per-class tables to :class:`ScopeMetrics`."""
    return ScopeMetrics(
        requests=stats.requests,
        mean_seek_distance=stats.scheduled_seek.mean,
        fcfs_mean_seek_distance=stats.arrival_seek.mean,
        zero_seek_fraction=stats.scheduled_seek.zero_fraction,
        mean_seek_time_ms=seek_model.mean_time(stats.scheduled_seek.buckets),
        fcfs_mean_seek_time_ms=seek_model.mean_time(stats.arrival_seek.buckets),
        mean_service_ms=stats.service.mean_ms,
        mean_waiting_ms=stats.queueing.mean_ms,
        mean_rotation_ms=stats.rotation.mean_ms,
        mean_transfer_ms=stats.transfer.mean_ms,
        buffer_hits=stats.buffer_hits,
        errors=stats.errors,
        retries=stats.retries,
        service_histogram=stats.service,
    )


@dataclass(frozen=True)
class DayMetrics:
    """All request classes' metrics for one experimental day."""

    day: int
    rearranged: bool
    scopes: dict[str, ScopeMetrics]

    @property
    def all(self) -> ScopeMetrics:
        return self.scopes["all"]

    @property
    def read(self) -> ScopeMetrics:
        return self.scopes["read"]

    @property
    def write(self) -> ScopeMetrics:
        return self.scopes["write"]

    @classmethod
    def from_tables(
        cls,
        tables: dict[str, ClassStats],
        seek_model: SeekModel,
        day: int = 0,
        rearranged: bool = False,
    ) -> "DayMetrics":
        scopes = {
            scope: scope_metrics(tables[scope], seek_model)
            for scope in SCOPES
        }
        return cls(day=day, rearranged=rearranged, scopes=scopes)


@dataclass(frozen=True)
class MinAvgMax:
    """Min/avg/max of a set of daily means — the Tables 2/4/5/6 row shape."""

    min: float
    avg: float
    max: float

    @classmethod
    def of(cls, values: list[float]) -> "MinAvgMax":
        if not values:
            raise ValueError("cannot summarize an empty list of days")
        return cls(min=min(values), avg=sum(values) / len(values), max=max(values))


@dataclass(frozen=True)
class OnOffSummary:
    """The Table 2/4/5/6 row pair: daily-mean summaries for on vs off days."""

    scope: str
    off_seek: MinAvgMax
    on_seek: MinAvgMax
    off_service: MinAvgMax
    on_service: MinAvgMax
    off_waiting: MinAvgMax
    on_waiting: MinAvgMax

    @property
    def seek_reduction(self) -> float:
        """Fractional reduction in average daily mean seek time, on vs off."""
        if self.off_seek.avg == 0:
            return 0.0
        return 1.0 - self.on_seek.avg / self.off_seek.avg

    @property
    def service_reduction(self) -> float:
        if self.off_service.avg == 0:
            return 0.0
        return 1.0 - self.on_service.avg / self.off_service.avg

    @property
    def waiting_reduction(self) -> float:
        if self.off_waiting.avg == 0:
            return 0.0
        return 1.0 - self.on_waiting.avg / self.off_waiting.avg


def summarize_on_off(
    days: list[DayMetrics], scope: str = "all"
) -> OnOffSummary:
    """Fold a campaign's daily metrics into the paper's on/off summary."""
    on = [day.scopes[scope] for day in days if day.rearranged]
    off = [day.scopes[scope] for day in days if not day.rearranged]
    if not on or not off:
        raise ValueError("need at least one on day and one off day")
    return OnOffSummary(
        scope=scope,
        off_seek=MinAvgMax.of([m.mean_seek_time_ms for m in off]),
        on_seek=MinAvgMax.of([m.mean_seek_time_ms for m in on]),
        off_service=MinAvgMax.of([m.mean_service_ms for m in off]),
        on_service=MinAvgMax.of([m.mean_service_ms for m in on]),
        off_waiting=MinAvgMax.of([m.mean_waiting_ms for m in off]),
        on_waiting=MinAvgMax.of([m.mean_waiting_ms for m in on]),
    )


def seek_time_reduction_vs_fcfs(metrics: ScopeMetrics) -> float:
    """Table 7's quantity: % reduction in mean seek time relative to the
    seek time that would have been observed serving requests in arrival
    order with no rearrangement."""
    if metrics.fcfs_mean_seek_time_ms == 0:
        return 0.0
    return 1.0 - metrics.mean_seek_time_ms / metrics.fcfs_mean_seek_time_ms
