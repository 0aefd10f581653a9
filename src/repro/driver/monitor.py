"""Request monitoring and performance monitoring (Sections 4.1.4, 4.1.5).

Two independent facilities, both modelled on the paper's driver tables:

* :class:`RequestMonitor` — a small bounded table recording the logical
  block number of each arriving request.  A user-level process (the
  reference stream analyzer) periodically reads and clears it; if it fills
  before being cleared, recording is *suspended* (requests are silently
  dropped from the record, never from service).  The table keeps block
  numbers only: the analyzer counts references per block and reads
  nothing else, and every request that reaches the table is one block
  long (both drivers' ``strategy`` rejects any other size before
  recording), so a size, direction or arrival time per row would be
  stored and never read.

* :class:`PerformanceMonitor` — seek-distance distributions in arrival
  order (the FCFS counterfactual) and in scheduled order, plus service-time
  and queueing-time distributions, all kept separately for reads, writes
  and the combined stream.  Arrival-order distances are computed over the
  *home* (original, un-rearranged) cylinders so that on rearranged days the
  counterfactual still reflects "no block rearrangement" (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..stats.histogram import DistanceHistogram, TimeHistogram
from .request import DiskRequest


@dataclass
class RequestMonitor:
    """Bounded in-driver request table with read-and-clear semantics."""

    capacity: int = 8192
    suspended_count: int = 0
    recorded_count: int = 0
    _table: list[int] = field(default_factory=list)
    """Logical block numbers of the recorded requests, in arrival order."""

    def record(self, request: DiskRequest) -> None:
        """Record an arriving request, or count a suspension if full."""
        if len(self._table) >= self.capacity:
            self.suspended_count += 1
            return
        self._table.append(request.logical_block)
        self.recorded_count += 1

    def read_and_clear(self) -> list[int]:
        """The ioctl used by the reference stream analyzer (Section 4.1.4):
        the recorded block numbers, in arrival order."""
        blocks = self._table
        self._table = []
        return blocks

    def __len__(self) -> int:
        return len(self._table)


@dataclass
class ClassStats:
    """Per-class (read/write/all) statistics tables."""

    arrival_seek: DistanceHistogram = field(default_factory=DistanceHistogram)
    scheduled_seek: DistanceHistogram = field(default_factory=DistanceHistogram)
    service: TimeHistogram = field(default_factory=TimeHistogram)
    queueing: TimeHistogram = field(default_factory=TimeHistogram)
    rotation: TimeHistogram = field(default_factory=TimeHistogram)
    transfer: TimeHistogram = field(default_factory=TimeHistogram)
    requests: int = 0
    buffer_hits: int = 0
    errors: int = 0
    """Injected device errors (transient or media) hit while serving."""
    retries: int = 0
    """Bounded retry attempts issued after transient errors."""


@dataclass
class FaultStats:
    """Driver-level fault and recovery accounting (one per device).

    Cumulative counters, plus a day window (``day_requests`` /
    ``day_errors``) with read-and-reset semantics used by the
    rearrangement controller's health check.  The counters are only
    touched on fault paths, so a fault-free run never writes them.
    """

    transient_faults: int = 0
    media_faults: int = 0
    retries: int = 0
    timeouts: int = 0
    failed_requests: int = 0
    fallback_serves: int = 0
    """Redirected accesses served from the block's original home after a
    media error destroyed its reserved-area copy."""
    evictions: int = 0
    """Block-table entries dropped because their reserved slot went bad."""
    skipped_moves: int = 0
    """Nightly block moves abandoned after an unrecoverable error."""
    crashes: int = 0
    recoveries: int = 0
    day_requests: int = 0
    day_errors: int = 0

    @property
    def day_error_rate(self) -> float:
        """Errors per request over the current day window."""
        if self.day_requests == 0:
            return 0.0
        return self.day_errors / self.day_requests

    def start_new_day(self) -> None:
        """Reset the day window (the controller's end-of-day read)."""
        self.day_requests = 0
        self.day_errors = 0


@dataclass
class PerformanceMonitor:
    """The driver's self-measurement tables.

    Call :meth:`note_arrival` when strategy receives a request (this feeds
    the arrival-order/FCFS seek-distance distribution) and
    :meth:`note_completion` when the disk finishes it.
    """

    _classes: dict[str, ClassStats] = field(
        default_factory=lambda: {
            "all": ClassStats(),
            "read": ClassStats(),
            "write": ClassStats(),
        }
    )
    _last_arrival_cylinder: dict[str, int | None] = field(
        default_factory=lambda: {"all": None, "read": None, "write": None}
    )

    def __post_init__(self) -> None:
        self._bind_scopes()

    def _bind_scopes(self) -> None:
        """Prebind the (scope, stats) pairs touched per request.

        Every note_* call updates "all" plus the direction scope; binding
        the pairs once replaces two dict lookups and a tuple build per
        call with a single dict index on ``is_read``.  Rebound whenever
        the tables are replaced (:meth:`read_and_clear`).
        """
        classes = self._classes
        self._scope_pairs = {
            True: (("all", classes["all"]), ("read", classes["read"])),
            False: (("all", classes["all"]), ("write", classes["write"])),
        }

    def note_arrival(self, request: DiskRequest) -> None:
        home = request.home_cylinder
        if home is None:
            raise ValueError("request has no home cylinder; map it first")
        last_by_scope = self._last_arrival_cylinder
        for scope, stats in self._scope_pairs[request.is_read]:
            last = last_by_scope[scope]
            if last is not None:
                stats.arrival_seek.record(abs(home - last))
            last_by_scope[scope] = home
            stats.requests += 1

    def note_completion(self, request: DiskRequest) -> None:
        if request.seek_distance is None:
            raise ValueError("request has no service breakdown")
        for __, stats in self._scope_pairs[request.is_read]:
            stats.scheduled_seek.record(request.seek_distance)
            stats.service.record(request.service_ms)
            stats.queueing.record(request.queueing_ms)
            if request.rotation_ms is not None:
                stats.rotation.record(request.rotation_ms)
            if request.transfer_ms is not None:
                stats.transfer.record(request.transfer_ms)
            if request.buffer_hit:
                stats.buffer_hits += 1

    def note_fault(self, is_read: bool) -> None:
        """Count one injected device error against the request classes."""
        for __, stats in self._scope_pairs[is_read]:
            stats.errors += 1

    def note_retry(self, is_read: bool) -> None:
        """Count one bounded retry attempt against the request classes."""
        for __, stats in self._scope_pairs[is_read]:
            stats.retries += 1

    def stats(self, scope: str = "all") -> ClassStats:
        """Statistics for ``"all"``, ``"read"`` or ``"write"`` requests."""
        try:
            return self._classes[scope]
        except KeyError:
            raise KeyError(
                f"unknown scope {scope!r}; use 'all', 'read' or 'write'"
            ) from None

    def read_and_clear(self) -> dict[str, ClassStats]:
        """The ioctl semantics: return the tables and reset them."""
        tables = self._classes
        self._classes = {
            "all": ClassStats(),
            "read": ClassStats(),
            "write": ClassStats(),
        }
        self._last_arrival_cylinder = {"all": None, "read": None, "write": None}
        self._bind_scopes()
        return tables
