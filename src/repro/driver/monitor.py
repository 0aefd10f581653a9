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
  The monitor owns the one layout of these tables, private to this
  module: per scope a flat counter list (ending in the last arrival
  cylinder) and a bucket-key log per histogram.  Only
  :meth:`~PerformanceMonitor.record_arrival` and
  :meth:`~PerformanceMonitor.record_completion` write it — the scalar
  driver reaches them through the checked ``note_*`` methods, the batch
  kernel (:mod:`repro.sim.vector`) directly — and
  :meth:`~PerformanceMonitor.stats` and
  :meth:`~PerformanceMonitor.read_and_clear` copy it out as
  :class:`ClassStats` with real histograms, as the paper's monitoring
  ioctl copies its tables out of the driver.
"""

from __future__ import annotations

from collections import Counter
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


#: The per-scope layout of the tables.  Each scope's counter list holds
#: the scalar fields of its histograms in this order — arrival_seek 0–1,
#: scheduled_seek 2–3, service 4–7, queueing 8–11, rotation 12–15,
#: transfer 16–19 — then the counters of ``_COUNTERS``: requests 20,
#: buffer_hits 21, errors 22, retries 23 — and last the scope's last
#: arrival cylinder, 24.  The bucket-key logs and bucket ``Counter``
#: objects of a scope follow the histogram order.
_TIME_FIELDS = ("count", "total_ms", "total_sq_ms", "max_ms")
_HISTOGRAMS = (
    ("arrival_seek", DistanceHistogram, ("count", "total")),
    ("scheduled_seek", DistanceHistogram, ("count", "total")),
    ("service", TimeHistogram, _TIME_FIELDS),
    ("queueing", TimeHistogram, _TIME_FIELDS),
    ("rotation", TimeHistogram, _TIME_FIELDS),
    ("transfer", TimeHistogram, _TIME_FIELDS),
)
_COUNTERS = ("requests", "buffer_hits", "errors", "retries")
_EMPTY_SCOPE = tuple(
    getattr(kind(), name) for __, kind, names in _HISTOGRAMS for name in names
) + (0,) * len(_COUNTERS) + (None,)
_SCOPES = ("all", "read", "write")
"""Scope order of the layout: the direction scope of a read is 1, of a
write 2."""
_BUCKET_LOG_LIMIT = 1024
"""Logged completions after which :meth:`PerformanceMonitor
.record_completion` counts the bucket logs into their Counters even though
no one read the tables (keeps the logs' memory small on long runs)."""


class PerformanceMonitor:
    """The driver's self-measurement tables.

    Call :meth:`note_arrival` when strategy receives a request (this feeds
    the arrival-order/FCFS seek-distance distribution) and
    :meth:`note_completion` when the disk finishes it.  Both check the
    request and hand its samples to :meth:`record_arrival` and
    :meth:`record_completion`, the only code that writes the tables; the
    batch kernel (:mod:`repro.sim.vector`), whose samples are correct by
    construction, calls those two directly.

    The tables are one flat layout per scope (``_SCOPES``): a counter
    list in the slot order above and one bucket-key log per histogram.
    A sample's bucket key is appended to its log instead of incrementing
    the bucket ``Counter``; the logs are counted in when they reach
    ``_BUCKET_LOG_LIMIT`` and whenever the tables are read.
    ``Counter.update`` on a list counts in C and inserts new keys in
    first-occurrence order, the order one-at-a-time increments would have
    inserted them, which the metrics' float sums depend on.  Each sample
    is written to the "all" scope first, then to its direction's, in the
    same order that :meth:`TimeHistogram.record
    <repro.stats.histogram.TimeHistogram.record>` and
    :meth:`DistanceHistogram.record
    <repro.stats.histogram.DistanceHistogram.record>` accumulate, so the
    tables equal histograms fed one sample at a time.
    """

    __slots__ = ("_counters", "_bucket_logs", "_buckets", "_by_class")

    def __init__(self) -> None:
        self._counters = tuple(list(_EMPTY_SCOPE) for __ in _SCOPES)
        self._bucket_logs = tuple(
            tuple([] for __ in _HISTOGRAMS) for __ in _SCOPES
        )
        self._buckets = [[Counter() for __ in _HISTOGRAMS] for __ in _SCOPES]
        scopes = tuple(zip(self._counters, self._bucket_logs))
        # The scopes a sample is written to, indexed by ``is_read``:
        # "all", then the write or the read scope.
        self._by_class = ((scopes[0], scopes[2]), (scopes[0], scopes[1]))

    def note_arrival(self, request: DiskRequest) -> None:
        home = request.home_cylinder
        if home is None:
            raise ValueError("request has no home cylinder; map it first")
        self.record_arrival(home, request.is_read)

    def note_completion(self, request: DiskRequest) -> None:
        distance = request.seek_distance
        if distance is None:
            raise ValueError("request has no service breakdown")
        service = request.service_ms
        queueing = request.queueing_ms
        rotation = request.rotation_ms
        transfer = request.transfer_ms
        if (
            distance < 0
            or service < 0
            or queueing < 0
            or (rotation is not None and rotation < 0)
            or (transfer is not None and transfer < 0)
        ):
            raise ValueError(f"negative sample in completed request {request}")
        self.record_completion(
            int(distance),
            service,
            queueing,
            rotation,
            transfer,
            request.buffer_hit,
            request.is_read,
        )

    def record_arrival(self, home: int, is_read: bool) -> None:
        """Write one arrival at home cylinder ``home`` (unchecked)."""
        for counters, logs in self._by_class[is_read]:
            previous = counters[24]
            if previous is not None:
                distance = abs(home - previous)
                logs[0].append(distance)
                counters[0] += 1
                counters[1] += distance
            counters[24] = home
            counters[20] += 1

    def record_completion(
        self,
        distance: int,
        service_ms: float,
        queueing_ms: float,
        rotation_ms: float | None,
        transfer_ms: float | None,
        buffer_hit: bool,
        is_read: bool,
    ) -> None:
        """Write one completion's samples (unchecked: ``distance`` whole
        cylinders, no sample negative; ``None`` rotation or transfer is
        not recorded)."""
        for m, logs in self._by_class[is_read]:
            logs[1].append(distance)
            m[2] += 1
            m[3] += distance
            logs[2].append(int(service_ms))
            m[4] += 1
            m[5] += service_ms
            m[6] += service_ms * service_ms
            if service_ms > m[7]:
                m[7] = service_ms
            logs[3].append(int(queueing_ms))
            m[8] += 1
            m[9] += queueing_ms
            m[10] += queueing_ms * queueing_ms
            if queueing_ms > m[11]:
                m[11] = queueing_ms
            if rotation_ms is not None:
                logs[4].append(int(rotation_ms))
                m[12] += 1
                m[13] += rotation_ms
                m[14] += rotation_ms * rotation_ms
                if rotation_ms > m[15]:
                    m[15] = rotation_ms
            if transfer_ms is not None:
                logs[5].append(int(transfer_ms))
                m[16] += 1
                m[17] += transfer_ms
                m[18] += transfer_ms * transfer_ms
                if transfer_ms > m[19]:
                    m[19] = transfer_ms
            if buffer_hit:
                m[21] += 1
        if len(self._bucket_logs[0][1]) >= _BUCKET_LOG_LIMIT:
            self.count_buckets()

    def note_fault(self, is_read: bool) -> None:
        """Count one injected device error against the request classes."""
        self._counters[0][22] += 1
        self._counters[1 if is_read else 2][22] += 1

    def note_retry(self, is_read: bool) -> None:
        """Count one bounded retry attempt against the request classes."""
        self._counters[0][23] += 1
        self._counters[1 if is_read else 2][23] += 1

    def count_buckets(self) -> None:
        """Count the logged bucket keys into the bucket Counters."""
        for logs, counters in zip(self._bucket_logs, self._buckets):
            for keys, counter in zip(logs, counters):
                if keys:
                    counter.update(keys)
                    keys.clear()

    def _class_stats(self, scope: int, buckets: list[Counter]) -> ClassStats:
        """Copy one scope out of the layout into a :class:`ClassStats`."""
        values = iter(self._counters[scope])
        tables = {
            name: kind(buckets=counted, **{slot: next(values) for slot in names})
            for (name, kind, names), counted in zip(_HISTOGRAMS, buckets)
        }
        return ClassStats(**tables, **dict(zip(_COUNTERS, values)))

    def stats(self, scope: str = "all") -> ClassStats:
        """A snapshot of the ``"all"``, ``"read"`` or ``"write"`` tables."""
        if scope not in _SCOPES:
            raise KeyError(
                f"unknown scope {scope!r}; use 'all', 'read' or 'write'"
            )
        index = _SCOPES.index(scope)
        self.count_buckets()
        return self._class_stats(
            index, [Counter(counter) for counter in self._buckets[index]]
        )

    def read_and_clear(self) -> dict[str, ClassStats]:
        """The ioctl semantics: copy the tables out and reset them."""
        self.count_buckets()
        tables = {
            scope: self._class_stats(index, self._buckets[index])
            for index, scope in enumerate(_SCOPES)
        }
        for counters in self._counters:
            counters[:] = _EMPTY_SCOPE
        self._buckets = [[Counter() for __ in _HISTOGRAMS] for __ in _SCOPES]
        return tables
