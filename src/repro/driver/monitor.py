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
  module.  Only :meth:`~PerformanceMonitor.record_arrival` and
  :meth:`~PerformanceMonitor.record_completion` write it — the scalar
  driver reaches them through the checked ``note_*`` methods, the batch
  kernel (:mod:`repro.sim.vector`) directly.  They append each raw
  sample once to typed columns, and :meth:`~PerformanceMonitor.fold`
  computes the tables from the columns in bulk: per scope a flat counter
  list and one bucket ``Counter`` per histogram.
  :meth:`~PerformanceMonitor.stats` and
  :meth:`~PerformanceMonitor.read_and_clear` fold, then copy the tables
  out as :class:`ClassStats` with real histograms, as the paper's
  monitoring ioctl copies its tables out of the driver.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

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
#: buffer_hits 21, errors 22, retries 23.  The bucket ``Counter`` objects
#: of a scope follow the histogram order.
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
) + (0,) * len(_COUNTERS)
_SCOPES = ("all", "read", "write")
"""Scope order of the layout: the direction scope of a read is 1, of a
write 2."""
_NAN = math.nan
"""The column value of a rotation or transfer time that was not
recorded."""
_SUM_SLOTS = (5, 9, 13, 17, 6, 10, 14, 18)
"""The totals of the service, queueing, rotation and transfer times,
then their sums of squares."""
_MAX_SLOTS = (7, 11, 15, 19)
"""The max of the service, queueing, rotation and transfer times."""
FOLD_LIMIT = 2048
"""Samples a column holds before :meth:`PerformanceMonitor.fold` empties
it into the tables even though no one read them: enough to spread a
fold's fixed cost, some eighty numpy calls, thin; few enough that the
columns and a fold's temporary arrays stay within a few hundred
kilobytes."""


class PerformanceMonitor:
    """The driver's self-measurement tables.

    Call :meth:`note_arrival` when strategy receives a request (this feeds
    the arrival-order/FCFS seek-distance distribution) and
    :meth:`note_completion` when the disk finishes it.  Both check the
    request and hand its samples to :meth:`record_arrival` and
    :meth:`record_completion`, the only code that writes the tables; the
    batch kernel (:mod:`repro.sim.vector`), whose samples are correct by
    construction, calls those two directly.

    The write methods append each sample once, whatever its scope, to
    typed columns: the home cylinder and direction of each arrival, and
    the seek distance, service, queueing, rotation and transfer times,
    buffer hit and direction of each completion (a ``None`` rotation or
    transfer is stored as NaN).  :meth:`fold` empties the columns into
    the tables — per scope (``_SCOPES``) a counter list in the slot
    order above and one bucket ``Counter`` per histogram — when a column
    reaches ``FOLD_LIMIT`` samples and whenever the tables are read.  A
    fold gives the tables the exact values that
    :meth:`TimeHistogram.record
    <repro.stats.histogram.TimeHistogram.record>` and
    :meth:`DistanceHistogram.record
    <repro.stats.histogram.DistanceHistogram.record>` fed one sample at a
    time would hold:

    * the "all" scope is the whole column and the read and write scopes
      are its masked subsequences, so each scope keeps arrival (or
      completion) order;
    * float totals and sums of squares come from ``np.add.accumulate``
      seeded with the running value, the same left-to-right sequence of
      roundings as ``+=`` (``np.sum`` is pairwise and Python 3.12's
      ``sum()`` compensated, so neither would do);
    * a NaN sample adds 0.0 to the sums, which leaves a running total
      that is at least +0.0 unchanged, and is left out of the counts and
      buckets;
    * bucket keys are truncated to integers and counted with
      ``Counter.update`` on a list, which counts in C and inserts new
      keys in first-occurrence order, the order the metrics' float sums
      over buckets depend on;
    * arrival distances are the absolute differences of each scope's
      home cylinders, the last home carried from fold to fold until
      :meth:`read_and_clear` restarts the chains.
    """

    __slots__ = (
        "_homes",
        "_arrival_reads",
        "_distances",
        "_services",
        "_queueings",
        "_rotations",
        "_transfers",
        "_hits",
        "_reads",
        "_last_homes",
        "_counters",
        "_buckets",
    )

    def __init__(self) -> None:
        self._empty_columns()
        self._last_homes = [None, None, None]
        self._counters = tuple(list(_EMPTY_SCOPE) for __ in _SCOPES)
        self._buckets = [[Counter() for __ in _HISTOGRAMS] for __ in _SCOPES]

    def _empty_columns(self) -> None:
        self._homes = array("q")
        self._arrival_reads = bytearray()
        self._distances = array("q")
        self._services = array("d")
        self._queueings = array("d")
        self._rotations = array("d")
        self._transfers = array("d")
        self._hits = bytearray()
        self._reads = bytearray()

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
        homes = self._homes
        homes.append(home)
        self._arrival_reads.append(is_read)
        if len(homes) >= FOLD_LIMIT:
            self.fold()

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
        self._distances.append(distance)
        self._services.append(service_ms)
        self._queueings.append(queueing_ms)
        self._rotations.append(_NAN if rotation_ms is None else rotation_ms)
        self._transfers.append(_NAN if transfer_ms is None else transfer_ms)
        self._hits.append(buffer_hit)
        reads = self._reads
        reads.append(is_read)
        if len(reads) >= FOLD_LIMIT:
            self.fold()

    def note_fault(self, is_read: bool) -> None:
        """Count one injected device error against the request classes."""
        self._counters[0][22] += 1
        self._counters[1 if is_read else 2][22] += 1

    def note_retry(self, is_read: bool) -> None:
        """Count one bounded retry attempt against the request classes."""
        self._counters[0][23] += 1
        self._counters[1 if is_read else 2][23] += 1

    def fold(self) -> None:
        """Fold the sample columns into the tables and empty them."""
        if self._homes:
            self._fold_arrivals()
        if self._reads:
            self._fold_completions()
        self._empty_columns()

    def _fold_arrivals(self) -> None:
        homes = np.frombuffer(self._homes, np.int64)
        reads = np.frombuffer(self._arrival_reads, np.bool_)
        for scope, chain in enumerate((homes, homes[reads], homes[~reads])):
            if not len(chain):
                continue
            counters = self._counters[scope]
            counters[20] += len(chain)
            last = self._last_homes[scope]
            if last is not None:
                chain = np.concatenate(((last,), chain))
            self._last_homes[scope] = int(chain[-1])
            distances = np.abs(chain[1:] - chain[:-1]).tolist()
            if distances:
                counters[0] += len(distances)
                counters[1] += sum(distances)
                self._buckets[scope][0].update(distances)

    def _fold_completions(self) -> None:
        # Rows: 0 the scheduled seek distance; 1-4 the service, queueing,
        # rotation and transfer times; 5-8 their squares; 9-11 the buffer
        # hit, rotation recorded and transfer recorded flags (1.0 or 0.0).
        # Column 0 holds the running values of the scope being folded,
        # then one column per completion.
        rows = np.empty((12, len(self._reads) + 1))
        samples = rows[:, 1:]
        samples[0] = np.frombuffer(self._distances, np.int64)
        samples[1] = np.frombuffer(self._services)
        samples[2] = np.frombuffer(self._queueings)
        samples[3] = np.frombuffer(self._rotations)
        samples[4] = np.frombuffer(self._transfers)
        recorded = ~np.isnan(samples[3:5])
        # A NaN's stand-in 0.0 leaves the sums alone and never beats a
        # max, which starts at 0.0.
        samples[3:5][~recorded] = 0.0
        np.multiply(samples[1:5], samples[1:5], out=samples[5:9])
        samples[9] = np.frombuffer(self._hits, np.bool_)
        samples[10:12] = recorded
        # The columns of the read and of the write scope, column 0 kept.
        reads = np.empty(rows.shape[1], np.bool_)
        reads[1:] = np.frombuffer(self._reads, np.bool_)
        writes = ~reads
        reads[0] = writes[0] = True
        # The "all" scope comes last, so that it may accumulate in place.
        for index, columns in ((1, reads), (2, writes), (0, None)):
            counters = self._counters[index]
            # Rows 1-8 continue from the tables' float totals; the
            # distance and flag sums (exact integers) start from zero.
            running = map(counters.__getitem__, _SUM_SLOTS)
            rows[:, 0] = [0.0, *running, 0.0, 0.0, 0.0]
            scope = rows if columns is None else rows.compress(columns, axis=1)
            n = scope.shape[1] - 1
            if not n:
                continue
            peaks = np.maximum.reduce(scope[1:5, 1:], axis=1).tolist()
            # Bucket keys: the whole cylinders or milliseconds of the
            # distance and the four times, of recorded samples only.
            for row, counter in enumerate(self._buckets[index][1:]):
                keys = scope[row, 1:]
                if row > 2:
                    keys = keys[scope[row + 7, 1:] > 0.0]
                counter.update(keys.astype(np.int64).tolist())
            sums = np.add.accumulate(scope, axis=1, out=scope)[:, -1].tolist()
            distance_total, *totals, hits, rotations, transfers = sums
            counters[2] += n
            counters[3] += int(distance_total)
            counters[4] += n
            counters[8] += n
            counters[12] += int(rotations)
            counters[16] += int(transfers)
            counters[21] += int(hits)
            for slot, total in zip(_SUM_SLOTS, totals):
                counters[slot] = total
            for slot, peak in zip(_MAX_SLOTS, peaks):
                if peak > counters[slot]:
                    counters[slot] = peak

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
        self.fold()
        return self._class_stats(
            index, [Counter(counter) for counter in self._buckets[index]]
        )

    def read_and_clear(self) -> dict[str, ClassStats]:
        """The ioctl semantics: copy the tables out and reset them."""
        self.fold()
        tables = {
            scope: self._class_stats(index, self._buckets[index])
            for index, scope in enumerate(_SCOPES)
        }
        for counters in self._counters:
            counters[:] = _EMPTY_SCOPE
        self._last_homes = [None, None, None]
        self._buckets = [[Counter() for __ in _HISTOGRAMS] for __ in _SCOPES]
        return tables
