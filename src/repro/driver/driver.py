"""The adaptive device driver (Section 4.1).

:class:`AdaptiveDiskDriver` is the modified SCSI driver of the paper, in
simulation form.  It owns:

* the **strategy** path — logical-to-physical mapping through the disk
  label, block-table redirection of rearranged blocks, request/performance
  monitoring, and the disk queue (SCAN by default, as in the measured
  system);
* the **block movement** entry points used by the user-level block arranger
  (``DKIOCBCOPY`` / ``DKIOCCLEAN``, Section 4.1.3), including the paper's
  exact I/O cost accounting (3 I/Os per copy-in; 1 I/O per move-out plus 2
  extra when the block is dirty);
* the **attach** semantics — on start-up a rearranged disk's block table is
  read back from the reserved area, conservatively marking every entry
  dirty after a crash;
* the **error path** — when a :class:`~repro.faults.FaultInjector` is
  attached, every constituent disk access can fail: transient errors are
  retried a bounded number of times with the full mechanical cost charged
  per attempt; a permanent media error under a rearranged block's
  reserved copy falls back to serving the block from its original home
  and evicts the block-table entry; crashes interrupt the nightly cycle
  between block moves and are recovered with the paper's all-dirty
  protocol.  With no injector attached (the default) none of this costs
  anything — the hot path tests one attribute against ``None``.

The driver is clocked externally: the simulation engine calls
:meth:`strategy` when a request arrives and :meth:`complete` when the disk
finishes an operation; both return the completion time of any newly started
disk operation so the engine can schedule the next event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..disk.disk import Disk, ServiceBreakdown
from ..disk.label import DiskLabel
from ..obs.tracer import NULL_TRACER, Tracer
from .blocktable import BlockTable
from .errors import (
    BadAddressError,
    BusyError,
    DeviceTimeout,
    DriverError,
    MediaError,
)
from .monitor import FaultStats, PerformanceMonitor, RequestMonitor
from .queue import DiskQueue, ScanQueue
from .request import DiskRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector

__all__ = [
    "AdaptiveDiskDriver",
    "BadAddressError",
    "BusyError",
    "DeviceTimeout",
    "DriverError",
    "MediaError",
    "RearrangementIOCounter",
]


@dataclass
class RearrangementIOCounter:
    """I/O operations spent moving blocks (Section 4.1.3 accounting)."""

    copy_in_ios: int = 0
    move_out_ios: int = 0
    table_write_ios: int = 0

    @property
    def total(self) -> int:
        return self.copy_in_ios + self.move_out_ios + self.table_write_ios


@dataclass
class AdaptiveDiskDriver:
    """The paper's modified disk driver, one instance per physical disk."""

    disk: Disk
    label: DiskLabel
    queue: DiskQueue = field(default_factory=ScanQueue)
    request_monitor: RequestMonitor = field(default_factory=RequestMonitor)
    perf_monitor: PerformanceMonitor = field(default_factory=PerformanceMonitor)
    block_table: BlockTable = field(default_factory=BlockTable)
    io_counter: RearrangementIOCounter = field(
        default_factory=RearrangementIOCounter
    )
    cylinder_map: dict[int, int] | None = None
    """Optional whole-cylinder permutation (physical -> physical), used by
    the cylinder-shuffling baseline (:mod:`repro.core.cylshuffle`).  A
    block whose home cylinder is remapped is served from the mapped
    cylinder at the same within-cylinder offset.  Applied only when the
    block table does not already redirect the block."""
    name: str = "disk0"
    """Device name; set by the simulation engine on registration and used
    to label this driver's tracer events in multi-device runs."""
    tracer: Tracer = NULL_TRACER
    """Request-lifecycle observation hooks (engine-installed by default)."""
    faults: FaultInjector | None = None
    """Fault injector; ``None`` (the default) disables the error path
    entirely and keeps the happy path byte-identical to a fault-free
    build."""
    fault_stats: FaultStats = field(default_factory=FaultStats)
    """Error/retry/recovery counters; only written on fault paths."""
    _current: DiskRequest | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.label.geometry is not self.disk.geometry:
            if self.label.geometry != self.disk.geometry:
                raise DriverError("label geometry does not match the disk")
        if self.label.is_rearranged and self.block_table.capacity is None:
            self.block_table.capacity = self.label.reserved_capacity_blocks()
        if self.faults is not None:
            self.faults.bind_label(self.label)
        self._blocks_per_cylinder = self.disk.geometry.blocks_per_cylinder
        self.block_table.reserve(self.disk.geometry.total_blocks)

    # ------------------------------------------------------------------
    # Attach / recovery
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Start-up: read the block table back from the reserved area.

        After a crash the in-memory table is rebuilt from the disk copy
        with every entry marked dirty (Section 4.1.2).
        """
        if self.label.is_rearranged:
            self.block_table.recover()

    def crash(self, now_ms: float) -> list[DiskRequest]:
        """Power failure: volatile driver state vanishes.

        The in-memory block table is lost (the on-disk copy in the
        reserved area survives), and every request that was queued or in
        flight is dropped.  The lost requests are returned so the caller
        can model client retries (the paper's NFS clients resubmit
        outstanding requests once the server returns).
        """
        lost: list[DiskRequest] = []
        if self._current is not None:
            lost.append(self._current)
            self._current = None
        while self.queue:
            lost.append(self.queue.pop(self.disk.head_cylinder))
        self.block_table.crash()
        self.fault_stats.crashes += 1
        return lost

    def recover(self, now_ms: float) -> float:
        """Reboot after :meth:`crash`: replay the attach protocol.

        Re-reads the block-table copy from the reserved area (one access
        per table home block, charged mechanically), rebuilds the
        in-memory table with every entry dirty, and proves the recovered
        state structurally sound.  Returns the time recovery finished.
        """
        self.tracer.recovery_begin(
            self.name, now_ms, len(self.block_table.disk_copy())
        )
        clock = now_ms
        if self.label.is_rearranged:
            for table_block in self.label.block_table_home_blocks():
                clock = self.disk.access(table_block, True, clock).finish_ms
            self.block_table.recover()
            from ..faults.invariants import BlockTableInvariants

            BlockTableInvariants(self.label).check_recovery(self.block_table)
        self.fault_stats.recoveries += 1
        self.tracer.recovery_end(self.name, clock, len(self.block_table))
        return clock

    # ------------------------------------------------------------------
    # Strategy path
    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def queued(self) -> int:
        return len(self.queue)

    def strategy(self, request: DiskRequest, now_ms: float) -> float | None:
        """Accept a request; start the disk if it is idle.

        Returns the completion time of a newly started disk operation, or
        ``None`` if the disk was already busy and the request only queued.
        """
        if now_ms < request.arrival_ms:
            raise DriverError("strategy called before the request's arrival")
        if request.size_blocks != 1:
            raise BadAddressError(
                f"strategy on {self.name} takes single-block requests, got "
                f"{request.size_blocks} blocks at logical block "
                f"{request.logical_block}; use physio for larger raw "
                "transfers"
            )

        physical = self.label.virtual_to_physical_block(request.logical_block)
        request.physical_block = physical
        # The label always yields an in-range physical block, so the
        # cylinder is plain integer division (no re-validation).
        request.home_cylinder = physical // self._blocks_per_cylinder
        target = request.target_block = self._route(physical)
        request.redirected = target != physical

        self.request_monitor.record(request)
        self.perf_monitor.note_arrival(request)
        if self.faults is not None:
            self.fault_stats.day_requests += 1

        return self._enqueue(request, now_ms)

    def enqueue_migration(
        self, request: DiskRequest, now_ms: float
    ) -> float | None:
        """Queue one constituent I/O of an online block move.

        Migration steps carry a pre-resolved physical ``target_block``
        (no label mapping, no block-table redirection) and enter the
        ordinary disk queue, where SCAN ordering lets foreground
        requests preempt them naturally.  They are invisible to the
        monitoring tables: the analyzer must not count the rearranger's
        own traffic, and the performance monitor describes foreground
        requests only (:meth:`complete` skips them symmetrically).
        """
        if request.target_block is None:
            raise BadAddressError(
                "migration steps must carry a resolved target_block"
            )
        request.migration = True
        return self._enqueue(request, now_ms, record=False)

    def resubmit(self, request: DiskRequest, now_ms: float) -> float | None:
        """Re-queue a request that was lost in a crash (client retry).

        The retry is not a new logical arrival: the monitoring tables
        already recorded it, so only the mapping is redone — against the
        *recovered* block table — before the request rejoins the queue.
        """
        physical = self.label.virtual_to_physical_block(request.logical_block)
        request.physical_block = physical
        target = request.target_block = self._route(physical)
        request.redirected = target != physical
        return self._enqueue(request, now_ms, record=False)

    def _enqueue(
        self, request: DiskRequest, now_ms: float, record: bool = True
    ) -> float | None:
        assert request.target_block is not None
        target_cylinder = request.target_block // self._blocks_per_cylinder
        self.queue.push(request, target_cylinder)
        if record and self.tracer is not NULL_TRACER:
            # Crash resubmissions are not new arrivals: the monitors (and
            # any trace being written) already saw this request once.
            self.tracer.request_enqueued(
                self.name, request, now_ms, len(self.queue)
            )
        if not self.busy:
            return self._start_next(now_ms)
        return None

    def complete(self, now_ms: float) -> tuple[DiskRequest, float | None]:
        """Finish the in-flight operation; start the next queued one.

        Returns ``(completed request, completion time of next op or None)``.
        """
        if self._current is None:
            raise DriverError("complete called with no operation in flight")
        request = self._current
        self._current = None
        request.complete_ms = now_ms
        if not request.migration:
            # Migration steps never noted an arrival, so they must not
            # note a completion either — the performance tables describe
            # foreground traffic only (their queueing *impact* on
            # foreground requests is measured, their own service is not).
            self.perf_monitor.note_completion(request)
            if self.tracer is not NULL_TRACER:
                self.tracer.service_complete(self.name, request, now_ms)
        next_completion = None
        if self.queue:
            next_completion = self._start_next(now_ms)
        return request, next_completion

    def _start_next(self, now_ms: float) -> float:
        request = self.queue.pop(self.disk.head_cylinder)
        assert request.target_block is not None
        if self.faults is None:
            breakdown = self.disk.access(
                request.target_block, request.is_read, now_ms
            )
        else:
            breakdown = self._access_with_faults(request, now_ms)
        self._apply_breakdown(request, breakdown, now_ms)
        if self.tracer is not NULL_TRACER:
            self.tracer.seek_started(
                self.name, request, now_ms, breakdown.seek_distance
            )
        if not request.is_read:
            self._apply_write(request)
        self._current = request
        return breakdown.finish_ms

    def _access_with_faults(
        self, request: DiskRequest, now_ms: float
    ) -> ServiceBreakdown:
        """Serve one request through the injector's error model.

        Every attempt — failed ones included — costs a full mechanical
        access from the clock where the previous attempt ended, so
        retries show up in the measured service time exactly as the
        paper's per-attempt accounting demands.  Returns the breakdown
        of the final attempt, whose ``finish_ms`` reflects the whole
        faulted service.
        """
        assert self.faults is not None and request.target_block is not None
        stats = self.fault_stats
        clock = now_ms
        attempt = 0
        while True:
            breakdown = self.disk.access(
                request.target_block, request.is_read, clock
            )
            fault = self.faults.draw(
                request.target_block, request.is_read, clock
            )
            if fault is None:
                return breakdown
            stats.day_errors += 1
            self.perf_monitor.note_fault(request.is_read)
            self.tracer.fault_injected(
                self.name, clock, request.target_block, fault, request.is_read
            )
            clock = breakdown.finish_ms
            if fault == "media":
                stats.media_faults += 1
                if request.redirected and (
                    request.physical_block in self.block_table
                ):
                    # The reserved copy is gone; evict the entry durably
                    # and serve the block from its original home.
                    assert request.physical_block is not None
                    self.block_table.remove(request.physical_block)
                    try:
                        clock = self._write_block_table(clock)
                    except (MediaError, DeviceTimeout) as exc:
                        # The eviction stays memory-only; after a crash
                        # the stale disk copy resurrects the mapping and
                        # the media error simply evicts it again.
                        if exc.now_ms is not None:
                            clock = exc.now_ms
                    request.target_block = request.physical_block
                    request.redirected = False
                    stats.evictions += 1
                    stats.fallback_serves += 1
                    continue
                stats.failed_requests += 1
                request.failed = True
                return breakdown
            stats.transient_faults += 1
            attempt += 1
            if attempt > self.faults.max_retries:
                stats.timeouts += 1
                stats.failed_requests += 1
                request.failed = True
                return breakdown
            stats.retries += 1
            self.perf_monitor.note_retry(request.is_read)
            self.tracer.retry(
                self.name, clock, request.target_block, attempt,
                request.is_read,
            )

    def _apply_breakdown(
        self,
        request: DiskRequest,
        breakdown: ServiceBreakdown,
        now_ms: float,
    ) -> None:
        request.submit_ms = now_ms
        request.seek_distance = breakdown.seek_distance
        request.seek_ms = breakdown.seek_ms
        request.rotation_ms = breakdown.rotation_ms
        request.transfer_ms = breakdown.transfer_ms
        request.buffer_hit = breakdown.buffer_hit

    def _route(self, physical_block: int) -> int:
        """The block that serves ``physical_block``: its reserved-area copy
        if the block table holds one, else its cylinder-map target."""
        reserved = self.block_table.reserved_of(physical_block)
        if reserved >= 0:
            return reserved
        if self.cylinder_map is None:
            return physical_block
        per_cyl = self.disk.geometry.blocks_per_cylinder
        cylinder, index = divmod(physical_block, per_cyl)
        return self.cylinder_map.get(cylinder, cylinder) * per_cyl + index

    def _apply_write(self, request: DiskRequest) -> None:
        """Dirty-bit bookkeeping for writes to rearranged blocks."""
        if request.failed:
            return
        if request.redirected and request.physical_block in self.block_table:
            self.block_table.mark_dirty(request.physical_block)
        if request.tag is not None:
            assert request.target_block is not None
            self.disk.write_data(request.target_block, request.tag)

    def read_data(self, logical_block: int) -> object:
        """Read the current contents of a logical block (test hook).

        Follows the same mapping as the strategy routine, so it observes
        redirection exactly as the file system would.
        """
        physical = self.label.virtual_to_physical_block(logical_block)
        return self.disk.read_data(self._route(physical))

    # ------------------------------------------------------------------
    # Block movement (DKIOCBCOPY / DKIOCCLEAN, Section 4.1.3)
    # ------------------------------------------------------------------

    def bcopy(self, logical_block: int, reserved_block: int, now_ms: float) -> float:
        """Copy one block into the reserved area (``DKIOCBCOPY``).

        Performs three I/O operations — read the original, write the
        reserved copy, force the block table to disk — mechanically through
        the drive, and returns the time at which the copy finished.  Must
        be called while the disk is idle (the experiments rearrange at the
        end of the day, outside the measurement window).

        With faults attached this is also a crash point: the injector may
        raise :class:`~repro.faults.SimulatedCrash` *between* copies, and
        an unrecoverable error on either constituent I/O raises
        :class:`MediaError`/:class:`DeviceTimeout` with the clock attached
        — the copy is then abandoned with the block table unchanged.
        """
        if self.busy:
            raise BusyError(
                f"cannot move blocks while {self.name} is busy"
            )
        if not self.label.is_rearranged:
            raise BadAddressError(f"{self.name} has no reserved area")
        if not self.label.is_reserved_block(reserved_block):
            raise BadAddressError(
                f"destination {reserved_block} on {self.name} is not in "
                "the reserved area"
            )
        if reserved_block in self.label.block_table_home_blocks():
            raise BadAddressError(
                f"destination {reserved_block} on {self.name} holds the "
                "block-table copy"
            )
        physical = self.label.virtual_to_physical_block(logical_block)

        if self.faults is not None:
            self.faults.check_move_crash(now_ms)

        clock = now_ms
        clock = self._moved_access(physical, True, clock)
        value = self.disk.read_data(physical)
        clock = self._moved_access(reserved_block, False, clock)
        self.disk.write_data(reserved_block, value)
        self.io_counter.copy_in_ios += 2

        self.block_table.add(physical, reserved_block)
        try:
            clock = self._write_block_table(clock)
        except (MediaError, DeviceTimeout):
            # The data copy landed but the table update did not make it
            # to disk; undo the in-memory entry so memory never claims a
            # redirection the disk copy cannot recover.
            self.block_table.remove(physical)
            raise
        if self.faults is not None:
            self.faults.note_move_done()
        return clock

    def clean(self, now_ms: float) -> float:
        """Empty the reserved area (``DKIOCCLEAN``).

        Dirty blocks are first copied back to their original positions
        (2 extra I/Os); after each block is moved out the block table is
        updated and rewritten to disk (1 I/O).  Returns the finish time.

        Fault handling degrades per entry: an entry whose move-out hits
        an unrecoverable error is *kept* — its reserved-area copy is the
        only good copy of the data — and the clean continues with the
        remaining entries.
        """
        if self.busy:
            raise BusyError(
                f"cannot move blocks while {self.name} is busy"
            )
        clock = now_ms
        for entry in self.block_table.entries():
            if self.faults is not None:
                self.faults.check_move_crash(clock)
            if entry.dirty:
                try:
                    clock = self._moved_access(
                        entry.reserved_block, True, clock
                    )
                    value = self.disk.read_data(entry.reserved_block)
                    clock = self._moved_access(
                        entry.original_block, False, clock
                    )
                except (MediaError, DeviceTimeout) as exc:
                    if exc.now_ms is not None:
                        clock = exc.now_ms
                    self.fault_stats.skipped_moves += 1
                    continue
                self.disk.write_data(entry.original_block, value)
                self.io_counter.move_out_ios += 2
            self.block_table.remove(entry.original_block)
            clock = self._write_block_table(clock)
            if self.faults is not None:
                self.faults.note_move_done()
        return clock

    def _moved_access(self, block: int, is_read: bool, now_ms: float) -> float:
        """One constituent I/O of a block move, through the error model.

        Returns the finish time.  Transient errors retry in place (each
        attempt charged); a media error raises :class:`MediaError` and an
        exhausted retry budget raises :class:`DeviceTimeout`, both with
        the clock after the final attempt attached.
        """
        if self.faults is None:
            return self.disk.access(block, is_read, now_ms).finish_ms
        stats = self.fault_stats
        clock = now_ms
        attempt = 0
        while True:
            breakdown = self.disk.access(block, is_read, clock)
            fault = self.faults.draw(block, is_read, clock)
            clock = breakdown.finish_ms
            if fault is None:
                return clock
            stats.day_errors += 1
            self.perf_monitor.note_fault(is_read)
            self.tracer.fault_injected(
                self.name, breakdown.start_ms, block, fault, is_read
            )
            if fault == "media":
                stats.media_faults += 1
                raise MediaError(
                    f"permanent media error at block {block} on "
                    f"{self.name}",
                    now_ms=clock,
                )
            stats.transient_faults += 1
            attempt += 1
            if attempt > self.faults.max_retries:
                stats.timeouts += 1
                raise DeviceTimeout(
                    f"block {block} on {self.name} timed out after "
                    f"{attempt} attempts",
                    now_ms=clock,
                )
            stats.retries += 1
            self.perf_monitor.note_retry(is_read)
            self.tracer.retry(self.name, clock, block, attempt, is_read)

    def _write_block_table(self, now_ms: float) -> float:
        """Force the block-table copy in the reserved area to disk."""
        clock = now_ms
        for table_block in self.label.block_table_home_blocks():
            clock = self._moved_access(table_block, False, clock)
        self.block_table.write_to_disk()
        self.io_counter.table_write_ios += 1
        return clock
