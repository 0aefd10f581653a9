"""Online incremental rearrangement under live traffic (``docs/online.md``).

The paper's nightly cycle stops the world: it runs on a drained queue at
the end of the day.  This module rearranges *during* the day instead — a
few blocks at a time, only while the disk is provably idle, with every
constituent I/O competing in the ordinary SCAN queue so foreground
requests preempt migration naturally.  Three pieces:

* :class:`IdleDetector` watches the event bus for queue-empty gaps: when
  a device drains, the engine publishes
  :class:`~repro.sim.events.DeviceIdle`; the detector arms an
  :class:`~repro.sim.events.IdleCheck` probe ``idle_ms`` later and opens
  a migration window only if no foreground work arrived in between.

* :class:`IncrementalArranger` proposes the top-k *misplaced* hot blocks
  (hot per the analyzer's counters, but not yet in the reserved area)
  and executes at most ``max_moves_per_window`` moves per window, one at
  a time.  Each move is the nightly ``DKIOCBCOPY`` decomposed into
  queued migration requests — read the home block, write the reserved
  copy, rewrite the block-table home blocks — and **commits atomically
  at the final completion**: the in-memory table entry is added and the
  on-disk copy flushed only after every constituent I/O finished and no
  foreground request intervened.  A crash between steps therefore
  recovers exactly like a crash between nightly moves: the reserved-area
  table copy never mentions the half-finished move, so the home copy
  stays authoritative (the paper's data-first/table-last invariant).

* A **cost/benefit throttle** prices each candidate against the disk's
  precomputed seek table: the projected benefit is the block's reference
  count times the per-access seek saving of serving it from its reserved
  slot rather than its home cylinder (both measured from the reserved
  center, where the organ-pipe arrangement parks the head); the
  projected cost is the mechanical price of the move's constituent I/Os.
  Moves whose benefit falls below ``min_benefit_ratio`` times their cost
  are skipped, and an amortized budget — refilled at ``duty_cycle`` of
  elapsed simulated time, capped so it cannot hoard — bounds how much
  migration I/O a burst of idle windows may issue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..driver.ioctl import IoctlInterface
from ..driver.request import DiskRequest, Op
from ..obs.tracer import NULL_TRACER, Tracer
from ..policy import OnlinePolicy
from ..sim.events import DeviceIdle, IdleCheck, MachineCrash
from .analyzer import ReferenceStreamAnalyzer
from .placement import ReservedLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..driver.driver import AdaptiveDiskDriver
    from ..sim.engine import DeviceState, Simulation

__all__ = [
    "BUDGET_CAP_MS",
    "IdleDetector",
    "IncrementalArranger",
    "MigrationStats",
    "OnlineRearranger",
]

BUDGET_CAP_MS = 5_000.0
"""Ceiling on the accrued migration budget: a long quiet stretch cannot
bank unlimited credit and then starve traffic with a burst of moves."""

PROPOSAL_FACTOR = 4
"""The arranger examines ``PROPOSAL_FACTOR * max_moves_per_window`` hot
blocks per window, so already-placed entries at the top of the ranking
do not mask movable candidates just below them."""


@dataclass
class MigrationStats:
    """Counters for the online rearranger (reporting only — these are
    deliberately *not* part of :class:`~repro.stats.metrics.DayMetrics`,
    whose frozen shape the bench digests pin)."""

    windows: int = 0
    """Idle windows opened (a valid quiet gap reached the arranger)."""
    moves_completed: int = 0
    """Block moves committed (table entry added and flushed)."""
    moves_skipped: int = 0
    """Windows in which candidates existed but none passed the throttle."""
    moves_deferred: int = 0
    """Moves priced out by the amortized budget (retried in later windows)."""
    moves_cancelled: int = 0
    """Moves abandoned before commit because foreground traffic arrived
    mid-move (or the day ended with a move still in flight)."""
    moves_failed: int = 0
    """Moves abandoned because a constituent I/O returned a device error."""
    crash_aborts: int = 0
    """Moves lost to a machine crash between steps (recovered via the
    reserved-area table copy; the home copy stays authoritative)."""
    migration_ios: int = 0
    """Constituent migration I/Os completed (including abandoned moves')."""
    migration_busy_ms: float = 0.0
    """Disk time spent servicing migration I/Os."""

    def payload(self) -> dict:
        """Canonical JSON-ready form (used by the ``online_day`` bench)."""
        return {
            "windows": self.windows,
            "moves_completed": self.moves_completed,
            "moves_skipped": self.moves_skipped,
            "moves_deferred": self.moves_deferred,
            "moves_cancelled": self.moves_cancelled,
            "moves_failed": self.moves_failed,
            "crash_aborts": self.crash_aborts,
            "migration_ios": self.migration_ios,
            "migration_busy_ms": self.migration_busy_ms,
        }


class IdleDetector:
    """Turn the engine's :class:`DeviceIdle` events into validated windows.

    A drain event only *starts* a candidate gap; the gap becomes a window
    when an :class:`IdleCheck` scheduled ``idle_ms`` later fires with the
    device still untouched.  Foreground activity is the device's arrival
    counter (:attr:`DeviceState.arrivals
    <repro.sim.engine.DeviceState.arrivals>`), bumped by every foreground
    request the engine or the batch kernel hands to the driver: a check
    whose token is stale is discarded (and
    re-armed if the device has meanwhile gone quiet again), which handles
    back-to-back windows and gaps interrupted mid-probe.  ``idle_ms`` of
    zero degenerates to "open a window on every drain", still
    deterministic via the event queue's insertion-order tie-breaking.
    """

    def __init__(
        self,
        device: str,
        driver: AdaptiveDiskDriver,
        idle_ms: float,
        on_idle_window,
    ) -> None:
        self.device = device
        self.driver = driver
        self.idle_ms = idle_ms
        self.on_idle_window = on_idle_window
        self._check_pending = False
        self._sim: Simulation | None = None
        self._state: DeviceState | None = None

    @property
    def activity_seq(self) -> int:
        """Bumped on every foreground arrival; the arranger compares it
        across a move's lifetime to detect mid-move interference."""
        return 0 if self._state is None else self._state.arrivals

    def attach(self, simulation: Simulation) -> None:
        """Subscribe to the bus and enable the engine's idle events."""
        self._sim = simulation
        self._state = simulation.devices[self.device]
        bus = simulation.bus
        bus.subscribe(DeviceIdle, self._on_device_idle)
        bus.subscribe(IdleCheck, self._on_idle_check)
        simulation.emit_idle_events()

    def _device_quiet(self) -> bool:
        return not self.driver.busy and not self.driver.queue

    def _arm(self) -> None:
        assert self._sim is not None
        self._check_pending = True
        self._sim.events.push(
            self._sim.now_ms + self.idle_ms,
            IdleCheck(self.device, self.activity_seq),
        )

    def _on_device_idle(self, event: DeviceIdle) -> None:
        if event.device != self.device or self._check_pending:
            return
        self._arm()

    def _on_idle_check(self, event: IdleCheck) -> None:
        if event.device != self.device:
            return
        self._check_pending = False
        if event.token != self.activity_seq:
            # The gap was interrupted.  If the interrupting burst already
            # drained — its own DeviceIdle arrived while this stale check
            # was still pending and was swallowed — re-arm from now so a
            # quiet device is never silently forgotten.
            if self._device_quiet():
                self._arm()
            return
        assert self._sim is not None
        self.on_idle_window(self._sim.now_ms)


@dataclass
class _ActiveMove:
    """State machine of the one in-flight block move (serial by design)."""

    logical_block: int
    physical_block: int
    reserved_block: int
    start_seq: int
    steps: tuple[tuple[int, bool], ...]
    """``(target physical block, is_read)`` per constituent I/O."""
    index: int = 0
    value: object = None
    """Home-block contents captured when the read step completes."""


class IncrementalArranger:
    """Propose, price, and execute incremental block moves.

    One move is in flight at a time; its constituent I/Os are chained on
    completions through the simulation's migration sink, so a window's
    moves serialize and any foreground request that slips in is served
    in between (and cancels the move's commit).
    """

    def __init__(
        self,
        ioctl: IoctlInterface,
        analyzer: ReferenceStreamAnalyzer,
        policy: OnlinePolicy,
        stats: MigrationStats | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.ioctl = ioctl
        self.analyzer = analyzer
        self.policy = policy
        self.stats = stats if stats is not None else MigrationStats()
        self.tracer = tracer
        driver = ioctl.driver
        self.driver = driver
        label = driver.label
        if not label.is_rearranged:
            raise ValueError(
                f"{driver.name} has no reserved area; OnlinePolicy needs "
                "a rearrangement-initialized label"
            )
        self._label = label
        self._layout = ReservedLayout.from_label(label)
        self._table_blocks = tuple(label.block_table_home_blocks())
        disk = driver.disk
        self._per_cyl = disk.geometry.blocks_per_cylinder
        self._center = label.reserved_center_cylinder()
        # The same precomputed tables the hot path uses: one list index
        # per projected seek, plus the exact per-access scalar costs.
        self._seek_table = disk._seek_table
        self._per_io_ms = (
            disk._overhead_ms
            + disk._rotation_time_ms / 2.0
            + disk._block_transfer_ms
        )
        self._proposal_limit = PROPOSAL_FACTOR * policy.max_moves_per_window
        self._budget_ms = 0.0
        self._budget_anchor_ms = 0.0
        self._moves_left = 0
        self._move: _ActiveMove | None = None
        # The last free slot and scan verdict, with the versions they
        # were computed under (see _next_free_slot and _scan).
        self._slot_version = -1
        self._free_slot: int | None = None
        self._scan_key: tuple[int, int, int] | None = None
        self._verdict: tuple[tuple[int, int, float] | None, bool] = (None, False)
        self.detector: IdleDetector | None = None
        self._sim: Simulation | None = None
        self._device: str | None = None

    def attach(
        self,
        simulation: Simulation,
        device: str,
        detector: IdleDetector,
    ) -> None:
        """Bind to one simulation day: sink, crash handler, detector."""
        self._sim = simulation
        self._device = device
        self.detector = detector
        simulation.set_migration_sink(device, self._on_step_complete)
        # Runs after the engine's own crash handler (subscription order),
        # i.e. once the driver has recovered the table from its
        # reserved-area copy and dropped this move's lost request.
        simulation.bus.subscribe(MachineCrash, self._on_crash)

    # ------------------------------------------------------------------
    # Cost/benefit throttle
    # ------------------------------------------------------------------

    def projected_benefit_ms(
        self, count: int, physical_block: int, reserved_block: int
    ) -> float:
        """Expected seek-time saving of serving ``count`` future accesses
        from ``reserved_block`` instead of ``physical_block``.

        Both positions are priced as a seek from the reserved center
        cylinder — where the organ-pipe arrangement keeps the head — so
        the saving is the difference of two precomputed seek-table
        entries, scaled by the block's observed reference count.
        """
        home_cyl = physical_block // self._per_cyl
        slot_cyl = reserved_block // self._per_cyl
        saving = (
            self._seek_table[abs(home_cyl - self._center)]
            - self._seek_table[abs(slot_cyl - self._center)]
        )
        return count * saving

    def projected_cost_ms(
        self, physical_block: int, reserved_block: int
    ) -> float:
        """Mechanical price of one incremental move.

        One I/O per constituent step (read home, write reserved copy,
        rewrite each block-table home block), each costing controller
        overhead + half a rotation + one block transfer, plus the
        home-to-reserved seek span traversed twice (there and back).
        """
        home_cyl = physical_block // self._per_cyl
        slot_cyl = reserved_block // self._per_cyl
        n_ios = 2 + len(self._table_blocks)
        return (
            n_ios * self._per_io_ms
            + 2.0 * self._seek_table[abs(home_cyl - slot_cyl)]
        )

    def _refill_budget(self, now_ms: float) -> None:
        elapsed = now_ms - self._budget_anchor_ms
        if elapsed > 0.0:
            self._budget_ms = min(
                BUDGET_CAP_MS,
                self._budget_ms + self.policy.duty_cycle * elapsed,
            )
            self._budget_anchor_ms = now_ms

    @property
    def budget_ms(self) -> float:
        """Currently accrued migration budget (test/report hook)."""
        return self._budget_ms

    @property
    def move_in_flight(self) -> bool:
        return self._move is not None

    # ------------------------------------------------------------------
    # Window lifecycle
    # ------------------------------------------------------------------

    def window_opened(self, now_ms: float) -> None:
        """The idle detector validated a quiet gap: start migrating."""
        if self._move is not None:
            return  # a previous window's move is still draining
        if self.driver.busy or self.driver.queue:
            return  # foreground reclaimed the disk at the same instant
        self.stats.windows += 1
        self._moves_left = self.policy.max_moves_per_window
        self._refill_budget(now_ms)
        if self.tracer is not NULL_TRACER:
            self.tracer.idle_window(self._device, now_ms, self._moves_left)
        self._start_next_move(now_ms)

    def _next_free_slot(self) -> int | None:
        """Best unoccupied reserved slot, in organ-pipe fill order
        (found once per block-table version)."""
        table = self.driver.block_table
        if self._slot_version != table.version:
            occupied = table.occupied_reserved_blocks()
            self._free_slot = next(
                (
                    slot
                    for slot in self._layout.center_out_slots()
                    if slot not in occupied
                ),
                None,
            )
            self._slot_version = table.version
        return self._free_slot

    def _scan(self, slot: int) -> tuple[tuple[int, int, float] | None, bool]:
        """The window's verdict for ``slot``: the first throttle-approved
        candidate as ``(block, physical, cost)``, else ``None``, and
        whether any unplaced candidate was seen.

        The verdict depends only on the analyzer's counts, the block
        table and the slot, so it is cached under their versions: a
        window whose inputs did not change since the last scan costs one
        key comparison.  The budget is applied by the caller.
        """
        table = self.driver.block_table
        key = (self.analyzer._version, table.version, slot)
        if key == self._scan_key:
            return self._verdict
        label = self._label
        ratio = self.policy.min_benefit_ratio
        verdict: tuple[tuple[int, int, float] | None, bool] = (None, False)
        for block, count in self.analyzer.hot_blocks(self._proposal_limit):
            physical = label.virtual_to_physical_block(block)
            if table.reserved_of(physical) >= 0:
                continue  # already placed
            verdict = (None, True)
            cost = self.projected_cost_ms(physical, slot)
            if self.projected_benefit_ms(count, physical, slot) < ratio * cost:
                continue  # move would not pay for itself
            verdict = ((block, physical, cost), True)
            break
        self._scan_key = key
        self._verdict = verdict
        return verdict

    def _start_next_move(self, now_ms: float) -> None:
        """Start the best throttle-approved candidate's first step; no
        candidate (or no budget) ends the window."""
        if self._moves_left <= 0:
            return
        if self.driver.busy or self.driver.queue:
            return  # window closed by foreground traffic
        slot = self._next_free_slot()
        if slot is None:
            return  # reserved area is full
        choice, saw_candidate = self._scan(slot)
        if choice is None:
            if saw_candidate:
                self.stats.moves_skipped += 1
            return
        block, physical, cost = choice
        if cost > self._budget_ms:
            self.stats.moves_deferred += 1
            return  # amortized budget exhausted; retry next window
        self._budget_ms -= cost
        assert self.detector is not None
        self._move = _ActiveMove(
            logical_block=block,
            physical_block=physical,
            reserved_block=slot,
            start_seq=self.detector.activity_seq,
            steps=(
                (physical, True),
                (slot, False),
                *((tb, False) for tb in self._table_blocks),
            ),
        )
        self._issue_step(now_ms)

    def _issue_step(self, now_ms: float) -> None:
        move = self._move
        assert move is not None and self._sim is not None
        assert self._device is not None
        target, is_read = move.steps[move.index]
        request = DiskRequest(
            logical_block=move.logical_block,
            op=Op.READ if is_read else Op.WRITE,
            arrival_ms=now_ms,
        )
        request.physical_block = move.physical_block
        request.target_block = target
        request.home_cylinder = move.physical_block // self._per_cyl
        self._sim.submit_migration(self._device, request)

    def _on_step_complete(self, request: DiskRequest, now_ms: float) -> None:
        move = self._move
        if move is None:  # pragma: no cover - defensive
            return
        self.stats.migration_ios += 1
        self.stats.migration_busy_ms += request.service_ms
        if request.failed:
            # A constituent I/O died (media error / retries exhausted).
            # Nothing was committed, so the home copy stays authoritative.
            self.stats.moves_failed += 1
            self._move = None
            self._continue(now_ms)
            return
        disk = self.driver.disk
        if move.index == 0:
            move.value = disk.read_data(move.physical_block)
        elif move.index == 1:
            disk.write_data(move.reserved_block, move.value)
        if move.index + 1 < len(move.steps):
            move.index += 1
            self._issue_step(now_ms)
            return
        # Final step: commit — unless foreground traffic slipped in since
        # the home block was read, in which case the captured value may be
        # stale and the move is abandoned (the orphaned reserved-area copy
        # is harmless: the table never points at it).
        assert self.detector is not None
        if self.detector.activity_seq != move.start_seq:
            self.stats.moves_cancelled += 1
        else:
            table = self.driver.block_table
            table.add(move.physical_block, move.reserved_block)
            table.write_to_disk()
            io = self.driver.io_counter
            io.copy_in_ios += 2
            io.table_write_ios += 1
            self.stats.moves_completed += 1
            self._moves_left -= 1
            if self.tracer is not NULL_TRACER:
                self.tracer.migration_move(
                    self._device,
                    now_ms,
                    move.logical_block,
                    move.reserved_block,
                    len(move.steps),
                )
        self._move = None
        self._continue(now_ms)

    def _continue(self, now_ms: float) -> None:
        if self.driver.busy or self.driver.queue:
            return  # foreground holds the disk; the next window resumes
        self._start_next_move(now_ms)

    def _on_crash(self, event: MachineCrash) -> None:
        if self._move is not None:
            # The in-flight step was dropped by the engine and the block
            # table already recovered from its reserved-area copy, which
            # never saw this move — abandoning it is exactly the nightly
            # cycle's between-moves crash semantics.
            self.stats.crash_aborts += 1
            self._move = None
        self._moves_left = 0

    def drain(self) -> None:
        """Cancel any remaining plan at end of day (controller teardown).

        Called from :meth:`RearrangementController.final_poll
        <repro.core.controller.RearrangementController.final_poll>`: no
        further moves start, and a move still mid-flight (possible when a
        caller stopped the event loop with ``run(until_ms)``) is
        abandoned uncommitted — the same safe state a crash leaves.
        """
        if self._move is not None:
            self.stats.moves_cancelled += 1
            self._move = None
        self._moves_left = 0


class OnlineRearranger:
    """One device's online rearrangement stack: detector + arranger.

    Built fresh by the controller for each simulated day (each day runs
    its own :class:`~repro.sim.engine.Simulation`); the
    :class:`MigrationStats` object is supplied by the controller and
    persists across days.
    """

    def __init__(
        self,
        ioctl: IoctlInterface,
        analyzer: ReferenceStreamAnalyzer,
        policy: OnlinePolicy,
        stats: MigrationStats | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.arranger = IncrementalArranger(
            ioctl, analyzer, policy, stats=stats, tracer=tracer
        )
        self.detector = IdleDetector(
            device=ioctl.device_name,
            driver=ioctl.driver,
            idle_ms=policy.idle_ms,
            on_idle_window=self.arranger.window_opened,
        )

    @property
    def stats(self) -> MigrationStats:
        return self.arranger.stats

    def attach_to(self, simulation: Simulation) -> None:
        device = self.detector.device
        self.arranger.attach(simulation, device, self.detector)
        self.detector.attach(simulation)

    def drain(self) -> None:
        self.arranger.drain()
