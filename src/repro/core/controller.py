"""The daily rearrangement cycle (Sections 4.2 and 5.1).

Ties the user-level pieces together the way the paper's experiments ran:

* during the day, the reference stream analyzer polls the driver's request
  table every two minutes;
* at the end of the day, "block reference counts measured during one day
  were used (at the end of the day) to rearrange blocks for the next day's
  requests": the reserved area is cleaned and repopulated from the day's
  hot block list (or just cleaned, for an "off" day);
* counts are then reset for the next measurement day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..driver.ioctl import IoctlInterface
from ..faults.injector import SimulatedCrash
from ..faults.plan import DEGRADE_ACTIONS
from ..obs.tracer import NULL_TRACER, Tracer
from ..policy import NightlyPolicy, OnlinePolicy, RearrangementPolicy
from .analyzer import ReferenceStreamAnalyzer
from .arranger import BlockArranger

if TYPE_CHECKING:  # avoid a circular import with repro.sim
    from ..sim.engine import Simulation

    from .online import MigrationStats, OnlineRearranger

MONITOR_POLL_INTERVAL_MS = 120_000.0
"""The paper polled the request table every two minutes (Section 4.1.4)."""


@dataclass
class RearrangementController:
    """Orchestrates monitoring and the nightly rearrangement."""

    ioctl: IoctlInterface
    analyzer: ReferenceStreamAnalyzer = field(
        default_factory=ReferenceStreamAnalyzer
    )
    arranger: BlockArranger | None = None
    policy: RearrangementPolicy = field(default_factory=NightlyPolicy)
    """*When* rearrangement happens (``repro.policy``).  The default
    :class:`~repro.policy.NightlyPolicy` is the paper's end-of-day batch
    cycle; :class:`~repro.policy.OnlinePolicy` migrates incrementally
    during idle windows instead (:mod:`repro.core.online`), and
    :class:`~repro.policy.NoRearrangement` only monitors.  The health
    monitor (:attr:`max_error_rate`) applies to the nightly cycle."""
    poll_interval_ms: float = MONITOR_POLL_INTERVAL_MS
    last_plan: list[tuple[int, int]] | None = None
    """The last nightly cycle's ``(logical block, reserved block)``
    moves, or ``None`` after a night that copied nothing in."""
    tracer: Tracer = NULL_TRACER
    """Observation hooks for the nightly cycle; adopted from the
    simulation on :meth:`attach_to` unless one was set explicitly."""

    max_error_rate: float | None = None
    """Health threshold: when the fraction of today's requests that hit a
    device error exceeds this, tonight's rearrangement is degraded per
    :attr:`degrade_action` (``None`` disables the health monitor)."""

    degrade_action: str = "clean"
    """What a degraded night does: ``"clean"`` still empties the reserved
    area (no new copies onto a suspect device); ``"skip"`` issues no
    rearrangement I/O at all and leaves yesterday's arrangement in place."""

    degraded_days: int = 0
    """Nights the health monitor downgraded (for reporting)."""

    crash_recoveries: int = 0
    """Mid-rearrangement crashes survived via the recovery protocol."""

    online_stats: MigrationStats | None = None
    """Cumulative online-migration counters; created on first attach
    under an :class:`~repro.policy.OnlinePolicy` and carried across days."""

    _online: OnlineRearranger | None = field(default=None, repr=False)
    """This day's online rearranger (rebuilt per simulation day)."""

    def __post_init__(self) -> None:
        if self.arranger is None:
            self.arranger = BlockArranger(self.ioctl)
        if not isinstance(self.policy, RearrangementPolicy):
            from ..policy import resolve_policy

            self.policy = resolve_policy(self.policy)
        if self.degrade_action not in DEGRADE_ACTIONS:
            raise ValueError(
                f"degrade_action must be one of {DEGRADE_ACTIONS}, "
                f"got {self.degrade_action!r}"
            )

    # ------------------------------------------------------------------
    # Daytime monitoring
    # ------------------------------------------------------------------

    def attach_to(self, simulation: Simulation) -> None:
        """Register the analyzer's periodic request-table poll.

        Under an :class:`~repro.policy.OnlinePolicy` this also wires up
        the day's incremental rearranger: the idle detector's bus
        subscriptions and the engine's migration sink are bound to this
        simulation, with the migration counters persisting across days.
        """
        if self.tracer is NULL_TRACER:
            self.tracer = simulation.tracer
        simulation.add_periodic(
            self.poll_interval_ms,
            lambda now_ms: self.analyzer.poll(self.ioctl),
            name="reference-stream-analyzer",
        )
        if isinstance(self.policy, OnlinePolicy):
            from .online import MigrationStats, OnlineRearranger

            if self.online_stats is None:
                self.online_stats = MigrationStats()
            self._online = OnlineRearranger(
                ioctl=self.ioctl,
                analyzer=self.analyzer,
                policy=self.policy,
                stats=self.online_stats,
                tracer=self.tracer,
            )
            self._online.attach_to(simulation)

    def final_poll(self) -> None:
        """Drain whatever is left at day end: any in-flight incremental
        plan is cancelled cleanly first (the nightly cycle no longer owns
        teardown), then the request table is read a last time."""
        if self._online is not None:
            self._online.drain()
        self.analyzer.poll(self.ioctl)

    # ------------------------------------------------------------------
    # End-of-day transitions
    # ------------------------------------------------------------------

    def end_of_day(
        self,
        now_ms: float,
        rearrange_tomorrow: bool,
        num_blocks: int,
    ) -> float:
        """Run the nightly cycle; returns the time the moves finished.

        If tomorrow is an "on" day, the reserved area is cleaned and
        repopulated from today's counts; otherwise it is just cleaned
        (the "off" configuration leaves the reserved region unused).
        Today's counts are reset either way.

        Two robustness paths wrap the paper's cycle.  The health monitor
        downgrades the night (per :attr:`degrade_action`) when today's
        device error rate crossed :attr:`max_error_rate` — rearranging
        onto a disk that is throwing errors only multiplies the damage.
        And a :class:`SimulatedCrash` between block moves is caught here:
        the machine goes down mid-cycle and comes back up through the
        driver's recovery protocol (block table re-read from the reserved
        area, every surviving entry conservatively dirty); the remaining
        moves of the night are abandoned.

        Non-nightly policies never run the batch cycle: an
        :class:`~repro.policy.OnlinePolicy` day has already migrated
        during its idle windows (the arrangement is kept in place for
        tomorrow), and :class:`~repro.policy.NoRearrangement` never
        moves anything; both just drain, reset the day's counts, and
        return.
        """
        if not isinstance(self.policy, NightlyPolicy):
            return self._end_of_day_inline(now_ms)
        self.final_poll()
        assert self.arranger is not None
        device = self.ioctl.device_name
        driver = self.ioctl.driver
        degraded = (
            self.max_error_rate is not None
            and driver.fault_stats.day_error_rate > self.max_error_rate
        )
        if degraded:
            self.degraded_days += 1
            rearrange_tomorrow = False
        self.tracer.rearrangement_begin(
            device, now_ms, num_blocks if rearrange_tomorrow else 0
        )
        injector = getattr(driver, "faults", None)
        if injector is not None:
            injector.begin_rearrangement_cycle()
        try:
            if rearrange_tomorrow:
                # Only the hottest ``num_blocks`` can be selected: skip
                # materializing the (potentially device-sized) full ranking.
                moves, finish = self.arranger.rearrange(
                    self.analyzer.hot_blocks(num_blocks), num_blocks, now_ms
                )
                self.last_plan = moves
            elif degraded and self.degrade_action == "skip":
                finish = now_ms  # no rearrangement I/O at all
                self.last_plan = None
            else:
                finish = self.ioctl.clean(now_ms)
                self.last_plan = None
        except SimulatedCrash as crash:
            # The nightly cycle runs on a drained queue, so the only
            # volatile state lost is the block table's in-memory copy.
            driver.crash(crash.now_ms)
            finish = driver.recover(crash.now_ms)
            self.last_plan = None
            self.crash_recoveries += 1
        moved = len(self.last_plan) if self.last_plan is not None else 0
        self.tracer.rearrangement_end(device, finish, moved)
        self.analyzer.reset()
        driver.fault_stats.start_new_day()
        return finish

    def _end_of_day_inline(self, now_ms: float) -> float:
        """Day rollover for the policies with no nightly cycle.

        Drains any in-flight incremental plan (via :meth:`final_poll`),
        leaves the current arrangement in place — under
        :class:`~repro.policy.OnlinePolicy` tonight's table *is*
        tomorrow's starting point — and resets the day's reference
        counts and fault counters.  No rearrangement I/O is issued.
        """
        self.final_poll()
        self.last_plan = None
        self.analyzer.reset()
        self.ioctl.driver.fault_stats.start_new_day()
        return now_ms
