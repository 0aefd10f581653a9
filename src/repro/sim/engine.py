"""The discrete-event simulation engine.

:class:`Simulation` connects a workload (a set of :class:`~repro.sim.jobs.Job`
objects) to one or more device drivers conforming to
:class:`~repro.driver.protocol.DeviceDriver`.  It owns the clock, the typed
event heap and the event bus; each driver reports completion times for its
disk operations and the engine turns them into :class:`DeviceComplete`
events — one pending completion per device, with the in-flight bookkeeping
kept per device so N disks can be clocked concurrently by one loop.
Periodic callbacks model the user-level daemons (the reference stream
analyzer polls the driver's request table every two minutes in the paper's
experiments).

Instrumentation: the engine holds a :class:`~repro.obs.tracer.Tracer` and
installs it on every registered driver that does not already carry one, so
a single tracer observes request lifecycles across all devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..driver.protocol import DeviceDriver
from ..driver.request import DiskRequest
from ..obs.tracer import NULL_TRACER, Tracer
from .events import (
    DeviceComplete,
    DeviceIdle,
    EventBus,
    EventQueue,
    JobStart,
    MachineCrash,
    PeriodicFire,
    StepIssue,
)
from .jobs import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .vector import BatchPlanner

DEFAULT_DEVICE = "disk0"
"""Name under which a driver without one is registered."""

_WORK_EVENTS = (JobStart, StepIssue, DeviceComplete)
"""Event kinds that represent outstanding workload (periodic daemon fires
do not keep the simulation alive by themselves)."""

_RUN_WALL_NS = 0


def reset_run_wall() -> None:
    """Zero the :func:`run_wall_s` accumulator."""
    global _RUN_WALL_NS
    _RUN_WALL_NS = 0


def run_wall_s() -> float:
    """Seconds spent inside :meth:`Simulation.run` since the last
    :func:`reset_run_wall`, summed across every simulation in this
    process.  This isolates simulator throughput from workload
    generation, analysis and reporting, which is what the benchmark
    suite's ``sim_events_per_sec`` reports.  Simulations running in
    *worker processes* (fleet mode with ``workers > 1``) are not seen by
    this process-local accumulator.
    """
    return _RUN_WALL_NS / 1e9


@dataclass
class _PeriodicTask:
    interval_ms: float
    callback: Callable[[float], None]
    name: str


@dataclass
class DeviceState:
    """Per-device bookkeeping: one entry per registered driver."""

    name: str
    driver: DeviceDriver
    outstanding: int = 0
    completion_scheduled: bool = False
    completed: list[DiskRequest] = field(default_factory=list)
    epoch: int = 0
    """Crash epoch: bumped when the device loses its in-flight state, so
    stale completion events already in the heap are discarded."""
    arrivals: int = 0
    """Foreground requests handed to the driver's strategy routine.  Crash
    resubmissions and migration steps are not arrivals, and neither is a
    sequential job's start (its first request arrives at its first
    ``StepIssue``).  The online idle detector reads this as its activity
    sequence."""


class Simulation:
    """Event loop joining jobs, one or more drivers, and their disks.

    ``Simulation(driver)`` registers a single device (the common
    single-disk configuration); ``Simulation(drivers={...})`` or repeated
    :meth:`add_device` calls clock several disks from the same event heap.
    """

    def __init__(
        self,
        driver: DeviceDriver | None = None,
        *,
        drivers: Mapping[str, DeviceDriver] | None = None,
        events: EventQueue | None = None,
        tracer: Tracer = NULL_TRACER,
        fast: bool = False,
    ) -> None:
        if driver is not None and drivers:
            raise ValueError("pass either one driver or a drivers mapping")
        self.events = events if events is not None else EventQueue()
        self.bus = EventBus()
        self.tracer = tracer
        self.fast = fast
        """Enable the batch kernel (:mod:`repro.sim.vector`): homogeneous
        event stretches are absorbed in a fused loop with bit-identical
        metrics, falling back to scalar dispatch at interaction points."""
        self.completed: list[DiskRequest] = []
        self.events_dispatched = 0
        """Total events this simulation has processed (all :meth:`run` calls)."""
        self.absorbed_completions = 0
        """Completions absorbed by the batch kernel (all :meth:`run` calls).
        Absorbed requests are never materialized, so they do not appear in
        :attr:`completed`; callers sizing results by ``len(run())`` must add
        the delta of this counter across the call."""
        self._devices: dict[str, DeviceState] = {}
        self._waiting_jobs: dict[int, tuple[Job, int, str]] = {}
        self._idle_events = False
        self._migration_sinks: dict[
            str, Callable[[DiskRequest, float], None]
        ] = {}
        self._planner: BatchPlanner | None = None
        """The running :meth:`run` call's batch planner, if any (dropped
        on exit so it cannot keep a finished day's stack alive)."""
        self.bus.subscribe(JobStart, self._on_job_start)
        self.bus.subscribe(StepIssue, self._on_step_issue)
        self.bus.subscribe(DeviceComplete, self._on_device_complete)
        self.bus.subscribe(PeriodicFire, self._on_periodic_fire)
        self.bus.subscribe(MachineCrash, self._on_machine_crash)
        if driver is not None:
            self.add_device(driver)
        for name, drv in (drivers or {}).items():
            self.add_device(drv, device=name)

    @property
    def now_ms(self) -> float:
        return self.events.now_ms

    def close(self) -> None:
        """Release the devices and bus subscriptions of a finished run.

        The bus holds bound methods of this simulation, which is a
        reference cycle keeping every registered driver (and its block
        tables) alive until a garbage-collection pass; day-level wrappers
        call this once they have read the day's results so peak memory
        tracks one day's stack, not gc timing.  A closed simulation can
        no longer dispatch events — callers that resume ``run(until_ms)``
        must close only after the final segment.
        """
        self.bus.clear()
        self._devices.clear()
        self._waiting_jobs.clear()
        self._migration_sinks.clear()
        # Rebind rather than clear: run() hands the completed list to
        # callers, who may still be reading it.
        self.completed = []

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------

    def add_device(
        self, driver: DeviceDriver, device: str | None = None
    ) -> DeviceState:
        """Register a driver under ``device`` (default: the driver's own
        name).

        The registered name becomes the driver's ``name`` so that tracer
        events are labeled consistently, and the engine's tracer is
        installed on the driver unless one was set explicitly.
        """
        device = device or getattr(driver, "name", None) or DEFAULT_DEVICE
        if device in self._devices:
            raise ValueError(f"device {device!r} is already registered")
        if getattr(driver, "name", None) != device:
            driver.name = device
        if (
            self.tracer is not NULL_TRACER
            and getattr(driver, "tracer", None) is NULL_TRACER
        ):
            driver.tracer = self.tracer
        state = DeviceState(name=device, driver=driver)
        self._devices[device] = state
        return state

    @property
    def devices(self) -> dict[str, DeviceState]:
        """Registered devices by name (read-only by convention)."""
        return self._devices

    @property
    def driver(self) -> DeviceDriver:
        """The sole registered driver (single-device configurations)."""
        if len(self._devices) != 1:
            raise ValueError(
                f"simulation has {len(self._devices)} devices; "
                "use .devices[name].driver"
            )
        return next(iter(self._devices.values())).driver

    def completed_on(self, device: str) -> list[DiskRequest]:
        """Requests completed by ``device``, in completion order."""
        return self._devices[device].completed

    def _default_device(self) -> str:
        if len(self._devices) != 1:
            raise ValueError(
                "several devices are registered; pass device= explicitly"
            )
        return next(iter(self._devices))

    # ------------------------------------------------------------------
    # Workload definition
    # ------------------------------------------------------------------

    def add_job(self, job: Job, device: str | None = None) -> None:
        target = device if device is not None else self._default_device()
        if target not in self._devices:
            raise KeyError(f"unknown device {target!r}")
        self.events.push(job.start_ms, JobStart(job, target))

    def add_jobs(self, jobs: Iterable[Job], device: str | None = None) -> None:
        for job in jobs:
            self.add_job(job, device=device)

    def add_periodic(
        self,
        interval_ms: float,
        callback: Callable[[float], None],
        start_offset_ms: float | None = None,
        name: str = "periodic",
    ) -> None:
        """Run ``callback(now_ms)`` every ``interval_ms``.

        The first firing is scheduled relative to the clock *at
        registration time* — for a task registered mid-drain (e.g. from
        another callback) that is the time of the event currently being
        processed, never a half-advanced peek time.  Periodic tasks stop
        firing automatically once no workload remains, so they never keep
        the simulation alive by themselves.
        """
        if not math.isfinite(interval_ms):
            raise ValueError(
                f"interval_ms must be finite, got {interval_ms}"
            )
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if start_offset_ms is not None and not math.isfinite(start_offset_ms):
            raise ValueError(
                f"start_offset_ms must be finite, got {start_offset_ms}"
            )
        task = _PeriodicTask(interval_ms, callback, name)
        base = self.now_ms
        first = start_offset_ms if start_offset_ms is not None else interval_ms
        self.events.push(base + first, PeriodicFire(task))

    # ------------------------------------------------------------------
    # Online migration (repro.core.online)
    # ------------------------------------------------------------------

    def emit_idle_events(self) -> None:
        """Publish a :class:`DeviceIdle` event whenever a device drains.

        Off by default — without a subscriber the completion path never
        pushes idle events, so runs with no online rearranger process an
        identical event sequence.  The caller (an idle detector) must
        have subscribed a :class:`DeviceIdle` handler before the next
        device drains, or dispatch will raise.
        """
        self._idle_events = True

    def set_migration_sink(
        self, device: str, sink: Callable[[DiskRequest, float], None]
    ) -> None:
        """Deliver completed migration steps on ``device`` to ``sink``.

        Migration requests never enter the completed lists nor resume
        waiting jobs; the sink — ``sink(request, now_ms)`` — is the only
        place their completions surface.
        """
        if device not in self._devices:
            raise KeyError(f"unknown device {device!r}")
        self._migration_sinks[device] = sink

    def submit_migration(self, device: str, request: DiskRequest) -> None:
        """Queue one constituent I/O of an online block move *now*.

        The request must carry a pre-resolved ``target_block``; it joins
        the device's ordinary disk queue as a low-priority job (foreground
        requests preempt it through SCAN ordering) and its completion is
        routed to the device's migration sink.
        """
        state = self._devices[device]
        if self._planner is not None:
            # The driver is about to touch disk state the batch kernel
            # may be holding in its resident mirrors.
            self._planner.flush()
        request.migration = True
        state.outstanding += 1
        completion = state.driver.enqueue_migration(request, self.now_ms)
        if completion is not None:
            self._schedule_completion(state, completion)

    def schedule_crash(self, at_ms: float) -> None:
        """Crash the whole machine at simulation time ``at_ms``.

        Every registered driver must support the crash protocol
        (``crash``/``recover``/``resubmit``, as
        :class:`~repro.driver.driver.AdaptiveDiskDriver` does): volatile
        state is lost, the block table is recovered from its reserved-area
        disk copy with every entry dirty, and the requests that were
        queued or in flight are resubmitted once recovery completes —
        the stateless-client (NFS) retry semantics of the paper's server.
        """
        self.events.push(at_ms, MachineCrash())

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def run(self, until_ms: float | None = None) -> list[DiskRequest]:
        """Process events until the workload drains (or ``until_ms``).

        Returns the list of requests completed during this call, in
        completion order (across all devices).
        """
        global _RUN_WALL_NS
        start_ns = perf_counter_ns()
        try:
            return self._run_loop(until_ms)
        finally:
            self._planner = None
            _RUN_WALL_NS += perf_counter_ns() - start_ns

    def _run_loop(self, until_ms: float | None) -> list[DiskRequest]:
        completed_before = len(self.completed)
        dispatched = 0
        events = self.events
        heap = events._heap
        pop = events.pop
        dispatch = self.bus.dispatch
        absorb = None
        if self.fast:
            from .vector import BatchPlanner

            planner = BatchPlanner(self)
            if planner.eligible:
                absorb = planner.absorb
                self._planner = planner
        if until_ms is None:
            if absorb is not None:
                # Fast path: let the kernel absorb homogeneous stretches;
                # anything it declines dispatches through the scalar spec.
                # The kernel keeps monitor/disk mirrors resident between
                # stretches (it flushes them itself before declining), so
                # flush on every exit — normal or raising — before any
                # caller reads the live state.
                try:
                    while heap:
                        n = absorb(math.inf)
                        if n:
                            dispatched += n
                            continue
                        dispatch(pop())
                        dispatched += 1
                finally:
                    planner.flush()
            else:
                # Drain-everything loop: no deadline checks, locals prebound.
                while heap:
                    dispatch(pop())
                    dispatched += 1
        elif absorb is not None:
            try:
                while heap:
                    if heap[0][0] > until_ms:
                        break
                    n = absorb(until_ms)
                    if n:
                        dispatched += n
                        continue
                    dispatch(pop())
                    dispatched += 1
            finally:
                planner.flush()
        else:
            while heap:
                if heap[0][0] > until_ms:
                    break
                dispatch(pop())
                dispatched += 1
        self.events_dispatched += dispatched
        return self.completed[completed_before:]

    @property
    def has_pending_work(self) -> bool:
        """True while requests are in flight or jobs are still scheduled."""
        if any(state.outstanding > 0 for state in self._devices.values()):
            return True
        return self.events.any_pending(_WORK_EVENTS)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _on_job_start(self, event: JobStart) -> None:
        job = event.job
        if job.sequential:
            first_think = job.steps[0].think_ms
            self.events.push(
                self.now_ms + first_think, StepIssue(job, 0, event.device)
            )
        else:
            # Batch admission: all steps arrive at once, so resolve the
            # device and bulk-update the bookkeeping a single time.  Only
            # the first strategy call can start the idle disk (yielding a
            # completion); the rest just queue, exactly as the one-by-one
            # loop behaved.
            state = self._devices[event.device]
            now = self.now_ms
            strategy = state.driver.strategy
            request_for = job.request_for
            count = len(job.steps)
            state.outstanding += count
            state.arrivals += count
            for index in range(count):
                completion = strategy(request_for(index, now), now)
                if completion is not None:
                    self._schedule_completion(state, completion)

    def _on_step_issue(self, event: StepIssue) -> None:
        self._issue_step(event.job, event.index, event.device)

    def _issue_step(self, job: Job, index: int, device: str) -> None:
        state = self._devices[device]
        request = job.request_for(index, self.now_ms)
        state.outstanding += 1
        state.arrivals += 1
        if job.sequential and index + 1 < len(job.steps):
            self._waiting_jobs[request.request_id] = (job, index + 1, device)
        completion = state.driver.strategy(request, self.now_ms)
        if completion is not None:
            self._schedule_completion(state, completion)

    def _on_device_complete(self, event: DeviceComplete) -> None:
        state = self._devices[event.device]
        if event.epoch != state.epoch:
            return  # completion of an operation lost in a crash
        state.completion_scheduled = False
        request, next_completion = state.driver.complete(self.now_ms)
        state.outstanding -= 1
        if request.migration:
            # Migration steps surface only through the sink (which may
            # immediately submit the next step of the move) — they are
            # not workload completions.
            if next_completion is not None:
                self._schedule_completion(state, next_completion)
            sink = self._migration_sinks.get(event.device)
            if sink is not None:
                sink(request, self.now_ms)
            if self._idle_events and not state.completion_scheduled:
                self.events.push(self.now_ms, DeviceIdle(state.name))
            return
        state.completed.append(request)
        self.completed.append(request)
        follow_up = self._waiting_jobs.pop(request.request_id, None)
        if follow_up is not None:
            job, next_index, device = follow_up
            think = job.steps[next_index].think_ms
            self.events.push(
                self.now_ms + think, StepIssue(job, next_index, device)
            )
        if next_completion is not None:
            self._schedule_completion(state, next_completion)
        elif self._idle_events:
            self.events.push(self.now_ms, DeviceIdle(state.name))

    def _schedule_completion(self, state: DeviceState, time_ms: float) -> None:
        if state.completion_scheduled:  # pragma: no cover - defensive
            raise RuntimeError(
                f"device {state.name!r} has two operations in flight"
            )
        self.events.push(time_ms, DeviceComplete(state.name, state.epoch))
        state.completion_scheduled = True

    def _on_machine_crash(self, event: MachineCrash) -> None:
        now = self.now_ms
        for state in self._devices.values():
            driver = state.driver
            if not hasattr(driver, "crash"):
                raise RuntimeError(
                    f"device {state.name!r} does not support the crash "
                    "protocol (crash/recover/resubmit)"
                )
            lost = driver.crash(now)
            state.epoch += 1
            state.completion_scheduled = False
            clock = driver.recover(now)
            for request in lost:
                if request.migration:
                    # An interrupted block move is abandoned, not
                    # retried: its table entry was never committed, so
                    # the home copy stays authoritative (the online
                    # arranger observes the crash and resets its state).
                    state.outstanding -= 1
                    continue
                completion = driver.resubmit(request, clock)
                if completion is not None:
                    self._schedule_completion(state, completion)

    def _on_periodic_fire(self, event: PeriodicFire) -> None:
        task = event.task
        task.callback(self.now_ms)
        if self.has_pending_work:
            self.events.push(self.now_ms + task.interval_ms, PeriodicFire(task))
