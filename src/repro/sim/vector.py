"""Batch simulation kernel: serve a device's requests without dispatch.

The scalar engine (:mod:`repro.sim.engine`) dispatches one typed event at a
time: a ``StepIssue`` allocates a :class:`~repro.driver.request.DiskRequest`,
walks it through the driver's strategy routine, pushes a ``DeviceComplete``
onto the heap, pops it back off, and finally walks the completion path —
roughly a dozen object allocations and dynamic dispatches per simulated
request.  Most simulated time, however, is *homogeneous*: closed-loop
streams and batch flushes hitting a disk with no fault injector and no
tracer.  Along such a stretch the entire future is
determined by pure arithmetic — seek-table gather, the rotational-position
recurrence, transfer time — so the engine does not need to materialize the
intermediate events at all.

:class:`BatchPlanner` implements that observation.  Built by every
:meth:`Simulation.run` call, it peeks at the head of the event heap and,
when the next event belongs to an eligible device,
handles it the way the paper's driver serves every request — strategy
(map, redirect through the block table, record, enqueue), then SCAN pop,
access, complete — committing *exactly* the state mutations the scalar
engine would have made: disk head and access counter, the SCAN direction
flag, track-buffer interval/holes/hit counters, block-table dirty bits,
the request-monitor table (with its capacity/suspension semantics) and
every per-scope histogram of the performance monitor.  Float operations are
performed in the scalar engine's exact order — the metrics digests are
bit-identical by construction, and the randomized equivalence suite in
``tests/test_vector.py`` holds the kernel to that.

The kernel is two pieces behind a short :meth:`BatchPlanner.absorb`:

* :meth:`BatchPlanner._admit` is the strategy routine: it maps one job
  step, records its arrival in the monitor tables and returns a real
  ``DiskRequest``.  A ``StepIssue`` admits one step, a batch ``JobStart``
  all of them; on a busy device they only join the real SCAN queue (so
  cylinder keys, sequence numbers and pop order are the scalar ones), on
  an idle one the first request starts at once.  A sequential
  ``JobStart`` admits its first step in the same call when that step's
  issue would be the next event popped: the heap is empty or its head is
  strictly later, and the issue falls within ``until_ms``.  Otherwise it
  pushes the ``StepIssue`` as the scalar engine does.
* :meth:`BatchPlanner._serve` is one per-device loop.  Each pass completes
  the in-flight request and starts the next one at the same clock: the
  SCAN pop or, when the queue is empty, the closed-loop follow-up — if
  that follow-up's issue would be the next heap event.  Any other
  follow-up is pushed as the ``StepIssue`` the scalar engine would push.
  A completion is absorbed only while it lands strictly before the next
  scheduled event (the *horizon*) and at or before ``until_ms``; the
  first one that does not is handed back as the scalar in-flight request,
  service breakdown filled in, with its ``DeviceComplete`` scheduled.  A
  ``DeviceComplete`` at the head of the heap enters the same loop.

Two implementation decisions shape the kernel:

* **Per-device contexts** (:class:`_DeviceContext`).  Typical stretches are
  short — a closed-loop session is a handful of requests — so re-binding
  label geometry, seek tables and the monitors' write methods on every
  stretch would dominate.  The planner binds them once per device.

* **No copy of any device state.**  The kernel records through the
  monitors' own write methods, the very code the scalar driver's checked
  ``note_*`` path ends in: :meth:`RequestMonitor.record
  <repro.driver.monitor.RequestMonitor.record>` and
  :meth:`~repro.driver.monitor.PerformanceMonitor.record_arrival` per
  arrival, :meth:`~repro.driver.monitor.PerformanceMonitor
  .record_completion` per completion.  The monitor's table layout stays
  private to it, and the metrics are bit-identical because both engines
  run one accumulation.  ``_serve`` copies the disk head, access count
  and track-buffer interval and counters into locals at entry and
  writes them back to the disk and track buffer at exit, so every
  scalar handler, callback and reader finds the live objects current.

Fallback points — the planner declines (returns 0 absorbed events) and the
scalar engine dispatches normally — are:

* device ineligibility, checked once per run: a driver that is not exactly
  :class:`~repro.driver.driver.AdaptiveDiskDriver` (e.g. the FTL backend),
  an attached fault injector, a cylinder-map baseline, a non-SCAN queue,
  subclassed monitors, or an identity-gated tracer hook (any tracer other
  than ``NULL_TRACER`` on the driver or the simulation forces scalar
  dispatch so traced runs stay replay-identical);
* live interaction points: rearrangement-epoch boundaries (a stale-epoch
  completion after a crash), migration requests (started in the loop when
  the SCAN pop yields one, then handed back in flight so the completion
  reaches the online arranger's sink), and every event the kernel has no
  handler for — periodic analyzer polls, scheduled crashes, idle-window
  events, ineligible devices' traffic — which also bound every loop via
  the horizon.

Online migration does not take a device off the kernel.  At every drain
``_serve`` pushes the scalar engine's ``DeviceIdle`` after any follow-up
``StepIssue`` and, with idle events on, never absorbs a follow-up across
a drain.  ``_admit`` bumps the device's arrivals counter, the idle
detector's activity sequence.

The kernel is therefore the engine's own choice, made per device from
what the engine can observe; no argument selects it.  The scalar loops
of :meth:`Simulation.run` stay the reference semantics.  Tests reach
them by replacing this module's
:class:`BatchPlanner` with one that finds no eligible device (the
``scalar_engine`` fixture in ``tests/conftest.py``): the engine then
runs exactly its scalar loops, and forked fleet workers inherit the
replacement.

Absorbed completions do **not** append to ``Simulation.completed`` (the
day-level wrappers read metrics from the monitor tables, never from the
request objects); ``Simulation.absorbed_completions`` counts them so
callers that size their result by ``len(run())`` (trace replay) stay
exact.  ``events_dispatched`` accounting matches the scalar engine: one
event for the absorbed ``StepIssue``/``JobStart``, two for a sequential
``JobStart`` whose first issue is served in the same call, one per
absorbed completion and one per absorbed follow-up issue.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..driver.driver import AdaptiveDiskDriver
from ..driver.monitor import PerformanceMonitor, RequestMonitor
from ..driver.queue import ScanQueue
from ..driver.request import DiskRequest, Op
from ..obs.tracer import NULL_TRACER
from .events import DeviceComplete, DeviceIdle, JobStart, StepIssue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import DeviceState, Simulation

_INF = math.inf
READ_OP = Op.READ
_ABSORBED = (StepIssue, JobStart, DeviceComplete)


class _DeviceContext:
    """Bound constants and monitor write methods for one device.

    The monitors' ``read_and_clear`` leave the monitor objects in place,
    so their bound write methods stay valid for the whole run.
    """

    __slots__ = (
        "state",
        "driver",
        "disk",
        "queue",
        "q_entries",
        "record_request",
        "record_arrival",
        "record_completion",
        "to_physical",
        "reserved_of",
        "mark_dirty",
        # disk constants
        "seek_table",
        "ov",
        "bpc",
        "spb",
        "spt",
        "stt",
        "rott",
        "btm",
        "buf",
        "b_cap",
        "b_ht",
        "b_holes",
    )

    def __init__(self, state: "DeviceState") -> None:
        driver = state.driver
        self.state = state
        self.driver = driver
        disk = driver.disk
        self.disk = disk
        self.queue = driver.queue
        self.q_entries = driver.queue._entries
        self.record_request = driver.request_monitor.record
        self.record_arrival = driver.perf_monitor.record_arrival
        self.record_completion = driver.perf_monitor.record_completion
        self.to_physical = driver.label.virtual_to_physical_block
        self.reserved_of = driver.block_table.reserved_of
        self.mark_dirty = driver.block_table.mark_dirty
        self.seek_table = disk._seek_table
        self.ov = disk._overhead_ms
        self.bpc = disk._blocks_per_cylinder
        self.spb = disk._sectors_per_block
        self.spt = disk._sectors_per_track
        self.stt = disk._sector_time_ms
        self.rott = disk._rotation_time_ms
        self.btm = disk._block_transfer_ms
        buf = disk._track_buffer
        self.buf = buf
        self.b_cap = buf._capacity_blocks if buf is not None else 0
        self.b_ht = buf.host_transfer_ms if buf is not None else 0.0
        self.b_holes = buf._holes if buf is not None else None


class BatchPlanner:
    """Per-run fast path: serve eligible devices' events in the kernel.

    One planner serves one :meth:`Simulation.run` call.  ``contexts``
    holds the devices whose configuration admits kernel absorption at
    all; everything dynamic (busy state, horizon, migration) is
    re-checked on every :meth:`absorb` call.
    """

    __slots__ = ("sim", "eligible", "contexts")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.eligible: dict[str, DeviceState] = {}
        self.contexts: dict[str, _DeviceContext] = {}
        if sim.tracer is NULL_TRACER:
            for name, state in sim._devices.items():
                driver = state.driver
                if type(driver) is not AdaptiveDiskDriver:
                    continue  # FTL and other backends: scalar only
                if driver.faults is not None:
                    continue  # fault injection interposes on every access
                if driver.cylinder_map is not None:
                    continue  # cylinder-shuffling baseline remaps targets
                if driver.tracer is not NULL_TRACER:
                    continue  # identity-gated hooks force scalar fallback
                if type(driver.queue) is not ScanQueue:
                    continue  # queue-policy ablations stay on the spec path
                if type(driver.request_monitor) is not RequestMonitor:
                    continue
                if type(driver.perf_monitor) is not PerformanceMonitor:
                    continue
                self.eligible[name] = state
                self.contexts[name] = _DeviceContext(state)

    def absorb(self, until_ms: float) -> int:
        """Try to absorb the head heap event in the kernel.

        Returns the number of scalar events the kernel stands in for (0:
        not absorbable — the caller dispatches the event normally).  The
        caller guarantees the heap is non-empty and, when running with a
        deadline, that the head event is within it.
        """
        sim = self.sim
        events = sim.events
        event = events._heap[0][2]
        cls = event.__class__
        if cls is JobStart and event.job.sequential:
            # A sequential job start only schedules its first issue.  When
            # that issue would be the next event popped, on a device the
            # kernel serves, it is served here instead.  A heap entry at
            # the issue's time has a lower sequence number and goes
            # first; an issue past ``until_ms`` stays scheduled.
            job = event.job
            device = event.device
            events.pop()
            t = events.now_ms + job.steps[0].think_ms
            ctx = self.contexts.get(device)
            heap = events._heap
            if (
                ctx is None
                or t > until_ms
                or (heap and heap[0][0] <= t)
                or (ctx.driver._current is None and ctx.q_entries)
            ):
                events.push(t, StepIssue(job, 0, device))
                return 1
            events.now_ms = t
            return 2 + self._arrive(ctx, job, (0,), device, t, until_ms)
        if cls not in _ABSORBED:
            return 0
        ctx = self.contexts.get(event.device)
        if ctx is None:
            return 0
        current = ctx.driver._current
        if cls is DeviceComplete:
            if (
                event.epoch != ctx.state.epoch
                or current is None
                or current.migration
            ):
                return 0  # stale (crash) or sink-routed
        elif current is None and ctx.q_entries:  # pragma: no cover
            return 0  # defensive: an idle device drains
        events.pop()
        if cls is DeviceComplete:
            return self._serve(ctx, current, current.submit_ms, until_ms, True)
        job = event.job
        indices = (event.index,) if cls is StepIssue else range(len(job.steps))
        return 1 + self._arrive(
            ctx, job, indices, event.device, events.now_ms, until_ms
        )

    def _arrive(self, ctx, job, indices, device, t, until_ms) -> int:
        """Admit the steps ``indices`` of ``job``, arriving at ``t``.

        On a busy device they only join the SCAN queue; on an idle one
        the first request starts at once and the device is served from
        it.  Returns the events served after the arrival.
        """
        admitted = [self._admit(ctx, job, i, device, t) for i in indices]
        ctx.state.outstanding += len(admitted)
        queue = ctx.queue
        qpush = queue.push
        bpc = ctx.bpc
        if ctx.driver._current is not None:
            for request in admitted:
                qpush(request, request.target_block // bpc)
            return 0
        # Idle device: the first request starts at once — its push and
        # single-entry pop only evolve the SCAN direction flag, set
        # here — and the rest of a batch queues behind it.
        first = admitted[0]
        cyl = first.target_block // bpc
        head = ctx.disk.head_cylinder
        queue.ascending = cyl >= head if queue.ascending else cyl > head
        for request in admitted[1:]:
            qpush(request, request.target_block // bpc)
        return self._serve(ctx, first, t, until_ms)

    def _admit(self, ctx, job, index, device, t) -> DiskRequest:
        """The strategy routine for step ``index``, arriving at ``t``.

        Maps the block through the label (which raises on an address
        outside the device, as the scalar path does) and the block table,
        records the arrival in the request table and the performance
        monitor, and registers a closed-loop follow-up.
        """
        step = job.steps[index]
        lb = step.logical_block
        ctx.state.arrivals += 1
        physical = ctx.to_physical(lb)
        request = DiskRequest(lb, step.op, t)
        request.physical_block = physical
        home = request.home_cylinder = physical // ctx.bpc
        reserved = ctx.reserved_of(physical)
        if reserved >= 0:
            request.target_block = reserved
            request.redirected = True
        else:
            request.target_block = physical
        ctx.record_request(request)
        ctx.record_arrival(home, step.op is READ_OP)
        if job.sequential and index + 1 < len(job.steps):
            self.sim._waiting_jobs[request.request_id] = (job, index + 1, device)
        return request

    def _serve(self, ctx, req, t, until_ms, due=False) -> int:
        """Serve the device from ``req``, in flight since ``t``.

        With ``due`` the request was already accessed and completes now
        (a ``DeviceComplete`` entry); otherwise it is about to start at
        ``t`` on the idle device.  Each pass completes the in-flight
        request and starts the next one at the same clock — the SCAN pop,
        or with the queue empty the closed-loop follow-up when its issue
        is the next heap event — until the device drains, a follow-up is
        pushed, or a completion would not land strictly before the
        horizon and within ``until_ms``: that request is handed back in
        flight.  Returns the completions plus follow-up issues absorbed.
        """
        sim = self.sim
        events = sim.events
        heap = events._heap
        push = events.push
        horizon = heap[0][0] if heap else _INF
        now = events.now_ms
        waiting_pop = sim._waiting_jobs.pop
        admit = self._admit
        state = ctx.state
        idle_events = sim._idle_events

        disk = ctx.disk
        seek_table = ctx.seek_table
        ov = ctx.ov
        bpc = ctx.bpc
        spb = ctx.spb
        spt = ctx.spt
        stt = ctx.stt
        rott = ctx.rott
        btm = ctx.btm
        head = disk.head_cylinder
        mark_dirty = ctx.mark_dirty
        buf = ctx.buf
        if buf is not None:
            b_start = buf._start
            b_end = buf._end
            b_holes = ctx.b_holes
            b_cap = ctx.b_cap
            b_ht = ctx.b_ht
            b_hits = buf.hits
            b_misses = buf.misses
        record_completion = ctx.record_completion
        READ = READ_OP
        queue = ctx.queue
        q_entries = ctx.q_entries
        qpop = queue.pop

        completions = accessed = follow_ups = 0
        handed_back = False
        if due:
            ctx.driver._current = None
            state.completion_scheduled = False
            f = now
            is_read = req.op is READ
            distance = req.seek_distance
            rotation_ms = req.rotation_ms
            transfer_ms = req.transfer_ms
            hit = req.buffer_hit
        while True:
            if due:
                due = False
            else:
                # Access `req` at `t` (Disk.access, inlined).
                target = req.target_block
                is_read = req.op is READ
                tcyl, tidx = divmod(target, bpc)
                if (
                    is_read
                    and buf is not None
                    and b_start <= target < b_end
                    and target not in b_holes
                ):
                    hit = True
                    distance = 0
                    seek_ms = rotation_ms = 0.0
                    transfer_ms = b_ht
                    f = t + (ov + b_ht)
                    b_hits += 1
                else:
                    hit = False
                    distance = tcyl - head
                    if distance < 0:
                        distance = -distance
                    seek_ms = seek_table[distance]
                    arr = t + ov
                    arr = arr + seek_ms
                    start_sector = (tidx * spb) % spt
                    angle = (arr / stt) % spt
                    rotation_ms = ((start_sector - angle) % spt) * stt
                    if rotation_ms >= rott:
                        rotation_ms -= rott
                    transfer_ms = btm
                    svc = ov + seek_ms
                    svc = svc + rotation_ms
                    f = t + (svc + btm)
                    if buf is not None:
                        if is_read:
                            b_misses += 1
                            stop = (tcyl + 1) * bpc
                            b_start = target
                            e = target + b_cap
                            b_end = e if e < stop else stop
                            if b_holes:
                                b_holes.clear()
                        elif b_start <= target < b_end:
                            b_holes.add(target)
                    head = tcyl
                    if not is_read:
                        if req.redirected:
                            mark_dirty(req.physical_block)
                        if req.tag is not None:
                            disk.write_data(target, req.tag)
                accessed += 1
                if f >= horizon or f > until_ms or req.migration:
                    # Hand the started request back as scalar in-flight
                    # state; its completion dispatches normally.
                    req.submit_ms = t
                    req.seek_distance = distance
                    req.seek_ms = seek_ms
                    req.rotation_ms = rotation_ms
                    req.transfer_ms = transfer_ms
                    req.buffer_hit = hit
                    ctx.driver._current = req
                    handed_back = True
                    break

            # Complete `req` at `f` (the monitor's share of
            # PerformanceMonitor.note_completion).
            record_completion(
                distance,
                f - t,
                t - req.arrival_ms,
                rotation_ms,
                transfer_ms,
                hit,
                is_read,
            )
            completions += 1
            now = f

            # Start the next request at the same clock.  Scalar order:
            # the queue pop happens inside complete(), *before* the
            # finished request's follow-up issue is pushed.
            follow = waiting_pop(req.request_id, None)
            if q_entries:
                req = qpop(head)
                t = f
                if follow is not None:
                    job, index, device = follow
                    push(f + job.steps[index].think_ms, StepIssue(job, index, device))
                    horizon = heap[0][0]
                continue
            # The device drains.  A follow-up whose issue is the next
            # event starts at once — unless idle events are on: the idle
            # detector must see every drain.
            if follow is not None:
                job, index, device = follow
                t = f + job.steps[index].think_ms
                if idle_events or t >= horizon or t > until_ms:
                    push(t, StepIssue(job, index, device))
                    follow = None
            if follow is None:
                if idle_events:  # scalar order: after the follow-up push
                    push(f, DeviceIdle(state.name))
                break
            # Admit the follow-up and start it on the idle device
            # (the single-entry SCAN pop, inlined).
            req = admit(ctx, job, index, device, t)
            follow_ups += 1
            now = t
            cyl = req.target_block // bpc
            queue.ascending = cyl >= head if queue.ascending else cyl > head

        disk.head_cylinder = head
        disk.accesses += accessed
        if buf is not None:
            buf._start = b_start
            buf._end = b_end
            buf.hits = b_hits
            buf.misses = b_misses
        events.now_ms = now
        sim.absorbed_completions += completions
        state.outstanding += follow_ups - completions
        if handed_back:
            sim._schedule_completion(state, f)
        return completions + follow_ups
