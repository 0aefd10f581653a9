"""Typed simulation events, the time-ordered queue, and the event bus.

Events are small slotted dataclasses — one class per kind of occurrence —
rather than ``(kind-string, payload)`` pairs.  They are not frozen: the
engine builds one per job start, issue and completion, and a frozen
dataclass's ``__init__`` pays an ``object.__setattr__`` call per field,
about three times the cost of a slotted one.  Nothing mutates an event
after it is built.  The queue orders them by
``(time_ms, insertion sequence)``; ties are broken by insertion order,
which keeps the simulation deterministic for a fixed seed.  The
:class:`EventBus` dispatches a popped event to the handlers subscribed to
its exact type, so adding a new event kind means adding a dataclass and a
subscription, not editing a string-matching ``if`` chain.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(eq=False, slots=True)
class SimEvent:
    """Base class of every typed simulation event."""


@dataclass(eq=False, slots=True)
class JobStart(SimEvent):
    """A workload job reaches its start time on ``device``."""

    job: Any
    device: str


@dataclass(eq=False, slots=True)
class StepIssue(SimEvent):
    """One step of a (closed-loop) job is issued to ``device``."""

    job: Any
    index: int
    device: str


@dataclass(eq=False, slots=True)
class DeviceComplete(SimEvent):
    """The in-flight disk operation on ``device`` finishes.

    ``epoch`` is the device's crash epoch at scheduling time: a crash
    bumps the device epoch, which invalidates any completion event still
    in the heap for an operation that no longer exists.
    """

    device: str
    epoch: int = 0


@dataclass(eq=False, slots=True)
class PeriodicFire(SimEvent):
    """A registered periodic task (user-level daemon) fires."""

    task: Any


@dataclass(eq=False, slots=True)
class DeviceIdle(SimEvent):
    """``device`` just drained: its last in-flight operation completed
    with nothing queued behind it.

    Only published when a subscriber asked for idle events
    (:meth:`~repro.sim.engine.Simulation.emit_idle_events`); runs without
    an online rearranger never see — or pay for — these.
    """

    device: str


@dataclass(eq=False, slots=True)
class IdleCheck(SimEvent):
    """A scheduled probe of whether a queue-empty gap on ``device`` stayed
    quiet.  ``token`` is the idle detector's activity sequence number at
    scheduling time: if any foreground work arrived in between, the
    token no longer matches and the gap is discarded."""

    device: str
    token: int


@dataclass(eq=False, slots=True)
class MachineCrash(SimEvent):
    """The (simulated) machine crashes: every device loses its volatile
    state and recovers with the paper's all-dirty protocol; lost requests
    are resubmitted by the (NFS) clients once recovery completes."""


@dataclass
class EventQueue:
    """Time-ordered event heap with deterministic tie-breaking.

    Heap entries are ``(time_ms, seq, event)``; ``seq`` is unique, so the
    event objects themselves are never compared.
    """

    _heap: list[tuple[float, int, SimEvent]] = field(default_factory=list)
    _seq: itertools.count = field(default_factory=itertools.count)
    now_ms: float = 0.0

    def push(self, time_ms: float, event: SimEvent) -> SimEvent:
        """Schedule ``event`` at ``time_ms`` (which must not be in the past)."""
        return self._schedule(time_ms, next(self._seq), event)

    def reserve(self, size: int) -> Callable[[float, SimEvent], SimEvent]:
        """A push for up to ``size`` events that sort as if pushed now.

        The next ``size`` sequence numbers are set aside and every later
        :meth:`push` draws past them, so an event scheduled through the
        returned function, however late, goes before every event at the
        same time pushed after this call.
        """
        if size <= 0:
            raise ValueError("a reserved band needs at least one number")
        first = next(self._seq)
        self._seq = itertools.count(first + size)
        band = iter(range(first, first + size))

        def push(time_ms: float, event: SimEvent) -> SimEvent:
            seq = next(band, None)
            if seq is None:
                raise OverflowError(f"the reserved band of {size} is used up")
            return self._schedule(time_ms, seq, event)

        return push

    def _schedule(self, time_ms: float, seq: int, event: SimEvent) -> SimEvent:
        if not math.isfinite(time_ms):
            raise ValueError(f"cannot schedule at non-finite time {time_ms}")
        if time_ms < self.now_ms:
            raise ValueError(
                f"cannot schedule at {time_ms} before now ({self.now_ms})"
            )
        heapq.heappush(self._heap, (time_ms, seq, event))
        return event

    def pop(self) -> SimEvent:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise IndexError("pop from empty event queue")
        time_ms, __, event = heapq.heappop(self._heap)
        self.now_ms = time_ms
        return event

    def pending(
        self,
        kinds: type[SimEvent] | tuple[type[SimEvent], ...] | None = None,
    ) -> Iterator[SimEvent]:
        """Iterate scheduled events in firing order, without popping.

        ``kinds`` filters by event class (a single type or a tuple, as for
        ``isinstance``); ``None`` yields everything.  This is the public
        way to ask "is work still scheduled?" — callers must not reach
        into the heap.
        """
        for __, __, event in sorted(
            self._heap, key=lambda entry: (entry[0], entry[1])
        ):
            if kinds is None or isinstance(event, kinds):
                yield event

    def any_pending(
        self, kinds: type[SimEvent] | tuple[type[SimEvent], ...]
    ) -> bool:
        """True if any scheduled event matches ``kinds``.

        Existence does not depend on firing order, so this scans the heap
        as-is instead of sorting it the way :meth:`pending` must.
        """
        for entry in self._heap:
            if isinstance(entry[2], kinds):
                return True
        return False

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class UnhandledEventError(RuntimeError):
    """An event was dispatched with no subscribed handler."""


class EventBus:
    """Exact-type event dispatch.

    Handlers subscribe per event class and are invoked in subscription
    order.  Dispatch is by ``type(event)`` — deliberately not by
    ``isinstance`` — so the routing stays a single dict lookup and there
    is exactly one obvious handler set per event kind.
    """

    def __init__(self) -> None:
        self._handlers: dict[type[SimEvent], list[Callable[[Any], None]]] = {}

    def subscribe(
        self,
        event_type: type[SimEvent],
        handler: Callable[[Any], None],
    ) -> None:
        self._handlers.setdefault(event_type, []).append(handler)

    def dispatch(self, event: SimEvent) -> None:
        handlers = self._handlers.get(type(event))
        if not handlers:
            raise UnhandledEventError(
                f"no handler subscribed for {type(event).__name__}"
            )
        for handler in handlers:
            handler(event)

    def handles(self, event_type: type[SimEvent]) -> bool:
        return bool(self._handlers.get(event_type))

    def clear(self) -> None:
        """Drop every subscription (dispatch raises afterwards).

        Handlers are typically bound methods of the objects that own the
        bus, so the subscription lists form reference cycles; clearing
        them lets a finished simulation free its devices by reference
        counting instead of waiting for a garbage-collection pass.
        """
        self._handlers.clear()
