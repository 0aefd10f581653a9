"""The tracer hook interface: how the simulation is observed.

Every layer of the simulation core reports request-lifecycle milestones to
a :class:`Tracer`:

* the **driver** reports ``request_enqueued`` when the strategy routine
  accepts a request, ``seek_started`` when the disk arm starts moving for
  it, and ``service_complete`` when the disk returns it;
* the **rearrangement controller** brackets the nightly block moves with
  ``rearrangement_begin`` / ``rearrangement_end``.

The engine owns one tracer per :class:`~repro.sim.engine.Simulation` and
threads it down to every registered device driver and attached controller,
so a single tracer observes the whole machine.  The default is
:data:`NULL_TRACER`, whose hooks are all no-ops — the hot path pays only
an attribute lookup and an empty call.

This module is a leaf: it imports nothing from the rest of ``repro`` so
that the driver, engine and controller can all depend on it without
cycles.  The concrete trace-file tracer lives in :mod:`repro.obs.jsonl`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..driver.request import DiskRequest


class Tracer:
    """Observation hooks for the request lifecycle.

    Subclass and override any subset; the base implementations do nothing,
    so a tracer only pays for the events it cares about.  ``device`` is the
    name under which the driver is registered with the simulation engine,
    which is what makes multi-device traces attributable.
    """

    def request_enqueued(
        self,
        device: str,
        request: DiskRequest,
        now_ms: float,
        queue_depth: int,
    ) -> None:
        """The driver's strategy routine accepted ``request``."""

    def seek_started(
        self,
        device: str,
        request: DiskRequest,
        now_ms: float,
        seek_distance: int,
    ) -> None:
        """The disk started moving its arm to service ``request``."""

    def service_complete(
        self, device: str, request: DiskRequest, now_ms: float
    ) -> None:
        """The disk finished ``request`` (all timestamps are filled in)."""

    def rearrangement_begin(
        self, device: str, now_ms: float, num_blocks: int
    ) -> None:
        """The nightly cycle started (``num_blocks`` requested; 0 = clean)."""

    def rearrangement_end(
        self, device: str, now_ms: float, moved_blocks: int
    ) -> None:
        """The nightly cycle finished after moving ``moved_blocks``."""

    def fault_injected(
        self,
        device: str,
        now_ms: float,
        block: int,
        kind: str,
        is_read: bool,
    ) -> None:
        """The injector faulted an access to ``block`` (``kind`` is
        ``"transient"`` or ``"media"``)."""

    def retry(
        self,
        device: str,
        now_ms: float,
        block: int,
        attempt: int,
        is_read: bool,
    ) -> None:
        """The driver started bounded retry ``attempt`` for ``block``."""

    def idle_window(
        self, device: str, now_ms: float, budget_moves: int
    ) -> None:
        """The online rearranger opened a migration window on an idle
        ``device`` (at most ``budget_moves`` block moves this window)."""

    def migration_move(
        self,
        device: str,
        now_ms: float,
        logical_block: int,
        reserved_block: int,
        ios: int,
    ) -> None:
        """One incremental block move committed: ``logical_block`` now
        lives at ``reserved_block`` after ``ios`` queued migration I/Os."""

    def gc_run(
        self,
        device: str,
        now_ms: float,
        victim_block: int,
        policy: str,
        moved_pages: int,
        erase_count: int,
    ) -> None:
        """The FTL collected ``victim_block`` under ``policy``, migrating
        ``moved_pages`` live pages before the erase (the block's
        ``erase_count`` includes this one)."""

    def mapping_writeback(
        self, device: str, now_ms: float, tvpn: int, entries: int
    ) -> None:
        """The FTL flushed ``entries`` dirty mapping entries of
        translation page ``tvpn`` to flash (a mapping-cache eviction or
        a GC-driven rewrite)."""

    def wear_level(
        self, device: str, now_ms: float, max_erase: int, mean_erase: float
    ) -> None:
        """End-of-day wear snapshot: per-block erase-count maximum and
        mean across the whole device."""

    def recovery_begin(
        self, device: str, now_ms: float, disk_entries: int
    ) -> None:
        """Post-crash recovery started (``disk_entries`` in the on-disk
        block-table copy about to be re-read)."""

    def recovery_end(
        self, device: str, now_ms: float, recovered_entries: int
    ) -> None:
        """Recovery finished with ``recovered_entries`` rebuilt, all
        conservatively dirty."""

    def close(self) -> None:
        """Release any resources (files, sockets).  Default: nothing."""


class NullTracer(Tracer):
    """The do-nothing tracer; inherits every no-op hook."""


NULL_TRACER = NullTracer()
"""Shared default tracer.  Layers treat *identity* with this object as
"no tracer installed", which lets the engine thread its own tracer into
drivers and controllers without clobbering one set explicitly."""
