"""Replay ingested (or generated) jobs through the adaptive driver.

One assembled disk + driver + simulation, fed a fixed job list instead
of the workload generator.  This is the execution half of the trace
pipeline: :func:`repro.traces.ingest.ingest_trace` produces the jobs,
:func:`replay_jobs` runs them and reduces the driver's performance
tables to the same :class:`~repro.stats.metrics.DayMetrics` every other
experiment reports — so traced and generated workloads are compared in
one vocabulary.

With ``rearrange=True`` the replay is *pre-trained*: the reference
stream analyzer observes the whole trace first, the arranger moves the
hot blocks into the reserved area, the performance tables are cleared,
and only then does the trace run — the trace-driven analogue of the
paper's "train on yesterday, measure today".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..disk.models import DiskModel
from ..obs.tracer import NULL_TRACER, Tracer
from ..sim.engine import Simulation
from ..sim.experiment import ExperimentConfig, build_rig
from ..sim.jobs import Job
from ..stats.metrics import DayMetrics
from .ingest import IngestResult, default_target_blocks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..driver.ftl import FtlStats

#: Fixed preconditioning seed for FTL replays: ages the drive so the
#: replayed trace garbage-collects, while keeping the replay fully
#: deterministic (same trace, same options, same counters every run).
_SSD_PRECONDITION_SEED = 1993


@dataclass
class TraceReplayResult:
    """What one replay produced."""

    metrics: DayMetrics
    completed: int
    """Requests the simulation completed."""
    events: int
    """Simulation events dispatched."""
    rearranged_blocks: int
    """Blocks moved by pre-training (0 without ``rearrange``)."""
    disk: str
    queue: str
    model: DiskModel
    ingest: IngestResult | None = None
    """The ingest stage's output, when the replay came from a raw trace
    (:func:`repro.api.replay_trace`); ``None`` for bare job lists."""

    @property
    def requests(self) -> int:
        return self.metrics.all.requests


@dataclass
class SsdReplayResult:
    """What one FTL replay produced (``replay_trace(disk="ssd")``).

    Flash has no seek arm, so there is no :class:`DayMetrics` here; the
    interesting outcome is the FTL's own accounting — write
    amplification, GC activity, mapping-cache behaviour — plus the
    host-visible response times, mirroring
    :class:`~repro.sim.ssd.SsdDayResult`.
    """

    completed: int
    """Requests the simulation completed."""
    events: int
    """Simulation events dispatched."""
    mean_response_ms: float
    mean_service_ms: float
    stats: FtlStats
    """The drive's counters over the replay window (preconditioning
    clears them, so these cover the trace itself)."""
    separation: bool
    """Whether hot/cold write separation was pre-trained on the trace."""
    disk: str = "ssd"
    queue: str = "fifo"
    ingest: IngestResult | None = None
    """The ingest stage's output, when the replay came from a raw trace."""

    @property
    def requests(self) -> int:
        return self.completed

    def payload(self) -> dict:
        """Canonical JSON-ready form for digests."""
        return {
            "completed": self.completed,
            "mean_response_ms": round(self.mean_response_ms, 6),
            "mean_service_ms": round(self.mean_service_ms, 6),
            "separation": self.separation,
            **self.stats.payload(),
        }


def replay_jobs(
    jobs: Sequence[Job] | Iterable[Job],
    *,
    disk: str = "toshiba",
    queue: str = "scan",
    rearrange: bool = False,
    num_blocks: int | None = None,
    tracer: Tracer = NULL_TRACER,
) -> TraceReplayResult | SsdReplayResult:
    """Run a job list through a freshly assembled driver.

    Fully deterministic: the same jobs, disk and queue produce the same
    metrics on every run (there is no randomness anywhere in the replay
    path), which is what lets the ``trace_replay`` benchmark pin its
    metrics digest.

    ``disk="ssd"`` replays the jobs through the page-mapped FTL backend
    instead (the trace must have been mapped onto the SSD's logical span
    — :func:`repro.traces.ingest.default_target_blocks` handles this for
    ``replay_trace``) and returns an :class:`SsdReplayResult`; there
    ``queue`` is ignored (the FTL serves FIFO) and ``rearrange=True``
    pre-trains hot/cold write separation on the trace rather than moving
    blocks.
    """
    jobs = list(jobs)
    if disk == "ssd":
        return _replay_jobs_ssd(jobs, rearrange=rearrange, tracer=tracer)
    rig = build_rig(
        ExperimentConfig(disk=disk, num_blocks=num_blocks, queue_policy=queue)
    )
    rearranged_blocks = 0
    if rearrange:
        controller = rig.controller
        for job in jobs:
            for step in job.steps:
                controller.analyzer.observe(step.logical_block)
        assert controller.arranger is not None
        moves, __ = controller.arranger.rearrange(
            controller.analyzer.hot_blocks(rig.num_blocks),
            rig.num_blocks,
            now_ms=0.0,
        )
        rearranged_blocks = len(moves)
        rig.driver.perf_monitor.read_and_clear()
    simulation = Simulation(rig.driver, tracer=tracer)
    simulation.add_jobs(jobs)
    completed = simulation.run()
    metrics = DayMetrics.from_tables(
        rig.ioctl.read_stats(),
        rig.model.seek,
        day=0,
        rearranged=rearrange,
    )
    events = simulation.events_dispatched
    # The batch kernel never materializes the requests it absorbs, so
    # the completed count is the list plus the absorbed tally.
    completed_count = len(completed) + simulation.absorbed_completions
    simulation.close()
    return TraceReplayResult(
        metrics=metrics,
        completed=completed_count,
        events=events,
        rearranged_blocks=rearranged_blocks,
        disk=disk,
        queue=queue,
        model=rig.model,
    )


def _replay_jobs_ssd(
    jobs: list[Job],
    *,
    rearrange: bool,
    tracer: Tracer,
) -> SsdReplayResult:
    """Replay a job list through a freshly assembled FTL.

    The drive's logical span mirrors the reference disk label used by
    :class:`~repro.sim.ssd.SsdExperiment`, so traces ingested for
    ``disk="ssd"`` address valid pages.  The drive is preconditioned
    with a fixed seed (aged drives garbage-collect; fresh ones do not),
    keeping the replay deterministic end to end.
    """
    # Imported here: repro.driver.ftl reaches back into repro.core, which
    # drags in this module through the analysis layer at package init.
    from ..core.counters import SpaceSavingSketch
    from ..driver.ftl import SSD_4CH, FtlDriver
    from ..sim.ssd import SEPARATION_SKETCH_CAPACITY

    separation = rearrange
    sketch = None
    if separation:
        # The trace-driven analogue of pre-training: the frequency
        # sketch observes the whole trace before any page is written.
        sketch = SpaceSavingSketch(capacity=SEPARATION_SKETCH_CAPACITY)
        for job in jobs:
            for step in job.steps:
                if not step.op.is_read:
                    sketch.observe(step.logical_block)
    driver = FtlDriver(
        geometry=SSD_4CH,
        logical_pages=default_target_blocks("ssd"),
        separation=separation,
        sketch=sketch,
        name="ssd0",
    )
    driver.attach()
    driver.precondition(seed=_SSD_PRECONDITION_SEED)
    simulation = Simulation(driver, tracer=tracer)
    simulation.add_jobs(jobs)
    completed = simulation.run()
    events = simulation.events_dispatched
    count = len(completed)
    responses = sum(r.response_ms for r in completed)
    services = sum(r.service_ms for r in completed)
    simulation.close()
    return SsdReplayResult(
        completed=count,
        events=events,
        mean_response_ms=responses / count if count else 0.0,
        mean_service_ms=services / count if count else 0.0,
        stats=driver.stats,
        separation=separation,
        ingest=None,
    )
