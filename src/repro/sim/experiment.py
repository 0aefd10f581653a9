"""Experiment campaigns: the paper's measurement methodology (Section 5).

A campaign simulates consecutive measurement days on one disk + file
system.  Each day:

1. the day's workload is generated and run through the adaptive driver,
   with the reference stream analyzer polling the request table every two
   minutes;
2. the driver's performance tables are read and reduced to
   :class:`~repro.stats.metrics.DayMetrics`;
3. at the end of the day the nightly cycle runs: the reserved area is
   cleaned and — if the *next* day is an "on" day — repopulated from
   today's reference counts ("block reference counts measured during one
   day were used (at the end of the day) to rearrange blocks for the next
   day's requests", Section 5.1).

The module also provides the specific experiment shapes of the paper:
on/off alternation (Tables 2–6), the placement-policy comparison (Tables
7–10) and the rearranged-block-count sweep (Figure 8).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from ..parallel import AheadWorker, can_work_ahead, fan_out
from ..core.analyzer import ReferenceStreamAnalyzer
from ..core.counters import COUNTER_STRATEGIES
from ..core.arranger import BlockArranger
from ..core.controller import RearrangementController
from ..core.placement import make_policy
from ..disk.disk import Disk
from ..disk.label import DiskLabel
from ..disk.models import (
    PAPER_REARRANGED_BLOCKS,
    PAPER_RESERVED_CYLINDERS,
    DiskModel,
    disk_model,
)
from ..driver.driver import AdaptiveDiskDriver
from ..driver.ioctl import IoctlInterface
from ..driver.queue import make_queue
from ..faults.plan import FaultPlan
from ..obs.tracer import NULL_TRACER, Tracer
from ..policy import RearrangementPolicy, resolve_policy
from ..stats.metrics import DayMetrics
from ..workload.generator import DaySlice, DayWorkload, WorkloadGenerator
from ..workload.profiles import SYSTEM_FS_PROFILE, WorkloadProfile, profile_for_disk
from ..workload.tenancy import SharedHotSet
from .engine import DEFAULT_DEVICE, JobFeed, Simulation

# Default Space-Saving sketch size: generously above the number of blocks
# rearranged nightly, so the top-num_blocks ranking is trustworthy (the
# sketch's error bound shrinks as capacity / distinct-blocks grows).
MIN_SKETCH_CAPACITY = 4096

# Entries in every rig's request table (Section 4.1.4), which the
# analyzer reads and clears at each poll.
MONITOR_CAPACITY = 65536

DAY_AHEAD_MIN_REQUESTS = 10_000
"""Day 0's size, in requests, from which an :class:`Experiment` generates
its later days on a worker one day ahead (:class:`~repro.parallel
.AheadWorker`).  On smaller days the fork, its copy-on-write faults and
the worker's share of the host cost a two-day campaign more than
generating its second day saves; ``docs/scaling.md``, "Workload
generation", has the measured break-even."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines one simulated disk and the workload it
    serves: the single-disk campaign's config, one device of a
    multi-disk run, and the rig of a trace replay."""

    profile: WorkloadProfile = SYSTEM_FS_PROFILE
    disk: str = "toshiba"
    name: str | None = None
    """Device name; ``None`` is :data:`~repro.sim.engine.DEFAULT_DEVICE`
    on a single disk and ``"<disk><index>"`` in a multi-disk run."""
    reserved_cylinders: int | None = None  # default: the paper's choice
    num_blocks: int | None = None  # blocks rearranged nightly; default: paper
    placement_policy: str = "organ-pipe"
    queue_policy: str = "scan"
    counter: str = "exact"
    """Analyzer counter strategy: ``"exact"`` (the paper's full per-block
    counts) or ``"spacesaving"`` (bounded top-k sketch, four times the
    nightly block count, with day-to-day count fading; see
    :mod:`repro.core.counters`)."""
    seed: int = 1993
    reserved_center: bool = True  # False: reserved area at the disk edge
    faults: FaultPlan | None = None
    """Deterministic fault injection; ``None`` (or an empty plan) keeps
    the fault machinery entirely off the driver's hot path."""
    policy: RearrangementPolicy | str | None = None
    """*When* rearrangement runs: a :class:`~repro.policy
    .RearrangementPolicy` instance or shorthand (``"nightly"``,
    ``"online"``, ``"off"``).  ``None`` means the paper's nightly cycle."""
    shared_hot: SharedHotSet | None = None
    """Fleet-wide shared hot content overlaid on the device's private
    popularity draw (see :class:`repro.workload.tenancy.SharedHotSet`)."""

    def __post_init__(self) -> None:
        if self.counter not in COUNTER_STRATEGIES:
            raise ValueError(
                f"unknown counter strategy {self.counter!r}; "
                f"known: {', '.join(COUNTER_STRATEGIES)}"
            )
        resolve_policy(self.policy)  # validate early; resolved per use

    def resolved_reserved_cylinders(self) -> int:
        if self.reserved_cylinders is None:
            return PAPER_RESERVED_CYLINDERS[self.disk]
        return self.reserved_cylinders

    def resolved_num_blocks(self) -> int:
        if self.num_blocks is None:
            return PAPER_REARRANGED_BLOCKS[self.disk]
        return self.num_blocks

    def resolved_policy(self) -> RearrangementPolicy:
        """The :attr:`policy` as a policy instance (``None`` → nightly)."""
        return resolve_policy(self.policy)


def _sketch_capacity(counter: str, num_blocks: int) -> int | None:
    """The analyzer's list size: unbounded for the exact counter (the
    paper's setup); for the ``spacesaving`` sketch four times the nightly
    block count, at least :data:`MIN_SKETCH_CAPACITY`."""
    if counter == "spacesaving":
        return max(MIN_SKETCH_CAPACITY, 4 * num_blocks)
    return None


def make_partition(label: DiskLabel, profile: WorkloadProfile):
    """Lay out the file system's partition per the profile's band.

    ``"full"`` covers the whole virtual disk.  ``"center"`` is a home
    partition from two cylinder groups below the middle of the virtual
    disk to its end, behind a dummy root partition: a first-fit-growing
    file system then surrounds a centred reserved area.  The anchor is
    where a centred area starts even when the label puts the area at
    the disk edge, so the home partition has the same size wherever the
    reserved cylinders sit.

    Shared by the disk :class:`Experiment` and the SSD experiment
    (:mod:`repro.sim.ssd`): both must carve the identical partition from
    the identical virtual span so one workload stream drives both
    backends.
    """
    total = label.virtual_total_blocks
    if profile.partition_band == "center":
        per_cyl = label.geometry.blocks_per_cylinder
        centred_start = (label.geometry.cylinders - label.reserved_cylinders) // 2
        start_cyl = max(0, centred_start - 2 * profile.cylinders_per_group)
        if start_cyl > 0:
            label.add_partition("root", start_cyl * per_cyl)
        return label.add_partition("home", total - start_cyl * per_cyl)
    return label.add_partition("fs0", total)


# ----------------------------------------------------------------------
# One device's stack, and one day of several
# ----------------------------------------------------------------------


@dataclass
class DiskRig:
    """Everything assembled around one physical disk."""

    name: str
    model: DiskModel
    label: DiskLabel
    driver: AdaptiveDiskDriver
    ioctl: IoctlInterface
    controller: RearrangementController
    num_blocks: int
    """Blocks rearranged nightly (the paper's count unless overridden)."""
    generators: list[WorkloadGenerator] = field(default_factory=list)
    """The workloads this disk serves, one per partition; the caller
    adds them once it has laid its partitions out on :attr:`label`."""


def build_rig(config: ExperimentConfig) -> DiskRig:
    """Assemble the adaptive stack of ``config``'s disk.

    Reads only the device fields of ``config`` (never its workload): a
    ``None`` reserved area or block count takes the paper's choice for
    the disk, and a ``spacesaving`` counter a sketch four times the
    block count.  The rig serves no workload until the caller lays out
    partitions and adds generators (see :func:`build_disk`).
    """
    model = disk_model(config.disk)
    geometry = model.geometry
    reserved = config.resolved_reserved_cylinders()
    blocks = config.resolved_num_blocks()
    start = None if config.reserved_center else geometry.cylinders - reserved
    label = DiskLabel(
        geometry, reserved_cylinders=reserved, reserved_start_cylinder=start
    )
    faults = config.faults
    if faults is not None and faults.is_empty:
        faults = None
    name = config.name or DEFAULT_DEVICE
    driver = AdaptiveDiskDriver(
        disk=Disk(model),
        label=label,
        queue=make_queue(config.queue_policy),
        faults=faults.injector() if faults is not None else None,
        name=name,
    )
    driver.request_monitor.capacity = MONITOR_CAPACITY
    ioctl = IoctlInterface(driver)
    controller = RearrangementController(
        ioctl=ioctl,
        policy=config.resolved_policy(),
        analyzer=ReferenceStreamAnalyzer(
            capacity=_sketch_capacity(config.counter, blocks),
            counter=config.counter,
        ),
        arranger=BlockArranger(ioctl, policy=make_policy(config.placement_policy)),
        max_error_rate=faults.degrade_threshold if faults is not None else None,
        degrade_action=faults.degrade_action if faults is not None else "clean",
    )
    return DiskRig(name, model, label, driver, ioctl, controller, blocks)


def build_disk(config: ExperimentConfig) -> DiskRig:
    """:func:`build_rig`, plus ``config``'s file system laid out per its
    profile's band (:func:`make_partition`) and the workload generator
    that serves it."""
    rig = build_rig(config)
    profile = profile_for_disk(config.profile, config.disk)
    rig.generators.append(
        WorkloadGenerator(
            profile,
            make_partition(rig.label, profile),
            rig.model.geometry.blocks_per_cylinder,
            seed=config.seed,
            shared_hot=config.shared_hot,
        )
    )
    return rig


@dataclass
class RigDay:
    """One simulated day of every rig, before any night runs."""

    metrics: dict[str, DayMetrics]
    workloads: dict[str, list[DayWorkload]]
    """Each rig's generated days, in :attr:`DiskRig.generators` order."""
    end_ms: float
    events: int


def run_rig_day(
    rigs: Sequence[DiskRig],
    *,
    day: int,
    rearranged: bool,
    tracer: Tracer = NULL_TRACER,
    workloads: Mapping[str, list[DayWorkload | Iterable[DaySlice]]] | None = None,
) -> RigDay:
    """Serve every rig's generated jobs on one simulation, with each
    controller attached and the fault plans' crashes for ``day`` (offsets
    from this day's t=0) scheduled.  The night is left to the caller.
    The batch kernel serves every device whose stack admits it (see
    :class:`~repro.sim.vector.BatchPlanner`).

    ``workloads`` holds each rig's days, by rig name, when the caller has
    generated them already; by default each rig's generators make them.
    One day may instead come as its slices
    (:class:`~repro.workload.generator.DaySlice`) from a generator still
    making it: each slice is fed to the simulation (through a
    :class:`~repro.sim.engine.JobFeed`) before the clock reaches it, and
    the day joins :attr:`RigDay.workloads` whole.
    """
    simulation = Simulation(
        drivers={rig.name: rig.driver for rig in rigs},
        tracer=tracer,
    )
    served: dict[str, list] = {}
    streamed = None
    for rig in rigs:
        rig.controller.attach_to(simulation)
        served[rig.name] = (
            list(workloads[rig.name])
            if workloads is not None
            else [g.generate_day() for g in rig.generators]
        )
        for index, workload in enumerate(served[rig.name]):
            if isinstance(workload, DayWorkload):
                simulation.add_jobs(workload.jobs, device=rig.name)
            elif streamed is None:
                feed = simulation.feed_jobs(rig.name)
                streamed = (served[rig.name], index, feed, workload)
            else:
                raise ValueError("run_rig_day streams one day at a time")
        if rig.driver.faults is not None:
            for offset in rig.driver.faults.claim_crash_times(day):
                simulation.schedule_crash(offset)
    if streamed is not None:
        days, index, feed, slices = streamed
        days[index] = _feed_day(simulation, feed, slices)
    simulation.run()
    metrics = {
        rig.name: DayMetrics.from_tables(
            rig.ioctl.read_stats(), rig.model.seek, day=day, rearranged=rearranged
        )
        for rig in rigs
    }
    # The bus subscriptions keep the Simulation (and through it every
    # driver stack) in a reference cycle; close it so long serial
    # campaigns free each day by refcount instead of gc timing.
    simulation.close()
    return RigDay(
        metrics, served, simulation.now_ms, simulation.events_dispatched
    )


def _feed_day(
    simulation: Simulation, feed: JobFeed, slices: Iterable[DaySlice]
) -> DayWorkload:
    """Feed a day's slices to ``simulation``, running it up to (not
    including) each next slice's first start; the day, joined."""
    jobs = []
    for piece in slices:
        feed.add(piece.jobs)
        jobs += piece.jobs
        if piece.next_start_ms is None:
            feed.close()
        else:
            simulation.run(until_ms=math.nextafter(piece.next_start_ms, -math.inf))
    feed.close()
    return DayWorkload(piece.day, jobs, piece.read_counts, piece.all_counts)


@dataclass
class DayResult:
    """Metrics plus workload context for one simulated day."""

    metrics: DayMetrics
    workload_requests: int
    workload_reads: int
    read_counts: dict[int, int] = field(repr=False, default_factory=dict)
    all_counts: dict[int, int] = field(repr=False, default_factory=dict)
    rearranged_blocks: int = 0


@dataclass
class CampaignResult:
    """All days of one campaign."""

    config: ExperimentConfig
    days: list[DayResult]

    def metrics(self) -> list[DayMetrics]:
        return [day.metrics for day in self.days]

    def on_days(self) -> list[DayResult]:
        return [day for day in self.days if day.metrics.rearranged]

    def off_days(self) -> list[DayResult]:
        return [day for day in self.days if not day.metrics.rearranged]


class Experiment:
    """One assembled disk + driver + workload, run day by day.

    Day 0 is generated in this process.  If it holds at least
    :data:`DAY_AHEAD_MIN_REQUESTS` requests and :func:`~repro.parallel
    .can_work_ahead` allows, a forked worker then generates each later day
    up to one day ahead and sends it in time slices
    (:meth:`~repro.workload.generator.WorkloadGenerator.day_slices`).
    This process simulates each slice as it arrives, so a day simulates
    while its own later slices are still being generated.  The days are
    the same either way, since a day's request stream never depends on
    what the driver did.  The worker ends when the experiment is
    collected, and a generation error or a dead worker raises
    :class:`~repro.parallel.WorkerTaskError` from :meth:`run_day`.
    """

    def __init__(
        self, config: ExperimentConfig, tracer: Tracer = NULL_TRACER
    ) -> None:
        self.config = config
        self.tracer = tracer
        rig = self.rig = build_disk(config)
        self.model, self.label = rig.model, rig.label
        self.driver, self.controller = rig.driver, rig.controller
        (self.generator,) = rig.generators
        """The workload generator.  Once a day-ahead worker has started,
        this copy stays where day 0 left it and the worker's copy makes
        every later day."""
        self._ahead: AheadWorker[DaySlice] | None = None
        self._days: int | None = None
        """How many days the caller runs, when it knows in advance
        (:func:`run_campaign` and ``api.simulate_day`` do): a one-day
        run starts no worker, and the worker makes no day past the
        last."""
        self._day_index = 0
        self.events_dispatched = 0
        """Simulation events processed across every day run so far."""

    def _generate(self, day: int) -> DayWorkload | Iterator[DaySlice]:
        """Day ``day``'s workload: whole from this process, or in slices
        from the worker once it runs."""
        if self._ahead is not None:
            return self._ahead.take(
                f"workload day {day} (seed {self.config.seed})",
                last=day + 1 == self._days,
            )
        workload = self.generator.generate_day()
        if (
            day == 0
            and self._days != 1
            and workload.num_requests >= DAY_AHEAD_MIN_REQUESTS
            and can_work_ahead()
        ):
            self._ahead = AheadWorker(self.generator.day_slices)
            weakref.finalize(self, self._ahead.close)
        return workload

    # ------------------------------------------------------------------
    # One day
    # ------------------------------------------------------------------

    def run_day(
        self,
        rearranged: bool,
        rearrange_tomorrow: bool,
        num_blocks_tomorrow: int | None = None,
        keep_arrangement: bool = False,
    ) -> DayResult:
        """Simulate one measurement day and run the nightly cycle.

        ``rearranged`` records whether blocks are currently in the reserved
        area (for labeling only — the driver state was prepared by
        yesterday's nightly cycle).  With ``keep_arrangement`` the nightly
        cycle is skipped entirely: the current arrangement stays in place
        and ages (used by the rearrangement-period ablation).
        """
        day = self._day_index
        self._day_index += 1
        simulated = run_rig_day(
            [self.rig],
            day=day,
            rearranged=rearranged,
            tracer=self.tracer,
            workloads={self.rig.name: [self._generate(day)]},
        )
        (workload,) = simulated.workloads[self.rig.name]
        self.events_dispatched += simulated.events
        blocks_in_table = len(self.driver.block_table)
        if keep_arrangement:
            self.controller.final_poll()
            self.controller.analyzer.reset()
        else:
            self.controller.end_of_day(
                now_ms=simulated.end_ms,
                rearrange_tomorrow=rearrange_tomorrow,
                num_blocks=(
                    num_blocks_tomorrow
                    if num_blocks_tomorrow is not None
                    else self.rig.num_blocks
                ),
            )
        return DayResult(
            metrics=simulated.metrics[self.rig.name],
            workload_requests=workload.num_requests,
            workload_reads=workload.num_reads,
            read_counts=workload.read_counts,
            all_counts=workload.all_counts,
            rearranged_blocks=blocks_in_table,
        )


# ----------------------------------------------------------------------
# The paper's experiment shapes
# ----------------------------------------------------------------------


def alternating_schedule(days: int, first_on_day: int = 1) -> list[bool]:
    """The on/off alternation of Sections 5.2 and 5.3.

    Day 0 must be off (there are no reference counts before the first
    measurement day); by default odd days are "on".
    """
    if days < 2:
        raise ValueError("an on/off campaign needs at least two days")
    schedule = []
    for day in range(days):
        on = day >= first_on_day and (day - first_on_day) % 2 == 0
        schedule.append(on)
    return schedule


def run_campaign(
    config: ExperimentConfig,
    schedule: list[bool],
    tracer: Tracer = NULL_TRACER,
) -> CampaignResult:
    """Run a multi-day campaign with an explicit on/off schedule."""
    if schedule and schedule[0]:
        raise ValueError(
            "day 0 cannot be an 'on' day: no reference counts exist yet"
        )
    experiment = Experiment(config, tracer=tracer)
    experiment._days = len(schedule)
    results: list[DayResult] = []
    for day, on_today in enumerate(schedule):
        on_tomorrow = schedule[day + 1] if day + 1 < len(schedule) else False
        results.append(
            experiment.run_day(
                rearranged=on_today,
                rearrange_tomorrow=on_tomorrow,
            )
        )
    return CampaignResult(config=config, days=results)


def run_onoff_campaign(
    config: ExperimentConfig, days: int = 10, tracer: Tracer = NULL_TRACER
) -> CampaignResult:
    """Alternating on/off days (Tables 2-6)."""
    return run_campaign(config, alternating_schedule(days), tracer=tracer)


def run_policy_campaign(
    config: ExperimentConfig, policy: str, days: int = 4
) -> CampaignResult:
    """One training (off) day followed by ``days - 1`` rearranged days
    under the given placement policy (Tables 7-10)."""
    policy_config = replace(config, placement_policy=policy)
    schedule = [False] + [True] * (days - 1)
    return run_campaign(policy_config, schedule)


def run_block_count_sweep(
    config: ExperimentConfig, block_counts: list[int]
) -> list[tuple[int, DayResult]]:
    """The Figure 8 sweep: one day per rearranged-block count.

    Day 0 trains (off); each subsequent day runs with the next count,
    rearranged from the previous day's reference counts, mirroring the
    paper's "different number of blocks being rearranged each day".
    """
    experiment = Experiment(config)
    results: list[tuple[int, DayResult]] = []
    counts = list(block_counts)
    first_count = counts[0] if counts else 0
    experiment.run_day(
        rearranged=False,
        rearrange_tomorrow=bool(counts),
        num_blocks_tomorrow=first_count,
    )
    for index, count in enumerate(counts):
        next_count = counts[index + 1] if index + 1 < len(counts) else 0
        day = experiment.run_day(
            rearranged=count > 0,
            rearrange_tomorrow=index + 1 < len(counts),
            num_blocks_tomorrow=next_count,
        )
        results.append((count, day))
    return results


# ----------------------------------------------------------------------
# Parallel campaign running
# ----------------------------------------------------------------------
#
# The multiprocessing machinery itself lives in :mod:`repro.parallel`
# (shared with the fleet shard runner); this section only defines the
# campaign-shaped task types.

CampaignTask = tuple[str, ExperimentConfig, Sequence[bool]]
"""One unit of parallel work: ``(key, config, on/off schedule)``."""


def _campaign_worker(task: CampaignTask) -> tuple[str, CampaignResult]:
    key, config, schedule = task
    return key, run_campaign(config, list(schedule))


def run_campaigns_parallel(
    tasks: Sequence[CampaignTask],
    workers: int | None = None,
) -> list[tuple[str, CampaignResult]]:
    """Fan independent campaigns across ``multiprocessing`` workers.

    Each task is a fully self-contained ``(key, config, schedule)``
    triple; campaigns share nothing, so the results are identical to
    running them serially — just wall-clock faster.  Results come back in
    task order, and a worker failure is re-raised as
    :class:`~repro.parallel.WorkerTaskError` naming the campaign key and
    seed.  Tracers are deliberately not supported here: a tracer is
    process-local state, so traced runs should use :func:`run_campaign`
    directly.
    """
    return fan_out(
        _campaign_worker,
        list(tasks),
        workers,
        label=lambda i, task: (
            f"campaign {task[0]!r} (seed {task[1].seed})"
        ),
        what="campaign",
    )

