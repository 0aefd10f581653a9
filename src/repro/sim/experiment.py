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

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..parallel import fan_out, spawn_seeds
from ..parallel import resolve_workers as resolve_workers  # re-export
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
from ..workload.generator import DayWorkload, WorkloadGenerator
from ..workload.profiles import WorkloadProfile, profile_for_disk
from .engine import DEFAULT_DEVICE, Simulation

# Default Space-Saving sketch size: generously above the number of blocks
# rearranged nightly, so the top-num_blocks ranking is trustworthy (the
# sketch's error bound shrinks as capacity / distinct-blocks grows).
MIN_SKETCH_CAPACITY = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines a campaign."""

    profile: WorkloadProfile
    disk: str = "toshiba"
    reserved_cylinders: int | None = None  # default: the paper's choice
    num_blocks: int | None = None  # blocks rearranged nightly; default: paper
    placement_policy: str = "organ-pipe"
    queue_policy: str = "scan"
    counter: str = "exact"
    """Analyzer counter strategy: ``"exact"`` (the paper's full per-block
    counts) or ``"spacesaving"`` (bounded top-k sketch, four times the
    nightly block count, with day-to-day count fading; see
    :mod:`repro.core.counters`)."""
    monitor_capacity: int = 65536
    seed: int = 1993
    reserved_center: bool = True  # False: reserved area at the disk edge
    faults: FaultPlan | None = None
    """Deterministic fault injection; ``None`` (or an empty plan) keeps
    the fault machinery entirely off the driver's hot path."""
    policy: RearrangementPolicy | str | None = None
    """*When* rearrangement runs: a :class:`~repro.policy
    .RearrangementPolicy` instance or shorthand (``"nightly"``,
    ``"online"``, ``"off"``).  ``None`` means the paper's nightly cycle."""
    fast: bool = True
    """Run each day through the batch simulation kernel
    (:mod:`repro.sim.vector`).  Metrics are bit-identical either way —
    the kernel falls back to the scalar engine at every interaction
    point — so this is purely a throughput knob, on by default and
    exposed as ``--no-fast`` on the bench CLI for A/B verification."""

    def __post_init__(self) -> None:
        if self.counter not in COUNTER_STRATEGIES:
            raise ValueError(
                f"unknown counter strategy {self.counter!r}; "
                f"known: {', '.join(COUNTER_STRATEGIES)}"
            )
        resolve_policy(self.policy)  # validate early; resolved per use

    def resolved_reserved_cylinders(self) -> int:
        return _paper(PAPER_RESERVED_CYLINDERS, self.disk, self.reserved_cylinders)

    def resolved_num_blocks(self) -> int:
        return _paper(PAPER_REARRANGED_BLOCKS, self.disk, self.num_blocks)

    def resolved_policy(self) -> RearrangementPolicy:
        """The :attr:`policy` as a policy instance (``None`` → nightly)."""
        return resolve_policy(self.policy)


def _paper(table: dict[str, int], disk: str, value: int | None) -> int:
    """``value``, or the paper's choice for ``disk`` when it is ``None``."""
    return table[disk] if value is None else value


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
    partition occupying the middle 40% of the virtual disk — the slice
    whose physical cylinders bracket the reserved area — with outer
    dummy partitions standing in for root and swap.

    Shared by the disk :class:`Experiment` and the SSD experiment
    (:mod:`repro.sim.ssd`): both must carve the identical partition from
    the identical virtual span so one workload stream drives both
    backends.
    """
    total = label.virtual_total_blocks
    if profile.partition_band == "center":
        per_cyl = label.geometry.blocks_per_cylinder
        # Start two cylinder groups below the hidden reserved area so
        # that a first-fit-growing file system surrounds it.
        assert label.reserved_start_cylinder is not None
        start_cyl = max(
            0,
            label.reserved_start_cylinder - 2 * profile.cylinders_per_group,
        )
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


def build_rig(
    disk: str,
    *,
    name: str = DEFAULT_DEVICE,
    reserved_cylinders: int | None = None,
    reserved_center: bool = True,
    num_blocks: int | None = None,
    placement_policy: str = "organ-pipe",
    queue_policy: str = "scan",
    counter: str = "exact",
    policy: RearrangementPolicy | str | None = None,
    faults: FaultPlan | None = None,
    monitor_capacity: int | None = None,
) -> DiskRig:
    """Assemble the adaptive stack of one ``disk`` preset.

    The one place the paper's defaults are filled in: a ``None`` reserved
    area or block count takes the paper's choice for ``disk``, and a
    ``spacesaving`` counter a sketch four times the block count.
    """
    model = disk_model(disk)
    geometry = model.geometry
    reserved = _paper(PAPER_RESERVED_CYLINDERS, disk, reserved_cylinders)
    blocks = _paper(PAPER_REARRANGED_BLOCKS, disk, num_blocks)
    start = None if reserved_center else geometry.cylinders - reserved
    label = DiskLabel(
        geometry, reserved_cylinders=reserved, reserved_start_cylinder=start
    )
    if faults is not None and faults.is_empty:
        faults = None
    driver = AdaptiveDiskDriver(
        disk=Disk(model),
        label=label,
        queue=make_queue(queue_policy),
        faults=faults.injector() if faults is not None else None,
        name=name,
    )
    if monitor_capacity is not None:
        driver.request_monitor.capacity = monitor_capacity
    ioctl = IoctlInterface(driver)
    controller = RearrangementController(
        ioctl=ioctl,
        policy=resolve_policy(policy),
        analyzer=ReferenceStreamAnalyzer(
            capacity=_sketch_capacity(counter, blocks), counter=counter
        ),
        arranger=BlockArranger(ioctl, policy=make_policy(placement_policy)),
        max_error_rate=faults.degrade_threshold if faults is not None else None,
        degrade_action=faults.degrade_action if faults is not None else "clean",
    )
    return DiskRig(name, model, label, driver, ioctl, controller, blocks)


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
    fast: bool = True,
) -> RigDay:
    """Serve every rig's generated jobs on one simulation, with each
    controller attached and the fault plans' crashes for ``day`` (offsets
    from this day's t=0) scheduled.  The night is left to the caller."""
    simulation = Simulation(
        drivers={rig.name: rig.driver for rig in rigs},
        tracer=tracer,
        fast=fast,
    )
    workloads: dict[str, list[DayWorkload]] = {}
    for rig in rigs:
        rig.controller.attach_to(simulation)
        workloads[rig.name] = [g.generate_day() for g in rig.generators]
        for workload in workloads[rig.name]:
            simulation.add_jobs(workload.jobs, device=rig.name)
        if rig.driver.faults is not None:
            for offset in rig.driver.faults.claim_crash_times(day):
                simulation.schedule_crash(offset)
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
        metrics, workloads, simulation.now_ms, simulation.events_dispatched
    )


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
    """One assembled disk + driver + workload, run day by day."""

    def __init__(
        self, config: ExperimentConfig, tracer: Tracer = NULL_TRACER
    ) -> None:
        self.config = config
        self.tracer = tracer
        rig = self.rig = build_rig(
            config.disk,
            reserved_cylinders=config.reserved_cylinders,
            reserved_center=config.reserved_center,
            num_blocks=config.num_blocks,
            placement_policy=config.placement_policy,
            queue_policy=config.queue_policy,
            counter=config.counter,
            policy=config.policy,
            faults=config.faults,
            monitor_capacity=config.monitor_capacity,
        )
        self.model, self.label = rig.model, rig.label
        self.driver, self.controller = rig.driver, rig.controller
        profile = profile_for_disk(config.profile, config.disk)
        self.generator = WorkloadGenerator(
            profile=profile,
            partition=make_partition(self.label, profile),
            blocks_per_cylinder=self.model.geometry.blocks_per_cylinder,
            seed=config.seed,
        )
        rig.generators.append(self.generator)
        self._day_index = 0
        self.events_dispatched = 0
        """Simulation events processed across every day run so far."""

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
            fast=self.config.fast,
        )
        self.events_dispatched += simulated.events
        (workload,) = simulated.workloads[self.rig.name]
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
# campaign-shaped task types.  ``resolve_workers`` is re-exported for
# callers that historically imported it from here.

CampaignTask = tuple[str, ExperimentConfig, Sequence[bool]]
"""One unit of parallel work: ``(key, config, on/off schedule)``."""


def _campaign_worker(task: CampaignTask) -> tuple[str, CampaignResult]:
    key, config, schedule = task
    return key, run_campaign(config, list(schedule))


def run_campaigns_parallel(
    tasks: Sequence[CampaignTask],
    workers: int | None = None,
    seed_from: int | None = None,
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

    ``seed_from`` replaces each task's seed with a
    ``numpy.random.SeedSequence``-spawned child seed (one per task, in
    task order).  Use it when fanning out *replicas* of one config:
    spawned children are statistically independent, unlike the ad-hoc
    ``seed + i`` arithmetic this replaces, and identical at every worker
    count.
    """
    tasks = list(tasks)
    if seed_from is not None:
        seeds = spawn_seeds(seed_from, len(tasks))
        tasks = [
            (key, replace(config, seed=seed), schedule)
            for (key, config, schedule), seed in zip(tasks, seeds)
        ]
    return fan_out(
        _campaign_worker,
        tasks,
        workers,
        label=lambda i, task: (
            f"campaign {task[0]!r} (seed {task[1].seed})"
        ),
        what="campaign",
    )


def _sweep_point_worker(
    item: tuple[ExperimentConfig, int],
) -> tuple[int, DayResult]:
    config, count = item
    return run_block_count_sweep(config, [count])[0]


def run_block_count_sweep_parallel(
    config: ExperimentConfig,
    block_counts: list[int],
    workers: int | None = None,
) -> list[tuple[int, DayResult]]:
    """The Figure 8 sweep with mutually independent points.

    Unlike :func:`run_block_count_sweep` — where day *k* is trained on day
    *k-1*'s workload, chaining every point through one long campaign —
    each point here is its own two-day experiment (day 0 trains, day 1
    measures with ``count`` blocks rearranged), so all points share the
    same training day and can run concurrently.  The curves agree in
    shape; individual points differ slightly from the chained variant
    because the training workload is day 0's for every count.
    """
    items = [(config, count) for count in block_counts]
    return fan_out(
        _sweep_point_worker,
        items,
        workers,
        label=lambda i, item: (
            f"sweep point count={item[1]} (seed {item[0].seed})"
        ),
        what="sweep point",
    )
