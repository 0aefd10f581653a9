"""SSD experiments: the paper's workloads against a flash cost model.

A :class:`SsdExperiment` drives the *same* generated day streams as the
disk :class:`~repro.sim.experiment.Experiment` — identical disk label,
partition layout, generator and seed — through the page-mapped FTL
backend (:mod:`repro.driver.ftl`) instead of the mechanical disk.  One
logical disk block maps to one flash logical page, so a given
``(profile, seed)`` pair issues bit-identical request streams to both
device classes and their results are directly comparable.

On flash the rearrangement question changes shape: there is no arm, so
the analyzer's frequency data drives *hot/cold separation* of the write
stream instead of block placement.  The config's ``policy`` keeps the
``RearrangementPolicy`` plumbing: :class:`~repro.policy.NoRearrangement`
(``"off"``) runs the FTL with a single write frontier, any other policy
enables adaptive separation fed by a
:class:`~repro.core.counters.SpaceSavingSketch` whose counts fade at the
end of each day exactly like the disk analyzer's (the paper's
count-aging rule).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.counters import SpaceSavingSketch
from ..disk.label import DiskLabel
from ..disk.models import PAPER_RESERVED_CYLINDERS, DiskModel, disk_model
from ..driver.ftl import GC_POLICIES, FtlDriver, flash_model
from ..obs.tracer import NULL_TRACER, Tracer
from ..policy import RearrangementPolicy, resolve_policy
from ..workload.generator import DayWorkload, WorkloadGenerator
from ..workload.profiles import WorkloadProfile, profile_for_disk
from .engine import Simulation
from .experiment import make_partition

__all__ = ["SsdConfig", "SsdDayResult", "SsdExperiment"]

SEPARATION_SKETCH_CAPACITY = 4096
"""Space-Saving sketch size for hot/cold separation.  Must comfortably
exceed the day's distinct written pages: a saturated sketch inherits
evicted counts, classifying cold pages as hot and erasing the benefit."""


@dataclass(frozen=True)
class SsdConfig:
    """Everything that defines an SSD campaign."""

    profile: WorkloadProfile
    flash: str = "ssd"
    """Flash geometry preset (:data:`repro.driver.ftl.FLASH_MODELS`)."""
    reference_disk: str = "toshiba"
    """Disk whose label/partition layout defines the logical span — this
    is what keeps the workload stream identical to a disk run."""
    seed: int = 1993
    policy: RearrangementPolicy | str | None = None
    """``"off"`` disables hot/cold separation; anything else (default:
    nightly) enables adaptive separation from the frequency sketch."""
    cmt_capacity: int = 8192
    gc_policy: str = "greedy"
    hot_threshold: int = 2
    precondition: bool = True
    """Age the drive before day 0 so the measured days garbage-collect
    (a fresh drive never GCs inside a short window)."""

    def __post_init__(self) -> None:
        flash_model(self.flash)
        disk_model(self.reference_disk)
        if self.gc_policy not in GC_POLICIES:
            raise ValueError(
                f"unknown gc policy {self.gc_policy!r}; "
                f"known: {', '.join(GC_POLICIES)}"
            )
        resolve_policy(self.policy)

    def resolved_policy(self) -> RearrangementPolicy:
        return resolve_policy(self.policy)

    @property
    def separation(self) -> bool:
        """Hot/cold separation is on for every policy except ``off``."""
        return self.resolved_policy().kind != "off"

    def payload(self) -> dict:
        """Canonical JSON-ready form of the settings."""
        return {
            "profile": self.profile.name,
            "flash": self.flash,
            "reference_disk": self.reference_disk,
            "seed": self.seed,
            "policy": self.resolved_policy().payload(),
            "separation": self.separation,
            "cmt_capacity": self.cmt_capacity,
            "gc_policy": self.gc_policy,
            "hot_threshold": self.hot_threshold,
        }


@dataclass
class SsdDayResult:
    """FTL activity and service times for one simulated day.

    The counter fields are day deltas (the driver's counters are
    cumulative across the campaign); the wear fields are cumulative —
    wear is device state, not a rate.
    """

    day: int
    completed: int
    workload_requests: int
    workload_reads: int
    mean_response_ms: float
    mean_service_ms: float
    host_page_writes: int
    flash_page_writes: int
    write_amplification: float
    gc_runs: int
    gc_page_moves: int
    cmt_hit_ratio: float
    translation_reads: int
    translation_writes: int
    max_erase_count: int
    mean_erase_count: float

    def payload(self) -> dict:
        return {
            "day": self.day,
            "completed": self.completed,
            "workload_requests": self.workload_requests,
            "workload_reads": self.workload_reads,
            "mean_response_ms": round(self.mean_response_ms, 6),
            "mean_service_ms": round(self.mean_service_ms, 6),
            "host_page_writes": self.host_page_writes,
            "flash_page_writes": self.flash_page_writes,
            "write_amplification": round(self.write_amplification, 6),
            "gc_runs": self.gc_runs,
            "gc_page_moves": self.gc_page_moves,
            "cmt_hit_ratio": round(self.cmt_hit_ratio, 6),
            "translation_reads": self.translation_reads,
            "translation_writes": self.translation_writes,
            "max_erase_count": self.max_erase_count,
            "mean_erase_count": round(self.mean_erase_count, 6),
        }


class SsdExperiment:
    """One assembled FTL + workload, run day by day."""

    def __init__(
        self, config: SsdConfig, tracer: Tracer = NULL_TRACER
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.model: DiskModel = disk_model(config.reference_disk)
        geometry = self.model.geometry
        # The label and partition mirror the disk Experiment exactly so
        # the generator sees the same span and produces the same days.
        self.label = DiskLabel(
            geometry=geometry,
            reserved_cylinders=PAPER_RESERVED_CYLINDERS[
                config.reference_disk
            ],
        )
        profile = profile_for_disk(config.profile, config.reference_disk)
        partition = make_partition(self.label, profile)
        sketch = None
        if config.separation:
            sketch = SpaceSavingSketch(capacity=SEPARATION_SKETCH_CAPACITY)
        self.driver = FtlDriver(
            geometry=flash_model(config.flash),
            logical_pages=self.label.virtual_total_blocks,
            cmt_capacity=config.cmt_capacity,
            gc_policy=config.gc_policy,
            separation=config.separation,
            hot_threshold=config.hot_threshold,
            sketch=sketch,
            name="ssd0",
        )
        self.driver.attach()
        if config.precondition:
            self.driver.precondition(seed=config.seed)
        self.generator = WorkloadGenerator(
            profile=profile,
            partition=partition,
            blocks_per_cylinder=geometry.blocks_per_cylinder,
            seed=config.seed,
        )
        self._day_index = 0
        self.events_dispatched = 0

    def run_day(self) -> SsdDayResult:
        """Simulate one measurement day through the FTL."""
        day = self._day_index
        self._day_index += 1
        workload: DayWorkload = self.generator.generate_day()
        before = replace(self.driver.stats)

        simulation = Simulation(self.driver, tracer=self.tracer)
        simulation.add_jobs(workload.jobs)
        completed = simulation.run()
        end_of_day = simulation.now_ms
        self.events_dispatched += simulation.events_dispatched

        stats = self.driver.stats
        host_writes = stats.host_page_writes - before.host_page_writes
        flash_writes = stats.flash_page_writes - before.flash_page_writes
        hits = stats.cmt_hits - before.cmt_hits
        lookups = hits + stats.cmt_misses - before.cmt_misses
        responses = [r.response_ms for r in completed]
        services = [r.service_ms for r in completed]
        count = len(completed)
        result = SsdDayResult(
            day=day,
            completed=count,
            workload_requests=workload.num_requests,
            workload_reads=workload.num_reads,
            mean_response_ms=sum(responses) / count if count else 0.0,
            mean_service_ms=sum(services) / count if count else 0.0,
            host_page_writes=host_writes,
            flash_page_writes=flash_writes,
            write_amplification=(
                flash_writes / host_writes if host_writes else 0.0
            ),
            gc_runs=stats.gc_runs - before.gc_runs,
            gc_page_moves=stats.gc_page_moves - before.gc_page_moves,
            cmt_hit_ratio=hits / lookups if lookups else 0.0,
            translation_reads=(
                stats.translation_reads - before.translation_reads
            ),
            translation_writes=(
                stats.translation_writes - before.translation_writes
            ),
            max_erase_count=self.driver.max_erase_count,
            mean_erase_count=self.driver.mean_erase_count,
        )
        if self.tracer is not NULL_TRACER:
            self.tracer.wear_level(
                self.driver.name,
                end_of_day,
                self.driver.max_erase_count,
                self.driver.mean_erase_count,
            )
        # End-of-day count aging, exactly as the disk analyzer fades its
        # reference counts between days.
        if self.driver.sketch is not None:
            self.driver.sketch.reset()
        simulation.close()
        return result

    def run_days(self, days: int) -> list[SsdDayResult]:
        return [self.run_day() for _ in range(days)]
