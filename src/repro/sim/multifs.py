"""Shared-media configurations: several file systems, several disks.

Two configurations from the paper's measured server live here:

* :class:`MultiFSExperiment` — Section 4.1.1: "A disk may have several
  partitions and consequently several file systems on it.  However, only
  a single reserved region will be implemented by the driver, and blocks
  from any of the file systems may be copied there."  Multiple workload
  generators, one per partition, feed a single driver whose
  analyzer/arranger operate on the merged request stream — so the hot
  block list competes across file systems.

* :class:`MultiDiskExperiment` — the measured system itself ran *two*
  disks (the Toshiba MK156F *system* disk and the Fujitsu M2266 *users*
  disk) behind one modified driver.  Here each physical disk gets its own
  adaptive driver, analyzer and arranger, and a single
  :class:`~repro.sim.engine.Simulation` clocks all of them concurrently,
  producing per-device metrics.

Both assemble their stacks with :func:`~repro.sim.experiment.build_rig`
and run their days through :func:`~repro.sim.experiment.run_rig_day`,
like the single-disk :class:`~repro.sim.experiment.Experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..disk.label import Partition
from ..obs.tracer import NULL_TRACER, Tracer
from ..policy import RearrangementPolicy
from ..stats.metrics import DayMetrics
from ..workload.generator import WorkloadGenerator
from ..workload.profiles import WorkloadProfile, profile_for_disk
from ..workload.tenancy import SharedHotSet
from .experiment import DiskRig, build_rig, run_rig_day


@dataclass(frozen=True)
class FileSystemSpec:
    """One file system to host: a profile and a share of the disk."""

    profile: WorkloadProfile
    fraction: float  # share of the virtual disk given to its partition
    seed: int = 1993

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")


@dataclass
class MultiFSDayResult:
    """One day's metrics, overall and attributed per file system."""

    metrics: DayMetrics
    per_fs_requests: dict[str, int]
    rearranged_blocks: int
    rearranged_per_fs: dict[str, int] = field(default_factory=dict)


class MultiFSExperiment:
    """One disk, one reserved area, several file systems."""

    def __init__(
        self,
        specs: list[FileSystemSpec],
        disk: str = "toshiba",
        reserved_cylinders: int | None = None,
        num_blocks: int | None = None,
        placement_policy: str = "organ-pipe",
        queue_policy: str = "scan",
        tracer: Tracer = NULL_TRACER,
        fast: bool = True,
    ) -> None:
        self.tracer = tracer
        self.fast = fast
        if not specs:
            raise ValueError("need at least one file system")
        if sum(spec.fraction for spec in specs) > 1.0 + 1e-9:
            raise ValueError("partition fractions exceed the disk")
        rig = self.rig = build_rig(
            disk,
            reserved_cylinders=reserved_cylinders,
            num_blocks=num_blocks,
            placement_policy=placement_policy,
            queue_policy=queue_policy,
        )
        self.model, self.label = rig.model, rig.label
        self.driver, self.controller = rig.driver, rig.controller
        self.num_blocks = rig.num_blocks

        total = self.label.virtual_total_blocks
        self.partitions: list[Partition] = []
        for index, spec in enumerate(specs):
            size = int(total * spec.fraction)
            partition = self.label.add_partition(
                f"fs{index}-{spec.profile.name}", size
            )
            self.partitions.append(partition)
            rig.generators.append(
                WorkloadGenerator(
                    spec.profile,
                    partition,
                    self.model.geometry.blocks_per_cylinder,
                    seed=spec.seed,
                )
            )
        self._day = 0

    # ------------------------------------------------------------------

    def _partition_of(self, logical_block: int) -> Partition | None:
        for partition in self.partitions:
            if partition.contains(logical_block):
                return partition
        return None

    def run_day(
        self, rearranged: bool, rearrange_tomorrow: bool
    ) -> MultiFSDayResult:
        """One day: merge every file system's jobs on the shared disk."""
        day = self._day
        self._day += 1

        simulated = run_rig_day(
            [self.rig],
            day=day,
            rearranged=rearranged,
            tracer=self.tracer,
            fast=self.fast,
        )
        per_fs_requests = {
            partition.name: workload.num_requests
            for partition, workload in zip(
                self.partitions, simulated.workloads[self.rig.name]
            )
        }
        blocks_in_table = len(self.driver.block_table)
        rearranged_per_fs: dict[str, int] = {}
        for entry in self.driver.block_table.entries():
            logical = self.label.physical_to_virtual_block(
                entry.original_block
            )
            partition = self._partition_of(logical)
            if partition is not None:
                rearranged_per_fs[partition.name] = (
                    rearranged_per_fs.get(partition.name, 0) + 1
                )

        self.controller.end_of_day(
            now_ms=simulated.end_ms,
            rearrange_tomorrow=rearrange_tomorrow,
            num_blocks=self.num_blocks,
        )
        return MultiFSDayResult(
            metrics=simulated.metrics[self.rig.name],
            per_fs_requests=per_fs_requests,
            rearranged_blocks=blocks_in_table,
            rearranged_per_fs=rearranged_per_fs,
        )


# ----------------------------------------------------------------------
# Several physical disks behind one engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiskSpec:
    """One physical disk in a multi-device simulation."""

    disk: str  # "toshiba", "fujitsu", or "modern"
    profile: WorkloadProfile
    name: str | None = None  # device name; default "<model><index>"
    seed: int = 1993
    reserved_cylinders: int | None = None  # default: the paper's choice
    num_blocks: int | None = None  # rearranged nightly; default: paper
    placement_policy: str = "organ-pipe"
    queue_policy: str = "scan"
    counter: str = "exact"
    """Analyzer counter strategy (``"exact"`` or ``"spacesaving"``); the
    fleet runner uses the bounded sketch so per-device analyzer state does
    not scale with the multi-million-block device size."""
    analyzer_capacity: int | None = None
    """Sketch size for ``counter="spacesaving"``; default is four times
    the nightly rearrangement count (see
    :func:`~repro.sim.experiment.build_rig`)."""
    shared_hot: SharedHotSet | None = None
    """Fleet-wide shared hot content overlaid on the device's private
    popularity draw (see :class:`repro.workload.tenancy.SharedHotSet`)."""
    policy: RearrangementPolicy | str | None = None
    """Rearrangement policy for this device (instance or shorthand);
    ``None`` keeps the nightly cycle."""


@dataclass
class MultiDiskDayResult:
    """One day of a multi-disk run, attributed per device."""

    per_device: dict[str, DayMetrics]
    per_device_requests: dict[str, int]
    rearranged_blocks: dict[str, int]

    @property
    def total_requests(self) -> int:
        return sum(self.per_device_requests.values())


class MultiDiskExperiment:
    """N adaptive disks clocked concurrently by one simulation engine.

    Each spec builds an independent disk + driver + analyzer/arranger
    stack (its own reserved area, its own nightly cycle), mirroring the
    paper's two-disk server.  A single event loop interleaves their
    completions; a single tracer, if given, observes every device.
    """

    def __init__(
        self,
        specs: list[DiskSpec],
        tracer: Tracer = NULL_TRACER,
        fast: bool = True,
    ) -> None:
        if not specs:
            raise ValueError("need at least one disk")
        self.tracer = tracer
        self.fast = fast
        self.rigs: dict[str, DiskRig] = {}
        for index, spec in enumerate(specs):
            name = spec.name or f"{spec.disk}{index}"
            if name in self.rigs:
                raise ValueError(f"duplicate device name {name!r}")
            rig = build_rig(
                spec.disk,
                name=name,
                reserved_cylinders=spec.reserved_cylinders,
                num_blocks=spec.num_blocks,
                placement_policy=spec.placement_policy,
                queue_policy=spec.queue_policy,
                counter=spec.counter,
                analyzer_capacity=spec.analyzer_capacity,
                policy=spec.policy,
            )
            partition = rig.label.add_partition(
                f"{name}-fs", rig.label.virtual_total_blocks
            )
            rig.generators.append(
                WorkloadGenerator(
                    profile_for_disk(spec.profile, spec.disk),
                    partition,
                    rig.model.geometry.blocks_per_cylinder,
                    seed=spec.seed,
                    shared_hot=spec.shared_hot,
                )
            )
            self.rigs[name] = rig
        self._day = 0
        self.events_dispatched = 0
        """Simulation events processed across every day run so far."""

    @property
    def device_names(self) -> list[str]:
        return list(self.rigs)

    def run_day(
        self, rearranged: bool, rearrange_tomorrow: bool
    ) -> MultiDiskDayResult:
        """One day: every disk serves its own workload on a shared clock."""
        day = self._day
        self._day += 1

        simulated = run_rig_day(
            list(self.rigs.values()),
            day=day,
            rearranged=rearranged,
            tracer=self.tracer,
            fast=self.fast,
        )
        self.events_dispatched += simulated.events
        per_device_requests = {
            name: workload.num_requests
            for name, (workload,) in simulated.workloads.items()
        }
        rearranged_blocks = {
            name: len(rig.driver.block_table)
            for name, rig in self.rigs.items()
        }
        for rig in self.rigs.values():
            rig.controller.end_of_day(
                now_ms=simulated.end_ms,
                rearrange_tomorrow=rearrange_tomorrow,
                num_blocks=rig.num_blocks,
            )
        return MultiDiskDayResult(
            per_device=simulated.metrics,
            per_device_requests=per_device_requests,
            rearranged_blocks=rearranged_blocks,
        )
