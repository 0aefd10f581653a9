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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.analyzer import ReferenceStreamAnalyzer
from ..core.arranger import BlockArranger
from ..core.controller import RearrangementController
from ..core.placement import make_policy
from ..disk.disk import Disk
from ..disk.label import DiskLabel, Partition
from ..disk.models import DiskModel, disk_model
from ..driver.driver import AdaptiveDiskDriver
from ..driver.ioctl import IoctlInterface
from ..driver.queue import make_queue
from ..obs.tracer import NULL_TRACER, Tracer
from ..policy import RearrangementPolicy, resolve_policy
from ..stats.metrics import DayMetrics
from ..workload.generator import WorkloadGenerator
from ..workload.profiles import WorkloadProfile, profile_for_disk
from ..workload.tenancy import SharedHotSet
from .engine import Simulation


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
        self.model = disk_model(disk)
        from .experiment import PAPER_REARRANGED_BLOCKS, PAPER_RESERVED_CYLINDERS

        reserved = (
            reserved_cylinders
            if reserved_cylinders is not None
            else PAPER_RESERVED_CYLINDERS[disk]
        )
        self.num_blocks = (
            num_blocks
            if num_blocks is not None
            else PAPER_REARRANGED_BLOCKS[disk]
        )
        self.label = DiskLabel(self.model.geometry, reserved_cylinders=reserved)
        self.disk = Disk(self.model)
        self.driver = AdaptiveDiskDriver(
            disk=self.disk, label=self.label, queue=make_queue(queue_policy)
        )
        self.ioctl = IoctlInterface(self.driver)
        self.controller = RearrangementController(
            ioctl=self.ioctl,
            analyzer=ReferenceStreamAnalyzer(),
            arranger=BlockArranger(
                self.ioctl, policy=make_policy(placement_policy)
            ),
        )

        total = self.label.virtual_total_blocks
        self.partitions: list[Partition] = []
        self.generators: list[WorkloadGenerator] = []
        for index, spec in enumerate(specs):
            size = int(total * spec.fraction)
            partition = self.label.add_partition(
                f"fs{index}-{spec.profile.name}", size
            )
            self.partitions.append(partition)
            self.generators.append(
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

        per_fs_requests: dict[str, int] = {}
        simulation = Simulation(
            self.driver, tracer=self.tracer, fast=self.fast
        )
        self.controller.attach_to(simulation)
        for partition, generator in zip(self.partitions, self.generators):
            workload = generator.generate_day()
            per_fs_requests[partition.name] = workload.num_requests
            simulation.add_jobs(workload.jobs)
        simulation.run()

        metrics = DayMetrics.from_tables(
            self.ioctl.read_stats(),
            self.model.seek,
            day=day,
            rearranged=rearranged,
        )
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
            now_ms=simulation.now_ms,
            rearrange_tomorrow=rearrange_tomorrow,
            num_blocks=self.num_blocks,
        )
        simulation.close()
        return MultiFSDayResult(
            metrics=metrics,
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
    the nightly rearrangement count, as in
    :meth:`~repro.sim.experiment.ExperimentConfig.resolved_analyzer_capacity`."""
    shared_hot: SharedHotSet | None = None
    """Fleet-wide shared hot content overlaid on the device's private
    popularity draw (see :class:`repro.workload.tenancy.SharedHotSet`)."""
    policy: RearrangementPolicy | str | None = None
    """Rearrangement policy for this device (instance or shorthand);
    ``None`` keeps the nightly cycle."""


@dataclass
class _DiskRig:
    """Everything assembled around one physical disk."""

    name: str
    model: DiskModel
    driver: AdaptiveDiskDriver
    ioctl: IoctlInterface
    controller: RearrangementController
    generator: WorkloadGenerator
    num_blocks: int


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
        from .experiment import (
            MIN_SKETCH_CAPACITY,
            PAPER_REARRANGED_BLOCKS,
            PAPER_RESERVED_CYLINDERS,
        )

        if not specs:
            raise ValueError("need at least one disk")
        self.tracer = tracer
        self.fast = fast
        self.rigs: dict[str, _DiskRig] = {}
        for index, spec in enumerate(specs):
            name = spec.name or f"{spec.disk}{index}"
            if name in self.rigs:
                raise ValueError(f"duplicate device name {name!r}")
            model = disk_model(spec.disk)
            reserved = (
                spec.reserved_cylinders
                if spec.reserved_cylinders is not None
                else PAPER_RESERVED_CYLINDERS[spec.disk]
            )
            num_blocks = (
                spec.num_blocks
                if spec.num_blocks is not None
                else PAPER_REARRANGED_BLOCKS[spec.disk]
            )
            capacity = spec.analyzer_capacity
            if capacity is None and spec.counter == "spacesaving":
                capacity = max(MIN_SKETCH_CAPACITY, 4 * num_blocks)
            label = DiskLabel(model.geometry, reserved_cylinders=reserved)
            driver = AdaptiveDiskDriver(
                disk=Disk(model),
                label=label,
                queue=make_queue(spec.queue_policy),
                name=name,
            )
            ioctl = IoctlInterface(driver)
            controller = RearrangementController(
                ioctl=ioctl,
                analyzer=ReferenceStreamAnalyzer(
                    counter=spec.counter, capacity=capacity
                ),
                arranger=BlockArranger(
                    ioctl, policy=make_policy(spec.placement_policy)
                ),
                policy=resolve_policy(spec.policy),
            )
            profile = profile_for_disk(spec.profile, spec.disk)
            partition = label.add_partition(
                f"{name}-fs", label.virtual_total_blocks
            )
            generator = WorkloadGenerator(
                profile,
                partition,
                model.geometry.blocks_per_cylinder,
                seed=spec.seed,
                shared_hot=spec.shared_hot,
            )
            self.rigs[name] = _DiskRig(
                name=name,
                model=model,
                driver=driver,
                ioctl=ioctl,
                controller=controller,
                generator=generator,
                num_blocks=num_blocks,
            )
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

        simulation = Simulation(
            drivers={name: rig.driver for name, rig in self.rigs.items()},
            tracer=self.tracer,
            fast=self.fast,
        )
        per_device_requests: dict[str, int] = {}
        for name, rig in self.rigs.items():
            rig.controller.attach_to(simulation)
            workload = rig.generator.generate_day()
            per_device_requests[name] = workload.num_requests
            simulation.add_jobs(workload.jobs, device=name)
        simulation.run()
        end_of_day = simulation.now_ms
        self.events_dispatched += simulation.events_dispatched

        per_device: dict[str, DayMetrics] = {}
        rearranged_blocks: dict[str, int] = {}
        for name, rig in self.rigs.items():
            per_device[name] = DayMetrics.from_tables(
                rig.ioctl.read_stats(),
                rig.model.seek,
                day=day,
                rearranged=rearranged,
            )
            rearranged_blocks[name] = len(rig.driver.block_table)
        for rig in self.rigs.values():
            rig.controller.end_of_day(
                now_ms=end_of_day,
                rearrange_tomorrow=rearrange_tomorrow,
                num_blocks=rig.num_blocks,
            )
        simulation.close()
        return MultiDiskDayResult(
            per_device=per_device,
            per_device_requests=per_device_requests,
            rearranged_blocks=rearranged_blocks,
        )
