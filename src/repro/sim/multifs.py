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

Both assemble their stacks from an
:class:`~repro.sim.experiment.ExperimentConfig` with
:func:`~repro.sim.experiment.build_rig` and run their days through
:func:`~repro.sim.experiment.run_rig_day`, like the single-disk
:class:`~repro.sim.experiment.Experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..disk.label import Partition
from ..obs.tracer import NULL_TRACER, Tracer
from ..stats.metrics import DayMetrics
from ..workload.generator import WorkloadGenerator
from ..workload.profiles import WorkloadProfile
from .experiment import DiskRig, ExperimentConfig, build_disk, build_rig, run_rig_day


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
    """One disk, one reserved area, several file systems.

    ``config`` describes the disk and its adaptive stack (model, reserved
    area, block count, placement, queue, counter, faults, policy)
    exactly as for :class:`~repro.sim.experiment.Experiment`; its
    workload fields are unused, because each :class:`FileSystemSpec`
    brings its own profile and seed.
    """

    def __init__(
        self,
        specs: list[FileSystemSpec],
        config: ExperimentConfig = ExperimentConfig(),
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.tracer = tracer
        if not specs:
            raise ValueError("need at least one file system")
        if sum(spec.fraction for spec in specs) > 1.0 + 1e-9:
            raise ValueError("partition fractions exceed the disk")
        rig = self.rig = build_rig(config)
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

    Each config builds an independent disk + driver + analyzer/arranger
    stack (its own reserved area, its own nightly cycle), mirroring the
    paper's two-disk server, and built exactly as the single-disk
    :class:`~repro.sim.experiment.Experiment` builds its disk.  A single
    event loop interleaves their completions, on the batch kernel for
    every device whose stack admits it; a single tracer, if given,
    observes every device.
    """

    def __init__(
        self,
        configs: list[ExperimentConfig],
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if not configs:
            raise ValueError("need at least one disk")
        self.tracer = tracer
        self.rigs: dict[str, DiskRig] = {}
        for index, config in enumerate(configs):
            name = config.name or f"{config.disk}{index}"
            if name in self.rigs:
                raise ValueError(f"duplicate device name {name!r}")
            self.rigs[name] = build_disk(replace(config, name=name))
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
