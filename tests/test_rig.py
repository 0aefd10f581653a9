"""The shared disk-rig builder and day function behind every experiment.

``build_rig`` is the one place the paper's per-disk defaults are filled
in, and ``run_rig_day`` is the one day loop.  Where their inputs agree,
``Experiment``, ``MultiDiskExperiment`` and ``MultiFSExperiment`` must
therefore produce the same day, bit for bit.
"""

import pytest

from repro.bench.digest import day_metrics_payload, metrics_digest
from repro.disk.models import PAPER_REARRANGED_BLOCKS, PAPER_RESERVED_CYLINDERS
from repro.faults.plan import FaultPlan
from repro.sim import experiment
from repro.sim.experiment import (
    MIN_SKETCH_CAPACITY,
    Experiment,
    ExperimentConfig,
    build_rig,
    run_rig_day,
)
from repro.sim.multifs import (
    DiskSpec,
    FileSystemSpec,
    MultiDiskExperiment,
    MultiFSExperiment,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import SYSTEM_FS_PROFILE

SCHEDULE = [False, True, False, True]


class TestBuildRig:
    @pytest.mark.parametrize("disk", ["toshiba", "fujitsu", "modern"])
    def test_paper_defaults(self, disk):
        rig = build_rig(disk)
        assert rig.label.reserved_cylinders == PAPER_RESERVED_CYLINDERS[disk]
        assert rig.num_blocks == PAPER_REARRANGED_BLOCKS[disk]
        assert rig.controller.analyzer.capacity is None
        assert rig.driver.name == "disk0"

    def test_overrides(self):
        rig = build_rig(
            "toshiba",
            name="sys",
            reserved_cylinders=10,
            num_blocks=50,
            reserved_center=False,
            monitor_capacity=100,
        )
        assert rig.name == rig.driver.name == "sys"
        assert rig.label.reserved_cylinders == 10
        assert rig.label.reserved_start_cylinder == (
            rig.model.geometry.cylinders - 10
        )
        assert rig.num_blocks == 50
        assert rig.driver.request_monitor.capacity == 100

    def test_sketch_capacity_tracks_block_count(self):
        small = build_rig("toshiba", counter="spacesaving")
        assert small.controller.analyzer.capacity == MIN_SKETCH_CAPACITY
        big = build_rig("modern", counter="spacesaving")
        assert big.controller.analyzer.capacity == (
            4 * PAPER_REARRANGED_BLOCKS["modern"]
        )

    def test_empty_fault_plan_is_no_plan(self):
        assert build_rig("toshiba", faults=FaultPlan()).driver.faults is None

    def test_tables_are_reexported(self):
        assert experiment.PAPER_RESERVED_CYLINDERS is PAPER_RESERVED_CYLINDERS
        assert experiment.PAPER_REARRANGED_BLOCKS is PAPER_REARRANGED_BLOCKS

    def test_day_serves_every_rig(self):
        rigs = [build_rig("toshiba", name="a"), build_rig("fujitsu", name="b")]
        for rig in rigs:
            partition = rig.label.add_partition(
                f"{rig.name}-fs", rig.label.virtual_total_blocks
            )
            rig.generators.append(
                WorkloadGenerator(
                    SYSTEM_FS_PROFILE.scaled(hours=0.05),
                    partition,
                    rig.model.geometry.blocks_per_cylinder,
                )
            )
        day = run_rig_day(rigs, day=0, rearranged=False)
        assert set(day.metrics) == {"a", "b"}
        for name, (workload,) in day.workloads.items():
            assert day.metrics[name].all.requests == workload.num_requests
        assert day.end_ms > 0 and day.events > 0


def _digests(run_day):
    """Day digests of ``run_day(rearranged, rearrange_tomorrow)``, which
    returns the day's metrics, over :data:`SCHEDULE`."""
    return [
        metrics_digest(day_metrics_payload(run_day(on, tomorrow)))
        for on, tomorrow in zip(SCHEDULE, SCHEDULE[1:] + [False])
    ]


def _experiment(disk):
    config = ExperimentConfig(profile=SYSTEM_FS_PROFILE.scaled(hours=0.2), disk=disk)
    exp = Experiment(config)
    return _digests(lambda *day: exp.run_day(*day).metrics)


def _multidisk(disk):
    profile = SYSTEM_FS_PROFILE.scaled(hours=0.2)
    exp = MultiDiskExperiment([DiskSpec(disk, profile)])
    (name,) = exp.device_names
    return _digests(lambda *day: exp.run_day(*day).per_device[name])


def _multifs(disk):
    profile = SYSTEM_FS_PROFILE.scaled(hours=0.2)
    exp = MultiFSExperiment([FileSystemSpec(profile, 1.0)], disk=disk)
    return _digests(lambda *day: exp.run_day(*day).metrics)


class TestOneStackThreeShapes:
    def test_system_on_toshiba_agrees_everywhere(self):
        single = _experiment("toshiba")
        assert len(set(single)) == len(SCHEDULE)  # the days really differ
        assert _multidisk("toshiba") == single
        assert _multifs("toshiba") == single

    def test_system_on_fujitsu_single_and_multidisk_agree(self):
        assert _multidisk("fujitsu") == _experiment("fujitsu")
