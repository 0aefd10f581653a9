"""The shared disk-rig builder and day function behind every experiment.

``build_rig`` turns one :class:`ExperimentConfig` into a disk stack and
is the one place the paper's per-disk defaults are filled in, and
``run_rig_day`` is the one day loop.  Where their inputs agree,
``Experiment``, ``MultiDiskExperiment`` and ``MultiFSExperiment`` must
therefore produce the same day, bit for bit.
"""

from dataclasses import replace

import pytest

from repro.bench.digest import day_metrics_payload, metrics_digest
from repro.disk.models import (
    FUJITSU_M2266,
    PAPER_REARRANGED_BLOCKS,
    PAPER_RESERVED_CYLINDERS,
)
from repro.driver.request import Op
from repro.faults.plan import FaultPlan
from repro.policy import OnlinePolicy
from repro.sim import experiment
from repro.sim.experiment import (
    MIN_SKETCH_CAPACITY,
    Experiment,
    ExperimentConfig,
    build_rig,
    run_rig_day,
)
from repro.sim.jobs import batch_job
from repro.sim.multifs import (
    FileSystemSpec,
    MultiDiskExperiment,
    MultiFSExperiment,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import (
    SYSTEM_FS_PROFILE,
    USERS_FS_PROFILE,
    profile_for_disk,
)
from repro.workload.tenancy import SharedHotSet

SCHEDULE = [False, True, False, True]


class TestBuildRig:
    @pytest.mark.parametrize("disk", ["toshiba", "fujitsu", "modern"])
    def test_paper_defaults(self, disk):
        rig = build_rig(ExperimentConfig(disk=disk))
        assert rig.label.reserved_cylinders == PAPER_RESERVED_CYLINDERS[disk]
        assert rig.num_blocks == PAPER_REARRANGED_BLOCKS[disk]
        assert rig.controller.analyzer.capacity is None
        assert rig.driver.name == "disk0"
        assert rig.driver.request_monitor.capacity == 65536
        assert rig.generators == []  # build_rig reads no workload

    def test_overrides(self):
        rig = build_rig(
            ExperimentConfig(
                name="sys",
                reserved_cylinders=10,
                num_blocks=50,
                reserved_center=False,
            )
        )
        assert rig.name == rig.driver.name == "sys"
        assert rig.label.reserved_cylinders == 10
        assert rig.label.reserved_start_cylinder == (
            rig.model.geometry.cylinders - 10
        )
        assert rig.num_blocks == 50

    def test_sketch_capacity_tracks_block_count(self):
        small = build_rig(ExperimentConfig(counter="spacesaving"))
        assert small.controller.analyzer.capacity == MIN_SKETCH_CAPACITY
        big = build_rig(ExperimentConfig(disk="modern", counter="spacesaving"))
        assert big.controller.analyzer.capacity == (
            4 * PAPER_REARRANGED_BLOCKS["modern"]
        )

    def test_empty_fault_plan_is_no_plan(self):
        rig = build_rig(ExperimentConfig(faults=FaultPlan()))
        assert rig.driver.faults is None

    def test_tables_are_reexported(self):
        assert experiment.PAPER_RESERVED_CYLINDERS is PAPER_RESERVED_CYLINDERS
        assert experiment.PAPER_REARRANGED_BLOCKS is PAPER_REARRANGED_BLOCKS

    def test_day_serves_every_rig(self):
        rigs = [
            build_rig(ExperimentConfig(name="a")),
            build_rig(ExperimentConfig(disk="fujitsu", name="b")),
        ]
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


# Every device field of ExperimentConfig set away from its default.
REACH = ExperimentConfig(
    profile=SYSTEM_FS_PROFILE.scaled(hours=0.05),
    disk="fujitsu",
    name="home",
    reserved_cylinders=30,
    reserved_center=False,
    num_blocks=77,
    placement_policy="serial",
    queue_policy="fcfs",
    counter="spacesaving",
    seed=7,
    faults=FaultPlan(seed=3, transient_rate=0.01, degrade_threshold=0.5),
    policy=OnlinePolicy(idle_ms=80.0),
    shared_hot=SharedHotSet(fraction=0.25, seed=5),
)


def _experiment_rig(config):
    return Experiment(config).rig


def _multidisk_rig(config):
    (rig,) = MultiDiskExperiment([config]).rigs.values()
    return rig


def _multifs_rig(config):
    return MultiFSExperiment([FileSystemSpec(config.profile, 1.0)], config).rig


class TestEveryFieldReachesTheRig:
    """One config builds the same stack through every entry point."""

    @pytest.mark.parametrize(
        "build",
        [_experiment_rig, _multidisk_rig, _multifs_rig],
        ids=["single", "multi", "multifs"],
    )
    def test_device_fields(self, build):
        rig = build(REACH)
        geometry = rig.model.geometry
        assert rig.model is FUJITSU_M2266
        assert rig.name == rig.driver.name == "home"
        assert rig.label.reserved_cylinders == 30
        assert rig.label.reserved_start_cylinder == geometry.cylinders - 30
        assert rig.num_blocks == 77
        assert rig.controller.arranger.policy.name == "serial"
        assert rig.driver.queue.name == "fcfs"
        analyzer = rig.controller.analyzer
        assert analyzer.counter == "spacesaving"
        assert analyzer.capacity == MIN_SKETCH_CAPACITY
        assert rig.driver.request_monitor.capacity == 65536
        assert rig.driver.faults is not None
        assert rig.controller.max_error_rate == 0.5
        assert rig.controller.policy == OnlinePolicy(idle_ms=80.0)

    @pytest.mark.parametrize(
        "build", [_experiment_rig, _multidisk_rig], ids=["single", "multi"]
    )
    def test_workload_fields(self, build):
        rig = build(REACH)
        (generator,) = rig.generators
        assert generator.profile == profile_for_disk(REACH.profile, "fujitsu")
        assert generator.shared_hot is REACH.shared_hot
        assert [p.name for p in rig.label.partitions] == ["fs0"]

    def test_both_entry_points_build_the_same_workload(self):
        # The users band: a home partition surrounding the reserved area.
        users = replace(
            REACH,
            profile=USERS_FS_PROFILE.scaled(hours=0.05),
            reserved_center=True,
        )
        single, multi = _experiment_rig(users), _multidisk_rig(users)
        other = _experiment_rig(replace(users, seed=8))
        assert [p.name for p in multi.label.partitions] == ["root", "home"]
        assert multi.generators[0].fs.partition is multi.label.partitions[-1]
        state = [
            rig.generators[0].rng.bit_generator.state
            for rig in (single, multi, other)
        ]
        assert state[0] == state[1] != state[2]
        assert single.label.partitions == multi.label.partitions

    def test_multifs_rig_has_the_full_request_table(self):
        exp = MultiFSExperiment([FileSystemSpec(SYSTEM_FS_PROFILE, 1.0)])
        assert exp.driver.request_monitor.capacity == 65536

    def test_replay_rig_has_the_full_request_table(self, monkeypatch):
        from repro.traces import replay

        built = []

        def recording(config):
            built.append(build_rig(config))
            return built[-1]

        monkeypatch.setattr(replay, "build_rig", recording)
        jobs = [batch_job(0.0, [1, 2, 3], Op.READ)]
        replay.replay_jobs(jobs, disk="fujitsu", queue="fcfs", num_blocks=9)
        (rig,) = built
        assert rig.driver.request_monitor.capacity == 65536
        assert rig.model is FUJITSU_M2266
        assert rig.driver.queue.name == "fcfs"
        assert rig.num_blocks == 9


def _digests(run_day, schedule=SCHEDULE):
    """Day digests of ``run_day(rearranged, rearrange_tomorrow)``, which
    returns the day's metrics, over ``schedule``."""
    return [
        metrics_digest(day_metrics_payload(run_day(on, tomorrow)))
        for on, tomorrow in zip(schedule, schedule[1:] + [False])
    ]


def _experiment(disk, profile=SYSTEM_FS_PROFILE, schedule=SCHEDULE):
    config = ExperimentConfig(profile=profile.scaled(hours=0.2), disk=disk)
    exp = Experiment(config)
    return _digests(lambda *day: exp.run_day(*day).metrics, schedule)


def _multidisk(disk, profile=SYSTEM_FS_PROFILE, schedule=SCHEDULE):
    config = ExperimentConfig(profile=profile.scaled(hours=0.2), disk=disk)
    exp = MultiDiskExperiment([config])
    (name,) = exp.device_names
    return _digests(
        lambda *day: exp.run_day(*day).per_device[name], schedule
    )


def _multifs(disk):
    profile = SYSTEM_FS_PROFILE.scaled(hours=0.2)
    exp = MultiFSExperiment(
        [FileSystemSpec(profile, 1.0)], ExperimentConfig(disk=disk)
    )
    return _digests(lambda *day: exp.run_day(*day).metrics)


class TestOneStackThreeShapes:
    def test_system_on_toshiba_agrees_everywhere(self):
        single = _experiment("toshiba")
        assert len(set(single)) == len(SCHEDULE)  # the days really differ
        assert _multidisk("toshiba") == single
        assert _multifs("toshiba") == single

    def test_system_on_fujitsu_single_and_multidisk_agree(self):
        assert _multidisk("fujitsu") == _experiment("fujitsu")

    def test_users_on_fujitsu_single_and_multidisk_agree(self):
        """The *users* profile's centre band (root + home partitions)
        is laid out the same way on one disk and in a multi-disk run."""
        off_on = [False, True]
        single = _experiment("fujitsu", USERS_FS_PROFILE, off_on)
        assert len(set(single)) == 2
        assert _multidisk("fujitsu", USERS_FS_PROFILE, off_on) == single
