"""The ``repro.api`` facade, the keyword-rename shims, and the
seek lookup table's equivalence to the piecewise models."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.api import (
    SsdConfig,
    SsdDayResult,
    make_config,
    replay_trace,
    run_bench,
    run_campaign,
    run_fleet,
    simulate_day,
)
from repro.bench.runner import run_scenario, run_suite
from repro.bench.scenarios import SCENARIOS
from repro import driver, obs
from repro.core.analyzer import ReferenceStreamAnalyzer
from repro.core.arranger import BlockArranger
from repro.core.placement import make_policy
from repro.disk.disk import Disk
from repro.disk.geometry import DiskGeometry
from repro.disk.label import DiskLabel, Partition
from repro.disk.models import (
    FUJITSU_M2266,
    MODERN_DISK,
    TOSHIBA_MK156F,
    disk_model,
)
from repro.driver.ioctl import IoctlInterface
from repro.fleet import FleetSpec, build_shard_tasks
from repro.fs.buffercache import BufferCache
from repro.fs.ufs import FileSystem
from repro.parallel import fan_out
from repro.sim import (
    ExperimentConfig,
    Simulation,
    engine,
    run_campaigns_parallel,
    run_onoff_campaign,
)
from repro.sim import experiment, multifs
from repro.sim.experiment import build_rig, run_rig_day
from repro.sim.multifs import (
    FileSystemSpec,
    MultiDiskExperiment,
    MultiFSExperiment,
)
from repro.traces.replay import replay_jobs
from repro.workload.profiles import SYSTEM_FS_PROFILE, profile_for_disk
from repro.workload.tenancy import TenancySpec


def fast_config(**overrides):
    return make_config("system", hours=0.05, **overrides)


class TestFacade:
    def test_package_exports_api(self):
        assert "api" in repro.__all__
        assert repro.api.simulate_day is simulate_day

    def test_simulate_day_off(self):
        day = simulate_day(hours=0.05)
        assert not day.metrics.rearranged
        assert day.workload_requests > 0

    def test_simulate_day_rearranged_runs_training_day_first(self):
        day = simulate_day(hours=0.05, policy="nightly")
        assert day.metrics.rearranged
        assert day.rearranged_blocks > 0

    def test_run_campaign_matches_legacy_onoff(self):
        config = fast_config()
        facade = run_campaign(config, days=4)
        legacy = run_onoff_campaign(config, days=4)
        assert [d.metrics.rearranged for d in facade.days] == [
            d.metrics.rearranged for d in legacy.days
        ]
        assert [repr(d.metrics) for d in facade.days] == [
            repr(d.metrics) for d in legacy.days
        ]

    def test_run_campaign_shorthand_builds_config(self):
        result = run_campaign(profile="system", hours=0.05, days=2)
        assert result.config.disk == "toshiba"
        assert len(result.days) == 2

    def test_run_campaign_explicit_schedule(self):
        result = run_campaign(fast_config(), schedule=[False, True, True])
        assert [d.metrics.rearranged for d in result.days] == [
            False,
            True,
            True,
        ]

    def test_make_config_rejects_unknown_profile(self):
        with pytest.raises(KeyError, match="unknown profile"):
            make_config("vax")

    def test_make_config_passes_overrides_through(self):
        config = make_config("users", "fujitsu", num_blocks=123)
        assert config.num_blocks == 123
        assert config.disk == "fujitsu"

    def test_make_config_ssd_returns_an_ssd_config(self):
        config = make_config("system", "ssd", hours=0.05, cmt_capacity=512)
        assert isinstance(config, SsdConfig)
        assert config.cmt_capacity == 512
        assert config.profile.day_hours == pytest.approx(0.05)

    def test_simulate_day_dispatches_on_config_type(self):
        day = simulate_day(fast_config(disk="ssd"), policy="off")
        assert isinstance(day, SsdDayResult)
        assert day.workload_requests > 0
        assert day.write_amplification >= 1.0

    def test_run_bench_returns_typed_reports(self):
        (report,) = run_bench(["fault_stress"], quick=True)
        assert report.scenario == "fault_stress"
        assert report.mode == "quick"
        assert report.metrics_digest.startswith("sha256:")
        assert report.events_per_sec > 0

    def test_run_bench_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_bench(["warp_drive"], quick=True)

    def test_run_bench_scalar_engine_keeps_the_digest(self, scalar_engine):
        def bench():
            (report,) = run_bench(
                ["standard_day"], quick=True, measure_memory=False
            )
            return report

        kernel = bench()
        with scalar_engine():
            scalar = bench()
        assert scalar.metrics_digest == kernel.metrics_digest
        assert scalar.events == kernel.events

    def test_run_fleet_scalar_engine_keeps_the_digest(self, scalar_engine):
        spec = FleetSpec(
            devices=2, disk="toshiba", days=2, hours=0.05,
            devices_per_shard=2, tenancy=TenancySpec(tenants=4),
        )
        kernel = run_fleet(spec, workers=1)
        with scalar_engine():
            scalar = run_fleet(spec, workers=1)
        assert scalar.digest() == kernel.digest()

    def test_run_fleet_is_the_fleet_runner(self):
        assert run_fleet is repro.fleet.run_fleet

    def test_shorthand_forwards_to_make_config(self):
        result = run_campaign(profile="users", disk="fujitsu", hours=0.05,
                              seed=5, days=2)
        assert result.config == make_config("users", "fujitsu", hours=0.05,
                                            seed=5)

    def test_config_and_shorthand_are_exclusive(self):
        with pytest.raises(TypeError, match="not both"):
            simulate_day(fast_config(), seed=5)

    def test_make_config_keeps_the_spec_defaults(self):
        assert make_config() == ExperimentConfig()
        assert make_config(disk="ssd") == SsdConfig()


def _add_device_with_name():
    from tests.test_multidevice import FixedLatencyDriver

    Simulation().add_device(FixedLatencyDriver(1.0), name="a")


REMOVED_NAMES = {
    "simulate_day-rearranged": (
        TypeError, lambda: simulate_day(hours=0.05, rearranged=True)
    ),
    "ExperimentConfig-num_rearranged": (
        TypeError,
        lambda: ExperimentConfig(profile=SYSTEM_FS_PROFILE, num_rearranged=64),
    ),
    "ExperimentConfig.num_rearranged": (
        AttributeError,
        lambda: ExperimentConfig(profile=SYSTEM_FS_PROFILE).num_rearranged,
    ),
    "config.resolved_num_rearranged": (
        AttributeError,
        lambda: ExperimentConfig(
            profile=SYSTEM_FS_PROFILE
        ).resolved_num_rearranged(),
    ),
    "disk_model-name": (TypeError, lambda: disk_model(name="toshiba")),
    "profile_for_disk-base": (
        TypeError,
        lambda: profile_for_disk(base=SYSTEM_FS_PROFILE, disk="fujitsu"),
    ),
    "add_device-name": (TypeError, _add_device_with_name),
    "repro.sim.multifs.DiskSpec": (AttributeError, lambda: multifs.DiskSpec),
    "config.resolved_analyzer_capacity": (
        AttributeError,
        lambda: ExperimentConfig(
            profile=SYSTEM_FS_PROFILE
        ).resolved_analyzer_capacity(),
    ),
    "engine.FAST_OVERRIDE": (AttributeError, lambda: engine.FAST_OVERRIDE),
    "repro.sim.run_block_count_sweep_parallel": (
        AttributeError, lambda: repro.sim.run_block_count_sweep_parallel
    ),
    "run_campaigns_parallel-seed_from": (
        TypeError, lambda: run_campaigns_parallel([], seed_from=77)
    ),
}

# Run knobs that no caller ever set to anything but their default: each
# is now the constant every caller used, and its keyword is gone.
_DEAD_KNOBS = {
    "ExperimentConfig": (
        lambda **kw: ExperimentConfig(profile=SYSTEM_FS_PROFILE, **kw),
        {"analyzer_heuristic": "lru", "counter_fading": 0.5,
         "analyzer_capacity": 64},
    ),
    "build_rig": (
        lambda **kw: build_rig(ExperimentConfig(), **kw),
        {"analyzer_heuristic": "lru", "counter_fading": 0.5,
         "analyzer_capacity": 64},
    ),
    "MultiFSExperiment": (
        lambda **kw: MultiFSExperiment(
            [FileSystemSpec(SYSTEM_FS_PROFILE, 1.0)], **kw
        ),
        {"reserved_cylinders": 10, "placement_policy": "serial",
         "queue_policy": "fcfs"},
    ),
    "FleetSpec": (
        lambda **kw: FleetSpec(**kw),
        {"analyzer_capacity": 64, "placement_policy": "serial",
         "queue_policy": "fcfs"},
    ),
    "SsdConfig": (
        lambda **kw: SsdConfig(profile=SYSTEM_FS_PROFILE, **kw),
        {"gc_low_blocks": 4, "gc_high_blocks": 12, "sketch_capacity": 512,
         "counter_fading": 0.5, "precondition_free_blocks": 20},
    ),
}
# Keywords that restated a spec's fields beside the spec: the spec is
# now the only way to set them.
_SPEC_SHORTHAND = {
    "api.run_fleet": (
        lambda **kw: run_fleet(FleetSpec(), **kw),
        {"devices": 2, "disk": "toshiba", "days": 2, "hours": 0.05,
         "devices_per_shard": 2, "tenants": 4, "tenant_skew": 1.0,
         "hot_set_overlap": 0.1, "seed": 5},
    ),
    "MultiFSExperiment": (
        lambda **kw: MultiFSExperiment(
            [FileSystemSpec(SYSTEM_FS_PROFILE, 1.0)], **kw
        ),
        {"disk": "fujitsu", "num_blocks": 9, "fast": False},
    ),
}
# The batch kernel is the engine's own choice: ``fast`` is gone from
# every layer above ``Simulation``.
_ENGINE_CHOICE = {
    owner: (build, {"fast": False})
    for owner, build in {
        "ExperimentConfig": lambda **kw: ExperimentConfig(**kw),
        "run_rig_day": lambda **kw: run_rig_day(
            [], day=0, rearranged=False, **kw
        ),
        "replay_jobs": lambda **kw: replay_jobs([], **kw),
        "api.replay_trace": lambda **kw: replay_trace(
            "tests/fixtures/sample.blkparse", **kw
        ),
        "build_shard_tasks": lambda **kw: build_shard_tasks(FleetSpec(), **kw),
        "api.run_fleet": lambda **kw: run_fleet(FleetSpec(), **kw),
        "run_suite": lambda **kw: run_suite([], **kw),
        "run_scenario": lambda **kw: run_scenario(
            SCENARIOS["standard_day"], **kw
        ),
        "api.run_bench": lambda **kw: run_bench(["standard_day"], **kw),
        "Scenario.run": lambda **kw: SCENARIOS["standard_day"].run(
            True, **kw
        ),
    }.items()
}
# One flash preset fits one disk's span: the reference disk is a constant.
_ENGINE_CHOICE["SsdConfig"] = (
    lambda **kw: SsdConfig(**kw), {"reference_disk": "fujitsu"}
)
# Knobs with one useful value: each pool worker runs one task at a
# time, and there is one flash preset.
_ONE_VALUED = {
    "fan_out": (lambda **kw: fan_out(abs, [1], **kw), {"chunk_size": 1}),
    "api.run_fleet": (
        lambda **kw: run_fleet(FleetSpec(), **kw), {"chunk_size": 1}
    ),
    "SsdConfig": (lambda **kw: SsdConfig(**kw), {"flash": "ssd"}),
}
# Component options that selected a code path no caller takes: the one
# value every caller used is now the code.
_TOSHIBA = TOSHIBA_MK156F.geometry
_ONE_VALUED_COMPONENT = {
    "Simulation": (lambda **kw: Simulation(**kw), {"fast": True}),
    "ExperimentConfig": (
        lambda **kw: ExperimentConfig(**kw), {"monitor_capacity": 65536}
    ),
    "RequestMonitor": (
        lambda **kw: driver.RequestMonitor(**kw), {"enabled": True}
    ),
    "ReferenceStreamAnalyzer": (
        lambda **kw: ReferenceStreamAnalyzer(**kw),
        {"count_reads": True, "count_writes": True},
    ),
    "WorkloadProfile": (
        lambda **kw: replace(SYSTEM_FS_PROFILE, **kw),
        {"use_cache_for_reads": False, "atime_updates": True},
    ),
    "FileSystem": (
        lambda **kw: FileSystem(Partition("fs0", 0, 4200), 21, **kw),
        {"read_only": False},
    ),
    "BlockArranger": (
        lambda **kw: BlockArranger(
            IoctlInterface(
                driver.AdaptiveDiskDriver(
                    disk=Disk(TOSHIBA_MK156F),
                    label=DiskLabel(_TOSHIBA, reserved_cylinders=48),
                )
            ),
            **kw,
        ),
        {"min_count": 1},
    ),
    "make_policy": (
        lambda **kw: make_policy("interleaved", **kw), {"gap_blocks": 1}
    ),
    "FtlDriver": (
        lambda **kw: driver.FtlDriver(
            driver.FlashGeometry(
                channels=1, blocks_per_channel=12, pages_per_block=4,
                page_bytes=32,
            ),
            logical_pages=16,
            gc_low_blocks=1,
            gc_high_blocks=3,
            **kw,
        ),
        {"faults": None},
    ),
    "DiskGeometry": (
        lambda **kw: DiskGeometry(
            cylinders=10, tracks_per_cylinder=2, sectors_per_track=34, **kw
        ),
        {"sector_bytes": 512},
    ),
}
REMOVED_NAMES["repro.driver.IoctlCommand"] = (
    AttributeError, lambda: driver.IoctlCommand
)
REMOVED_NAMES["IoctlInterface.call"] = (
    AttributeError, lambda: IoctlInterface.call
)
REMOVED_NAMES["IoctlInterface.get_geometry"] = (
    AttributeError, lambda: IoctlInterface.get_geometry
)
REMOVED_NAMES["FileSystem.populate_file"] = (
    AttributeError, lambda: FileSystem.populate_file
)
REMOVED_NAMES["repro.driver.flash_model"] = (
    AttributeError, lambda: driver.flash_model
)
REMOVED_NAMES["repro.driver.FLASH_MODELS"] = (
    AttributeError, lambda: driver.FLASH_MODELS
)
REMOVED_NAMES["repro.driver.RequestRecord"] = (
    AttributeError, lambda: driver.RequestRecord
)
REMOVED_NAMES["ReferenceStreamAnalyzer.observe_records"] = (
    AttributeError, lambda: ReferenceStreamAnalyzer.observe_records
)
REMOVED_NAMES["BufferCache.read"] = (AttributeError, lambda: BufferCache.read)
REMOVED_NAMES["BufferCache.read_with_eviction"] = (
    AttributeError, lambda: BufferCache.read_with_eviction
)
for _counter in ("hits", "misses", "write_backs", "hit_ratio"):
    REMOVED_NAMES[f"BufferCache.{_counter}"] = (
        AttributeError, lambda name=_counter: getattr(BufferCache(1), name)
    )
REMOVED_NAMES["repro.sim.experiment.resolve_workers"] = (
    AttributeError, lambda: experiment.resolve_workers
)
REMOVED_NAMES["repro.obs.MetricsTracer"] = (
    AttributeError, lambda: obs.MetricsTracer
)
REMOVED_NAMES["repro.obs.MulticastTracer"] = (
    AttributeError, lambda: obs.MulticastTracer
)
REMOVED_NAMES["MultiDiskExperiment.fast"] = (
    AttributeError,
    lambda: MultiDiskExperiment([ExperimentConfig()]).fast,
)
REMOVED_NAMES["MultiFSExperiment.fast"] = (
    AttributeError,
    lambda: MultiFSExperiment([FileSystemSpec(SYSTEM_FS_PROFILE, 1.0)]).fast,
)
# The nightly plan is plain data: ranked (block, count) pairs from the
# analyzer, (logical, reserved) moves from the placement policy.
REMOVED_NAMES["repro.HotBlock"] = (AttributeError, lambda: repro.HotBlock)
REMOVED_NAMES["repro.HotBlockList"] = (AttributeError, lambda: repro.HotBlockList)
REMOVED_NAMES["repro.core.Placement"] = (
    AttributeError, lambda: repro.core.Placement
)
REMOVED_NAMES["repro.core.RearrangementPlan"] = (
    AttributeError, lambda: repro.core.RearrangementPlan
)
REMOVED_NAMES["RearrangementController.hot_list"] = (
    AttributeError, lambda: repro.core.RearrangementController.hot_list
)
for _owner, (_build, _knobs) in [
    *_DEAD_KNOBS.items(),
    *_SPEC_SHORTHAND.items(),
    *_ENGINE_CHOICE.items(),
    *_ONE_VALUED.items(),
    *_ONE_VALUED_COMPONENT.items(),
]:
    for _name, _value in _knobs.items():
        REMOVED_NAMES[f"{_owner}-{_name}"] = (
            TypeError,
            lambda build=_build, name=_name, value=_value: build(
                **{name: value}
            ),
        )


class TestRemovedAliases:
    """Keywords and attributes renamed two releases ago are gone: a
    removed keyword raises ``TypeError`` and a removed attribute
    ``AttributeError``, the stock errors for unknown names."""

    @pytest.mark.parametrize("name", sorted(REMOVED_NAMES))
    def test_removed_name_raises(self, name):
        error, use = REMOVED_NAMES[name]
        with pytest.raises(error):
            use()

    def test_new_names_do_not_warn(self):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            config = ExperimentConfig(profile=SYSTEM_FS_PROFILE, num_blocks=5)
            disk_model(disk="toshiba")
            profile_for_disk(profile=SYSTEM_FS_PROFILE, disk="toshiba")
            config.resolved_num_blocks()
        assert record == []


class TestSeekLookupTable:
    """The precomputed per-disk seek table must equal the piecewise
    model bit-for-bit at every cylinder delta — this is what licenses
    replacing the model call on the access hot path."""

    @pytest.mark.parametrize("model", [TOSHIBA_MK156F, FUJITSU_M2266])
    def test_table_matches_piecewise_model_at_every_delta(self, model):
        disk = Disk(model)
        table = disk._seek_table
        assert len(table) == model.geometry.cylinders
        for delta in range(model.geometry.cylinders):
            assert table[delta] == model.seek.time(delta), delta

    @pytest.mark.parametrize("model", [TOSHIBA_MK156F, FUJITSU_M2266])
    def test_zero_delta_is_free(self, model):
        assert Disk(model)._seek_table[0] == 0.0

    def test_disks_of_one_model_share_an_immutable_table(self):
        first, second = Disk(MODERN_DISK), Disk(MODERN_DISK)
        assert first._seek_table is second._seek_table
        assert isinstance(first._seek_table, tuple)
        assert len(first._seek_table) == MODERN_DISK.geometry.cylinders
        with pytest.raises(TypeError):
            first._seek_table[1] = 0.0


class TestCdfSamplerEquivalence:
    """The workload generator samples file popularity through a cached
    CDF + searchsorted instead of Generator.choice.  Both must consume
    the identical uniforms and return the identical picks, or workload
    streams (and every digest) would silently change."""

    def test_scalar_draws_match_choice(self):
        probs = np.arange(1.0, 41.0)
        probs /= probs.sum()
        a, b = np.random.default_rng(42), np.random.default_rng(42)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        for _ in range(500):
            assert int(a.choice(len(probs), p=probs)) == int(
                cdf.searchsorted(b.random(), side="right")
            )
        assert a.bit_generator.state == b.bit_generator.state

    def test_vector_draws_match_choice(self):
        probs = np.arange(1.0, 41.0)
        probs /= probs.sum()
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        for size in (1, 5, 40):
            want = a.choice(len(probs), size=size, p=probs)
            got = cdf.searchsorted(b.random(size), side="right")
            assert np.array_equal(want, got)
        assert a.bit_generator.state == b.bit_generator.state


class TestReplayTrace:
    """repro.api.replay_trace — the one-call real-trace pipeline."""

    def test_end_to_end_with_rearrangement(self):
        from repro.api import replay_trace

        result = replay_trace(
            "tests/fixtures/sample.blkparse", rearrange=True
        )
        assert result.rearranged_blocks > 0
        assert result.completed > 0
        assert result.ingest is not None
        assert result.ingest.records == result.ingest.character.requests
        assert result.metrics.rearranged

    def test_bit_identical_across_runs(self):
        from repro.api import replay_trace
        from repro.bench.digest import day_metrics_payload, metrics_digest

        def digest():
            result = replay_trace(
                "tests/fixtures/sample.msr.csv",
                mapping="linear",
                loop="closed",
                disk="fujitsu",
                time_scale=0.5,
            )
            return metrics_digest(day_metrics_payload(result.metrics))

        assert digest() == digest()

    def test_ssd_backend_replay(self):
        from repro.api import replay_trace
        from repro.traces.replay import SsdReplayResult

        result = replay_trace(
            "tests/fixtures/sample.blkparse", disk="ssd", rearrange=True
        )
        assert isinstance(result, SsdReplayResult)
        assert result.separation
        assert result.completed > 0
        assert result.requests == result.completed
        assert result.mean_response_ms > 0

    def test_ssd_replay_deterministic(self):
        from repro.api import replay_trace

        def payload():
            return replay_trace(
                "tests/fixtures/sample.msr.csv", mapping="linear", disk="ssd"
            ).payload()

        assert payload() == payload()

    def test_exported_from_api(self):
        from repro import api

        assert "replay_trace" in api.__all__
        assert "TraceReplayResult" in api.__all__
