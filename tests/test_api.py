"""The ``repro.api`` facade, the keyword-rename shims, and the
seek lookup table's equivalence to the piecewise models."""

import warnings

import numpy as np
import pytest

import repro
from repro.api import (
    SsdConfig,
    SsdDayResult,
    make_config,
    run_bench,
    run_campaign,
    simulate_day,
)
from repro.disk.disk import Disk
from repro.disk.models import (
    FUJITSU_M2266,
    MODERN_DISK,
    TOSHIBA_MK156F,
    disk_model,
)
from repro.fleet import FleetSpec
from repro.sim import ExperimentConfig, Simulation, engine, run_onoff_campaign
from repro.sim.experiment import build_rig
from repro.sim.multifs import DiskSpec, FileSystemSpec, MultiFSExperiment
from repro.workload.profiles import SYSTEM_FS_PROFILE, profile_for_disk


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
    "DiskSpec-num_rearranged": (
        TypeError,
        lambda: DiskSpec(
            disk="toshiba", profile=SYSTEM_FS_PROFILE, num_rearranged=7
        ),
    ),
    "DiskSpec.num_rearranged": (
        AttributeError,
        lambda: DiskSpec(disk="toshiba", profile=SYSTEM_FS_PROFILE).num_rearranged,
    ),
    "config.resolved_analyzer_capacity": (
        AttributeError,
        lambda: ExperimentConfig(
            profile=SYSTEM_FS_PROFILE
        ).resolved_analyzer_capacity(),
    ),
    "engine.FAST_OVERRIDE": (AttributeError, lambda: engine.FAST_OVERRIDE),
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
        lambda **kw: build_rig("toshiba", **kw),
        {"analyzer_heuristic": "lru", "counter_fading": 0.5,
         "analyzer_capacity": 64},
    ),
    "DiskSpec": (
        lambda **kw: DiskSpec(disk="toshiba", profile=SYSTEM_FS_PROFILE, **kw),
        {"reserved_cylinders": 10, "placement_policy": "serial",
         "queue_policy": "fcfs", "analyzer_capacity": 64},
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
for _owner, (_build, _knobs) in _DEAD_KNOBS.items():
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
        assert result.payload()["flash"] == "ssd"

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
