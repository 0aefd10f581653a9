"""The typed ``RearrangementPolicy`` API: resolution and validation,
digest payload stability, threading through configs / fleet specs / CLI,
and the removed ``rearranged=`` alias."""

import pickle

import pytest

from repro.bench.digest import day_metrics_payload
from repro.cli import build_parser
from repro.fleet.result import spec_payload
from repro.fleet.spec import FleetSpec
from repro.policy import (
    POLICY_SHORTHANDS,
    NightlyPolicy,
    NoRearrangement,
    OnlinePolicy,
    RearrangementPolicy,
    resolve_policy,
)
from repro.api import make_config, simulate_day
from repro.sim.experiment import ExperimentConfig
from repro.sim.multifs import MultiDiskExperiment
from repro.workload.profiles import SYSTEM_FS_PROFILE


class TestResolvePolicy:
    def test_none_is_the_paper_nightly_cycle(self):
        assert resolve_policy(None) == NightlyPolicy()

    def test_shorthands_cover_every_policy(self):
        assert resolve_policy("nightly") == NightlyPolicy()
        assert resolve_policy("online") == OnlinePolicy()
        assert resolve_policy("off") == NoRearrangement()
        assert resolve_policy("ONLINE") == OnlinePolicy()  # case-insensitive
        assert set(POLICY_SHORTHANDS) == {"nightly", "online", "off"}

    def test_instances_pass_through_unchanged(self):
        policy = OnlinePolicy(idle_ms=75.0)
        assert resolve_policy(policy) is policy

    def test_unknown_shorthand_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="nightly, off, online"):
            resolve_policy("hourly")

    def test_wrong_type_is_a_type_error(self):
        with pytest.raises(TypeError):
            resolve_policy(True)


class TestOnlinePolicyValidation:
    def test_defaults_are_valid(self):
        policy = OnlinePolicy()
        assert policy.idle_ms == 250.0
        assert policy.max_moves_per_window == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"idle_ms": -1.0},
            {"max_moves_per_window": 0},
            {"min_benefit_ratio": -0.1},
            {"duty_cycle": 0.0},
            {"duty_cycle": 1.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OnlinePolicy(**kwargs)

    def test_frozen_hashable_picklable(self):
        policy = OnlinePolicy(idle_ms=100.0)
        assert pickle.loads(pickle.dumps(policy)) == policy
        assert len({policy, OnlinePolicy(idle_ms=100.0)}) == 1
        with pytest.raises(AttributeError):
            policy.idle_ms = 5.0


class TestPayloads:
    def test_kinds_and_shapes_are_pinned(self):
        """These dicts feed bench/fleet digests: changing them without a
        behaviour change breaks digest stability across releases."""
        assert NightlyPolicy().payload() == {"kind": "nightly"}
        assert NoRearrangement().payload() == {"kind": "off"}
        assert OnlinePolicy().payload() == {
            "kind": "online",
            "idle_ms": 250.0,
            "max_moves_per_window": 4,
            "min_benefit_ratio": 1.0,
            "duty_cycle": 0.05,
        }


class TestConfigThreading:
    def test_experiment_config_resolves_its_policy(self):
        config = ExperimentConfig(
            profile=SYSTEM_FS_PROFILE, policy="online"
        )
        assert config.resolved_policy() == OnlinePolicy()
        assert ExperimentConfig(
            profile=SYSTEM_FS_PROFILE
        ).resolved_policy() == NightlyPolicy()

    def test_experiment_config_rejects_bad_policy_early(self):
        with pytest.raises(ValueError):
            ExperimentConfig(profile=SYSTEM_FS_PROFILE, policy="hourly")

    def test_make_config_passes_policy_through(self):
        config = make_config("system", hours=0.05, policy="off")
        assert config.resolved_policy() == NoRearrangement()

    def test_disk_spec_carries_a_policy(self):
        """A multi-disk device's config carries its policy to its rig."""
        config = ExperimentConfig(policy=OnlinePolicy(idle_ms=80.0))
        (rig,) = MultiDiskExperiment([config]).rigs.values()
        assert rig.controller.policy == OnlinePolicy(idle_ms=80.0)

    def test_fleet_spec_validates_policy_early(self):
        with pytest.raises(ValueError):
            FleetSpec(policy="hourly")


class TestSpecPayload:
    def test_default_policy_is_omitted_for_digest_stability(self):
        """Pre-policy-API fleet digests must stay bit-identical: the
        payload only mentions ``policy`` when one was actually set."""
        assert "policy" not in spec_payload(FleetSpec())

    def test_set_policy_enters_the_payload(self):
        payload = spec_payload(FleetSpec(policy=OnlinePolicy(idle_ms=80.0)))
        assert payload["policy"] == {
            "kind": "online",
            "idle_ms": 80.0,
            "max_moves_per_window": 4,
            "min_benefit_ratio": 1.0,
            "duty_cycle": 0.05,
        }
        assert spec_payload(FleetSpec(policy="off"))["policy"] == {
            "kind": "off"
        }


class TestCli:
    def test_policy_flags_parse_everywhere(self):
        for command in ("onoff", "policies", "sweep", "workload", "fleet"):
            args = build_parser().parse_args(
                [command, "--policy", "online", "--idle-ms", "100"]
            )
            assert args.policy == "online"
            assert args.idle_ms == 100.0

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["onoff", "--policy", "hourly"])

    def test_idle_ms_requires_online(self):
        from repro.cli import _policy_of

        args = build_parser().parse_args(["onoff", "--idle-ms", "100"])
        with pytest.raises(SystemExit, match="only applies"):
            _policy_of(args)

    def test_idle_ms_builds_the_policy(self):
        from repro.cli import _policy_of

        args = build_parser().parse_args(
            ["onoff", "--policy", "online", "--idle-ms", "100"]
        )
        assert _policy_of(args) == OnlinePolicy(idle_ms=100.0)
        with pytest.raises(SystemExit, match="bad --idle-ms"):
            _policy_of(
                build_parser().parse_args(
                    ["onoff", "--policy", "online", "--idle-ms", "-3"]
                )
            )


class TestRemovedRearranged:
    """The ``rearranged=`` boolean finished its one-release deprecation
    cycle and is removed; ``policy=`` replaces it."""

    def test_rearranged_kwarg_is_removed(self):
        with pytest.raises(TypeError, match="unexpected keyword.*'rearranged'"):
            simulate_day(hours=0.05, rearranged=True)

    def test_policy_spelling_still_matches_the_old_behavior(self):
        # ``rearranged=False`` used to mean the default single day.
        off = simulate_day(hours=0.05, policy="off")
        default = simulate_day(hours=0.05)
        assert day_metrics_payload(off.metrics) == day_metrics_payload(
            default.metrics
        )

    def test_policy_off_never_moves_blocks(self):
        day = simulate_day(hours=0.05, policy="off")
        assert not day.metrics.rearranged
        assert day.rearranged_blocks == 0
