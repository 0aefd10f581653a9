"""The fleet layer: tenancy, shard construction, parallel determinism."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.fleet import (
    FleetSpec,
    build_shard_tasks,
    render_fleet,
    run_fleet,
)
from repro.fleet.runner import _run_shard
from repro.sim.experiment import ExperimentConfig
from repro.sim.multifs import MultiDiskExperiment
from repro.workload import (
    PROFILES,
    SharedHotSet,
    TenancySpec,
    assign_tenants,
    device_load_shares,
    device_profiles,
    tenant_weights,
)

# Small enough for CI, big enough to exercise sharding: 4 devices in
# 2 shards, 2 short days.
TINY_TENANCY = TenancySpec(tenants=16, sessions_per_tenant_hour=40.0)
TINY_SPEC = FleetSpec(
    devices=4,
    disk="toshiba",
    devices_per_shard=2,
    days=2,
    hours=0.05,
    tenancy=TINY_TENANCY,
)


class TestTenancy:
    def test_weights_are_normalized_and_descending(self):
        weights = tenant_weights(TenancySpec(tenants=32, tenant_skew=1.3))
        assert weights.sum() == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_assignment_is_deterministic_and_total(self):
        spec = TenancySpec(tenants=41)
        first = assign_tenants(spec, 7)
        second = assign_tenants(spec, 7)
        assert first == second
        assigned = sorted(t for tenants in first for t in tenants)
        assert assigned == list(range(41))

    def test_assignment_balances_skewed_load(self):
        """Least-loaded greedy keeps the spread within one tenant: under
        any skew, max and min device shares differ by at most the
        heaviest tenant's weight (which may itself dominate)."""
        spec = TenancySpec(tenants=256, tenant_skew=1.4)
        weights = tenant_weights(spec)
        shares = device_load_shares(spec, 8)
        assert shares.sum() == pytest.approx(1.0)
        assert shares.max() - shares.min() <= weights[0] + 1e-9

    def test_device_profiles_carry_traffic_shares(self):
        spec = TenancySpec(tenants=32, sessions_per_tenant_hour=10.0)
        profiles = device_profiles(spec, 4)
        assert len(profiles) == 4
        fleet_rate = sum(p.read_sessions_per_hour for p in profiles)
        assert fleet_rate == pytest.approx(
            10.0 * 32, rel=0.1
        )  # floor padding may add a little
        tenants_hosted = sum(p.num_directories for p in profiles)
        assert tenants_hosted == 32

    def test_device_profiles_scale_hours(self):
        profiles = device_profiles(TINY_TENANCY, 2, hours=0.5)
        assert all(p.day_hours == 0.5 for p in profiles)

    def test_validation(self):
        with pytest.raises(ValueError):
            TenancySpec(tenants=0)
        with pytest.raises(ValueError):
            TenancySpec(hot_set_overlap=1.5)
        with pytest.raises(ValueError):
            TenancySpec(profile="nope")


class TestSharedHotSet:
    def _ranks(self, n, seed):
        return np.random.default_rng(seed).permutation(n)

    def test_apply_returns_a_permutation(self):
        hot = SharedHotSet(fraction=0.3, seed=5)
        rank = hot.apply(self._ranks(50, 1))
        assert sorted(rank) == list(range(50))

    def test_zero_fraction_is_identity(self):
        ranks = self._ranks(20, 2)
        assert SharedHotSet(fraction=0.0).apply(ranks) is ranks

    def test_full_overlap_makes_devices_agree(self):
        """fraction=1: every device ranks files identically, whatever
        its private draw said."""
        hot = SharedHotSet(fraction=1.0, seed=9)
        a = hot.apply(self._ranks(30, 1))
        b = hot.apply(self._ranks(30, 2))
        assert (a == b).all()

    def test_partial_overlap_shares_the_hot_ranks_only(self):
        hot = SharedHotSet(fraction=0.2, seed=9)
        n = 100
        a = hot.apply(self._ranks(n, 1))
        b = hot.apply(self._ranks(n, 2))
        hot_files_a = set(np.flatnonzero(a < 20))
        hot_files_b = set(np.flatnonzero(b < 20))
        assert hot_files_a == hot_files_b  # shared hot set
        assert (a != b).any()  # private tails differ

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            SharedHotSet(fraction=1.2)


class TestFleetSpec:
    def test_shard_layout(self):
        spec = FleetSpec(devices=10, devices_per_shard=4)
        assert spec.num_shards == 3
        assert list(spec.shard_devices(0)) == [0, 1, 2, 3]
        assert list(spec.shard_devices(2)) == [8, 9]
        with pytest.raises(ValueError):
            spec.shard_devices(3)

    def test_default_schedule_trains_first(self):
        assert FleetSpec(days=3).resolved_schedule() == (False, True, True)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(devices=0)
        with pytest.raises(ValueError):
            FleetSpec(disk="floppy")
        with pytest.raises(ValueError):
            FleetSpec(schedule=(True, False))  # day 0 cannot be on
        with pytest.raises(ValueError):
            FleetSpec(days=1)
        with pytest.raises(ValueError):
            FleetSpec(counter="bogus")


class TestShardTasks:
    def test_deterministic_expansion(self):
        first = build_shard_tasks(TINY_SPEC)
        second = build_shard_tasks(TINY_SPEC)
        assert first == second
        assert len(first) == TINY_SPEC.num_shards

    def test_every_device_gets_a_distinct_seed(self):
        tasks = build_shard_tasks(TINY_SPEC)
        seeds = [config.seed for task in tasks for config in task.configs]
        assert len(set(seeds)) == TINY_SPEC.devices

    def test_shared_hot_set_is_fleet_wide(self):
        tasks = build_shard_tasks(TINY_SPEC)
        hots = {config.shared_hot for task in tasks for config in task.configs}
        assert len(hots) == 1
        (hot,) = hots
        assert hot is not None
        assert hot.fraction == TINY_TENANCY.hot_set_overlap

    def test_no_shared_hot_without_overlap(self):
        spec = FleetSpec(
            devices=2,
            devices_per_shard=2,
            tenancy=TenancySpec(tenants=4, hot_set_overlap=0.0),
        )
        (task,) = build_shard_tasks(spec)
        assert all(c.shared_hot is None for c in task.configs)

    def test_fleet_seed_changes_every_device_seed(self):
        other = build_shard_tasks(
            FleetSpec(
                devices=4,
                disk="toshiba",
                devices_per_shard=2,
                days=2,
                hours=0.05,
                tenancy=TINY_TENANCY,
                seed=2024,
            )
        )
        base = build_shard_tasks(TINY_SPEC)
        base_seeds = {c.seed for t in base for c in t.configs}
        other_seeds = {c.seed for t in other for c in t.configs}
        assert not base_seeds & other_seeds


class TestRunFleet:
    def test_workers_1_and_2_bit_identical(self):
        """The PR's acceptance criterion: digests do not depend on the
        worker count."""
        serial = run_fleet(TINY_SPEC, workers=1)
        parallel = run_fleet(TINY_SPEC, workers=2)
        assert serial.digest() == parallel.digest()
        assert serial.payload() == parallel.payload()
        assert serial.workers == 1
        assert parallel.workers == 2

    def test_aggregation_invariants(self):
        """Per-device totals sum to shard totals sum to fleet totals,
        and the merged histograms carry every absorbed sample."""
        result = run_fleet(TINY_SPEC, workers=1)
        assert result.devices == TINY_SPEC.devices
        assert result.total_requests == sum(
            count
            for shard in result.shards
            for count in shard.device_requests.values()
        )
        merged = result.service_on.count + result.service_off.count
        assert merged == sum(
            shard.service_on.count + shard.service_off.count
            for shard in result.shards
        )
        assert result.events == sum(shard.events for shard in result.shards)
        for shard in result.shards:
            assert shard.devices == 2
            assert shard.skew >= 1.0

    def test_shard_merge_is_order_independent(self):
        result = run_fleet(TINY_SPEC, workers=1)
        reversed_result = type(result)(
            spec=result.spec, shards=list(reversed(result.shards))
        )
        assert (
            reversed_result.service_on.counts == result.service_on.counts
        )
        for q in (0.5, 0.95, 0.99):
            assert reversed_result.service_percentile_ms(
                q
            ) == result.service_percentile_ms(q)

    def test_percentiles_are_ordered(self):
        result = run_fleet(TINY_SPEC, workers=1)
        assert 0 < result.p50_ms <= result.p95_ms <= result.p99_ms

    def test_on_shard_hook_streams_in_order(self):
        seen = []
        run_fleet(TINY_SPEC, workers=1, on_shard=lambda i, r: seen.append(i))
        assert seen == [0, 1]

    def test_overlap_changes_results(self):
        """The shared-hot-set knob is live: turning it off moves the
        digest (devices draw fully private popularity)."""
        no_overlap = FleetSpec(
            devices=4,
            disk="toshiba",
            devices_per_shard=2,
            days=2,
            hours=0.05,
            tenancy=TenancySpec(
                tenants=16,
                sessions_per_tenant_hour=40.0,
                hot_set_overlap=0.0,
            ),
        )
        assert (
            run_fleet(no_overlap, workers=1).digest()
            != run_fleet(TINY_SPEC, workers=1).digest()
        )

    def test_render_mentions_the_essentials(self):
        text = render_fleet(run_fleet(TINY_SPEC, workers=1))
        for token in ("p50", "p95", "p99", "skew", "digest", "delta"):
            assert token in text

    def test_worker_failure_names_the_shard(self):
        from repro.parallel import WorkerTaskError, fan_out
        from repro.fleet.runner import _shard_label

        bad_task = build_shard_tasks(TINY_SPEC)[0]
        broken = type(bad_task)(
            index=bad_task.index,
            seed=bad_task.seed,
            configs=tuple(
                replace(config, disk="floppy")  # invalid: building fails
                for config in bad_task.configs
            ),
            schedule=bad_task.schedule,
        )
        with pytest.raises(WorkerTaskError, match="fleet shard 0") as info:
            fan_out(
                _run_shard,
                [broken],
                workers=1,
                label=_shard_label,
                what="fleet shard",
            )
        assert f"seed {bad_task.seed}" in str(info.value)


class TestMultiDiskAggregation:
    """MultiDiskDayResult invariants the fleet aggregation rests on."""

    def test_per_device_totals_sum_to_fleet_totals(self):
        profile = PROFILES["system"].scaled(hours=0.05)
        configs = [
            ExperimentConfig(profile=profile, name=f"d{i}", seed=7 + i)
            for i in range(3)
        ]
        result = MultiDiskExperiment(configs).run_day(
            rearranged=False, rearrange_tomorrow=False
        )
        assert set(result.per_device) == {"d0", "d1", "d2"}
        assert result.total_requests == sum(
            result.per_device_requests.values()
        )
        served = sum(
            m.all.service_histogram.count
            for m in result.per_device.values()
        )
        assert served == sum(m.all.requests for m in result.per_device.values())


class TestFleetCli:
    def test_fleet_subcommand(self, capsys):
        code = main(
            [
                "fleet",
                "--devices", "2",
                "--disk", "toshiba",
                "--devices-per-shard", "2",
                "--days", "2",
                "--hours", "0.05",
                "--tenants", "8",
                "--workers", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "digest: sha256:" in out
        assert "p95" in out

    def test_fleet_json_payload(self, capsys):
        import json

        code = main(
            [
                "fleet",
                "--devices", "2",
                "--disk", "toshiba",
                "--devices-per-shard", "2",
                "--days", "2",
                "--hours", "0.05",
                "--tenants", "8",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["devices"] == 2
        assert len(payload["shards"]) == 1

    def test_bad_spec_exits_cleanly(self):
        with pytest.raises(SystemExit, match="bad fleet spec"):
            main(["fleet", "--devices", "0"])
