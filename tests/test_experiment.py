"""Tests for repro.sim.experiment — campaigns (fast, scaled-down days)."""

import pytest

from repro.sim.experiment import (
    ExperimentConfig,
    Experiment,
    alternating_schedule,
    run_block_count_sweep,
    run_campaign,
    run_onoff_campaign,
    run_policy_campaign,
)
from repro.workload.profiles import SYSTEM_FS_PROFILE, USERS_FS_PROFILE


def fast_config(**kwargs):
    defaults = dict(
        profile=SYSTEM_FS_PROFILE.scaled(hours=0.5), disk="toshiba", seed=3
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestSchedule:
    def test_alternating_starts_off(self):
        assert alternating_schedule(4) == [False, True, False, True]

    def test_alternating_custom_start(self):
        assert alternating_schedule(4, first_on_day=2) == [
            False,
            False,
            True,
            False,
        ]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            alternating_schedule(1)

    def test_day_zero_cannot_be_on(self):
        with pytest.raises(ValueError):
            run_campaign(fast_config(), [True, False])


class TestConfig:
    def test_paper_defaults(self):
        config = fast_config()
        assert config.resolved_reserved_cylinders() == 48
        assert config.resolved_num_blocks() == 1018
        fuji = fast_config(disk="fujitsu")
        assert fuji.resolved_reserved_cylinders() == 80
        assert fuji.resolved_num_blocks() == 3500

    def test_overrides(self):
        config = fast_config(reserved_cylinders=10, num_blocks=50)
        assert config.resolved_reserved_cylinders() == 10
        assert config.resolved_num_blocks() == 50


class TestCampaign:
    def test_onoff_campaign_structure(self):
        result = run_onoff_campaign(fast_config(), days=4)
        assert [d.metrics.rearranged for d in result.days] == [
            False,
            True,
            False,
            True,
        ]
        assert len(result.on_days()) == 2
        assert len(result.off_days()) == 2
        assert all(d.workload_requests > 0 for d in result.days)

    def test_on_days_have_blocks_in_reserved_area(self):
        result = run_onoff_campaign(fast_config(), days=4)
        for day in result.days:
            if day.metrics.rearranged:
                assert day.rearranged_blocks > 0
            else:
                assert day.rearranged_blocks == 0

    def test_rearrangement_reduces_seek_time(self):
        """The headline result survives even a half-hour day."""
        result = run_onoff_campaign(fast_config(), days=4)
        off = [d.metrics.all.mean_seek_time_ms for d in result.off_days()]
        on = [d.metrics.all.mean_seek_time_ms for d in result.on_days()]
        assert sum(on) / len(on) < sum(off) / len(off)

    def test_deterministic_given_seed(self):
        a = run_onoff_campaign(fast_config(), days=2)
        b = run_onoff_campaign(fast_config(), days=2)
        assert (
            a.days[0].metrics.all.mean_service_ms
            == b.days[0].metrics.all.mean_service_ms
        )

    def test_metrics_accessor(self):
        result = run_onoff_campaign(fast_config(), days=2)
        assert [m.day for m in result.metrics()] == [0, 1]


class TestPolicyCampaign:
    def test_policy_override_applied(self):
        result = run_policy_campaign(fast_config(), "serial", days=2)
        assert result.config.placement_policy == "serial"
        assert [d.metrics.rearranged for d in result.days] == [False, True]


class TestSweep:
    def test_sweep_shapes(self):
        points = run_block_count_sweep(fast_config(), [5, 20])
        assert [n for n, __ in points] == [5, 20]
        assert points[0][1].rearranged_blocks <= 5
        assert points[1][1].rearranged_blocks <= 20
        assert points[1][1].rearranged_blocks > points[0][1].rearranged_blocks

    def test_empty_sweep(self):
        assert run_block_count_sweep(fast_config(), []) == []


class TestPartitionBands:
    def test_full_band_single_partition(self):
        experiment = Experiment(fast_config())
        assert [p.name for p in experiment.label.partitions] == ["fs0"]

    def test_center_band_for_users_profile(self):
        config = ExperimentConfig(
            profile=USERS_FS_PROFILE.scaled(hours=0.5), disk="toshiba", seed=3
        )
        experiment = Experiment(config)
        names = [p.name for p in experiment.label.partitions]
        assert "home" in names
        home = experiment.label.partition("home")
        per_cyl = experiment.label.geometry.blocks_per_cylinder
        start_cyl = home.start_block // per_cyl
        # The home partition starts just below the reserved boundary.
        assert start_cyl < experiment.label.reserved_start_cylinder

    def test_reserved_at_edge_option(self):
        experiment = Experiment(fast_config(reserved_center=False))
        label = experiment.label
        assert label.reserved_end_cylinder == label.geometry.cylinders

    @pytest.mark.parametrize("disk", ["toshiba", "fujitsu"])
    @pytest.mark.parametrize("centred", [True, False], ids=["centre", "edge"])
    def test_users_runs_beside_either_placement(self, disk, centred):
        """The home partition is anchored where a centred reserved area
        starts, so an edge area leaves it the same size and the *users*
        file system still fits."""
        config = ExperimentConfig(
            profile=USERS_FS_PROFILE.scaled(hours=0.1),
            disk=disk,
            reserved_center=centred,
        )
        experiment = Experiment(config)
        label = experiment.label
        centred_start = (label.geometry.cylinders - label.reserved_cylinders) // 2
        home = label.partition("home")
        assert home.start_block == label.geometry.blocks_per_cylinder * (
            centred_start - 2 * experiment.generator.profile.cylinders_per_group
        )
        assert home.end_block == label.virtual_total_blocks
        off = experiment.run_day(rearranged=False, rearrange_tomorrow=True)
        on = experiment.run_day(rearranged=True, rearrange_tomorrow=False)
        assert off.metrics.all.requests > 0
        assert on.rearranged_blocks > 0


class TestQueuePolicyOption:
    def test_fcfs_campaign_runs(self):
        result = run_campaign(
            fast_config(queue_policy="fcfs"), [False, True]
        )
        assert result.days[0].metrics.all.requests > 0
