"""Tests for repro.sim.multifs — several file systems, one reserved area."""

import dataclasses

import pytest

from repro.sim.multifs import FileSystemSpec, MultiFSExperiment
from repro.workload.profiles import SYSTEM_FS_PROFILE, USERS_FS_PROFILE

SMALL_USERS = dataclasses.replace(
    USERS_FS_PROFILE.scaled(hours=0.5),
    num_directories=8,
    files_per_directory=40,
    mean_file_blocks=4.0,
)


def make_experiment():
    specs = [
        FileSystemSpec(SYSTEM_FS_PROFILE.scaled(hours=0.5), fraction=0.6, seed=3),
        FileSystemSpec(SMALL_USERS, fraction=0.4, seed=4),
    ]
    return MultiFSExperiment(specs)


class TestConstruction:
    def test_partitions_cover_their_fractions(self):
        experiment = make_experiment()
        total = experiment.label.virtual_total_blocks
        sizes = [p.num_blocks for p in experiment.partitions]
        assert sizes[0] == int(total * 0.6)
        assert sizes[1] == int(total * 0.4)
        assert experiment.partitions[0].end_block <= experiment.partitions[1].start_block + sizes[1]

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            FileSystemSpec(SYSTEM_FS_PROFILE, fraction=0.0)
        with pytest.raises(ValueError):
            MultiFSExperiment(
                [
                    FileSystemSpec(SYSTEM_FS_PROFILE, fraction=0.7),
                    FileSystemSpec(USERS_FS_PROFILE, fraction=0.5),
                ]
            )
        with pytest.raises(ValueError):
            MultiFSExperiment([])


class TestSharedReservedArea:
    def test_blocks_from_both_file_systems_get_rearranged(self):
        """Section 4.1.1: one reserved region serves every file system on
        the physical device."""
        experiment = make_experiment()
        experiment.run_day(rearranged=False, rearrange_tomorrow=True)
        result = experiment.run_day(rearranged=True, rearrange_tomorrow=False)
        assert result.rearranged_blocks > 0
        assert len(result.rearranged_per_fs) == 2  # both FSes represented
        assert sum(result.rearranged_per_fs.values()) == result.rearranged_blocks

    def test_rearrangement_still_reduces_seeks(self):
        experiment = make_experiment()
        off = experiment.run_day(rearranged=False, rearrange_tomorrow=True)
        on = experiment.run_day(rearranged=True, rearrange_tomorrow=False)
        assert (
            on.metrics.all.mean_seek_time_ms
            < off.metrics.all.mean_seek_time_ms
        )
        assert (
            on.metrics.all.zero_seek_fraction
            > off.metrics.all.zero_seek_fraction
        )

    def test_per_fs_request_accounting(self):
        experiment = make_experiment()
        result = experiment.run_day(rearranged=False, rearrange_tomorrow=False)
        assert len(result.per_fs_requests) == 2
        assert all(count > 0 for count in result.per_fs_requests.values())
        assert (
            sum(result.per_fs_requests.values())
            == result.metrics.all.requests
        )

    def test_hot_list_competition_favors_hotter_fs(self):
        """The busier, more skewed system FS claims the hottest ranks of
        the shared reserved area (the flatter users FS may still fill more
        of the tail slots)."""
        experiment = make_experiment()
        experiment.run_day(rearranged=False, rearrange_tomorrow=True)
        moves = experiment.controller.last_plan
        assert moves is not None
        system_partition = experiment.partitions[0]
        # Organ-pipe moves come in hot-list order: the first ten are the
        # ten hottest blocks.
        system_hits = sum(
            1 for block, __ in moves[:10] if system_partition.contains(block)
        )
        assert system_hits >= 7
