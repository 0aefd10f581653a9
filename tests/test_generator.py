"""Tests for repro.workload.generator — the synthetic workload."""

import dataclasses
import pickle

import pytest

from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.request import Op
from repro.workload import generator as generator_module
from repro.workload.distributions import top_k_share
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import SYSTEM_FS_PROFILE, USERS_FS_PROFILE


def make_generator(profile=None, seed=42, reserved=48):
    profile = profile or SYSTEM_FS_PROFILE.scaled(hours=1.0)
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=reserved)
    partition = label.add_partition("fs0", label.virtual_total_blocks)
    return WorkloadGenerator(
        profile=profile,
        partition=partition,
        blocks_per_cylinder=TOSHIBA_MK156F.geometry.blocks_per_cylinder,
        seed=seed,
    )


class TestDeterminism:
    def test_same_seed_same_workload(self):
        a = make_generator(seed=7).generate_day()
        b = make_generator(seed=7).generate_day()
        assert a.all_counts == b.all_counts
        assert a.num_requests == b.num_requests

    def test_different_seeds_differ(self):
        a = make_generator(seed=7).generate_day()
        b = make_generator(seed=8).generate_day()
        assert a.all_counts != b.all_counts

    def test_days_advance(self):
        generator = make_generator()
        first = generator.generate_day()
        second = generator.generate_day()
        assert (first.day, second.day) == (0, 1)


class TestPickling:
    def test_a_slice_survives_pickling_with_its_steps_shared(self):
        """A slice crosses the day-ahead worker's pipe as columns; it must
        come back the same, job by job, with one object per shared step."""
        generator = make_generator(USERS_FS_PROFILE.scaled(hours=0.5))
        (piece,) = generator.day_slices()  # half an hour: one slice
        copy = pickle.loads(pickle.dumps(piece, pickle.HIGHEST_PROTOCOL))

        def rows(piece):
            return [
                (j.start_ms, j.steps, j.sequential, j.name, j.job_id)
                for j in piece.jobs
            ]

        assert (copy.day, copy.next_start_ms) == (piece.day, None)
        assert rows(copy) == rows(piece)
        assert (copy.read_counts, copy.all_counts) == (
            piece.read_counts,
            piece.all_counts,
        )
        steps = {id(step) for job in piece.jobs for step in job.steps}
        copied = {id(step) for job in copy.jobs for step in job.steps}
        requests = sum(len(job.steps) for job in piece.jobs)
        assert len(copied) == len(steps) < requests


class TestSlices:
    """``generate_day`` is ``day_slices`` joined; the slices cut the day
    at multiples of ``SLICE_MS``."""

    @pytest.mark.parametrize("slice_ms", [45_000.0, 90_000.0, 600_000.0])
    @pytest.mark.parametrize("profile", [SYSTEM_FS_PROFILE, USERS_FS_PROFILE])
    def test_slices_join_into_the_day(self, monkeypatch, profile, slice_ms):
        scaled = profile.scaled(hours=0.5)
        whole = make_generator(scaled, seed=5)
        monkeypatch.setattr(generator_module, "SLICE_MS", slice_ms)
        sliced = make_generator(scaled, seed=5)
        for __ in range(2):
            day = whole.generate_day()
            pieces = list(sliced.day_slices())
            assert len(pieces) > 1
            jobs = [job for piece in pieces for job in piece.jobs]
            assert [(j.start_ms, j.steps, j.name) for j in jobs] == [
                (j.start_ms, j.steps, j.name) for j in day.jobs
            ]
            last = pieces[-1]
            assert (last.read_counts, last.all_counts) == (
                day.read_counts,
                day.all_counts,
            )
            for piece, after in zip(pieces, pieces[1:]):
                assert piece.jobs and piece.read_counts is None
                boundary = (piece.jobs[-1].start_ms // slice_ms + 1) * slice_ms
                assert piece.next_start_ms == after.jobs[0].start_ms >= boundary
            assert last.next_start_ms is None
        assert whole.rng.bit_generator.state == sliced.rng.bit_generator.state

    def test_jobs_come_in_start_then_id_order(self):
        jobs = make_generator(USERS_FS_PROFILE.scaled(hours=1.0)).generate_day().jobs
        keys = [(job.start_ms, job.job_id) for job in jobs]
        assert keys == sorted(keys)


class TestWorkloadShape:
    def test_counts_consistent_with_jobs(self):
        workload = make_generator().generate_day()
        total = sum(job.num_requests for job in workload.jobs)
        assert total == workload.num_requests
        assert sum(workload.all_counts.values()) == total
        assert workload.num_reads + workload.num_writes == total

    def test_read_counts_subset_of_all(self):
        workload = make_generator().generate_day()
        for block, count in workload.read_counts.items():
            assert workload.all_counts[block] >= count

    def test_blocks_within_virtual_disk(self):
        workload = make_generator().generate_day()
        limit = (815 - 48) * 21
        for job in workload.jobs:
            for step in job.steps:
                assert 0 <= step.logical_block < limit

    def test_jobs_sorted_by_start(self):
        workload = make_generator().generate_day()
        starts = [job.start_ms for job in workload.jobs]
        assert starts == sorted(starts)

    def test_system_skew_matches_paper(self):
        """Figure 5 / Section 5.4: ~100 hottest blocks absorb ~90% of
        requests; fewer than ~2000 blocks absorb everything."""
        generator = make_generator(profile=SYSTEM_FS_PROFILE, seed=3)
        workload = generator.generate_day()
        counts = list(workload.all_counts.values())
        assert top_k_share(counts, 100) > 0.80
        assert len(counts) < 2000

    def test_write_concentration_on_system_fs(self):
        """Writes are concentrated on a very small set of (metadata)
        blocks (Section 5.2)."""
        generator = make_generator(profile=SYSTEM_FS_PROFILE, seed=3)
        workload = generator.generate_day()
        write_counts = {
            block: workload.all_counts[block] - workload.read_counts.get(block, 0)
            for block in workload.all_counts
        }
        write_counts = {b: c for b, c in write_counts.items() if c > 0}
        assert top_k_share(list(write_counts.values()), 30) > 0.85


class TestSyncBursts:
    def test_sync_jobs_are_write_batches(self):
        workload = make_generator().generate_day()
        syncs = [job for job in workload.jobs if job.name == "sync"]
        assert syncs
        for job in syncs:
            assert not job.sequential
            assert all(step.op is Op.WRITE for step in job.steps)

    def test_sync_bursts_on_interval_boundaries(self):
        profile = SYSTEM_FS_PROFILE.scaled(hours=1.0)
        workload = make_generator(profile=profile).generate_day()
        interval = profile.sync_interval_s * 1000.0
        for job in workload.jobs:
            if job.name == "sync":
                assert job.start_ms % interval == pytest.approx(0.0)

    def test_burst_blocks_distinct(self):
        workload = make_generator().generate_day()
        for job in workload.jobs:
            if job.name == "sync":
                blocks = [s.logical_block for s in job.steps]
                assert len(blocks) == len(set(blocks))


class TestSessions:
    def test_read_sessions_are_sequential_jobs(self):
        workload = make_generator().generate_day()
        sessions = [job for job in workload.jobs if job.name == "session"]
        assert sessions
        for job in sessions:
            assert job.sequential
            assert all(step.op is Op.READ for step in job.steps)

    def test_runs_cover_consecutive_file_blocks_with_gap(self):
        """Multi-block runs follow the FFS interleave: logical block
        numbers inside a run advance by the allocator gap."""
        generator = make_generator(
            profile=dataclasses.replace(
                SYSTEM_FS_PROFILE.scaled(hours=1.0),
                single_block_read_prob=0.0,
            )
        )
        workload = generator.generate_day()
        multi = [
            j for j in workload.jobs if j.name == "session" and len(j.steps) > 1
        ]
        assert multi
        gap = generator.profile.fs_interleave + 1
        for job in multi[:20]:
            blocks = [s.logical_block for s in job.steps]
            deltas = {b - a for a, b in zip(blocks, blocks[1:])}
            assert deltas == {gap}


class TestUsersChurn:
    def test_rewrites_relocate_file_blocks(self):
        profile = dataclasses.replace(
            USERS_FS_PROFILE.scaled(hours=1.0),
            edit_session_fraction=1.0,
            edit_uniform_prob=0.0,
        )
        generator = make_generator(profile=profile, seed=5)
        before = {
            id(inode): tuple(inode.data_blocks)
            for inode in generator._inodes
        }
        generator.generate_day()
        after_blocks = {
            tuple(inode.data_blocks) for inode in generator._inodes
        }
        # At least one popular file was rewritten into fresh blocks.
        assert any(
            blocks not in after_blocks for blocks in before.values()
        ) or len(after_blocks) != len(before)

    def test_new_files_created_across_days(self):
        profile = dataclasses.replace(
            USERS_FS_PROFILE.scaled(hours=1.0), new_files_per_day=10
        )
        generator = make_generator(profile=profile, seed=5)
        before = len(generator._inodes)
        generator.generate_day()
        assert len(generator._inodes) >= before + 1

    def test_drift_changes_next_day_distribution(self):
        profile = dataclasses.replace(
            USERS_FS_PROFILE.scaled(hours=1.0),
            popularity_reshuffle_fraction=0.5,
        )
        generator = make_generator(profile=profile, seed=5)
        ranks_before = list(generator._rank_of)
        generator.generate_day()
        generator.generate_day()  # drift applies from day 1 on
        assert list(generator._rank_of) != ranks_before


class TestFileSystemIntegration:
    def test_uses_profile_fs_layout(self):
        generator = make_generator()
        assert generator.fs.cylinders_per_group == (
            SYSTEM_FS_PROFILE.cylinders_per_group
        )
        assert generator.fs.interleave == SYSTEM_FS_PROFILE.fs_interleave


class TestDirectoryIndex:
    def test_directory_lists_follow_creations(self):
        """The per-directory file lists behind user locality stay equal to
        a scan of every file, in file order, as files are created."""
        profile = dataclasses.replace(
            USERS_FS_PROFILE.scaled(hours=0.5),
            new_files_per_day=40,
            user_locality=0.5,
        )
        generator = make_generator(profile)
        for __ in range(2):
            generator.generate_day()
        keys = generator._file_keys
        assert len(keys) > profile.num_directories * profile.files_per_directory
        for directory, indices in generator._dir_files.items():
            assert indices == [
                i for i, (d, __) in enumerate(keys) if d == directory
            ]
        assert sum(map(len, generator._dir_files.values())) == len(keys)

