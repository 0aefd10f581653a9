"""End-to-end tests for trace ingest, persistence and replay."""

import io as stdio

import pytest

from repro.analysis import characterize
from repro.bench.digest import day_metrics_payload, metrics_digest
from repro.sim.experiment import Experiment, ExperimentConfig
from repro.traces import (
    IngestResult,
    default_target_blocks,
    dump_ingested,
    fixture_path,
    ingest_trace,
    replay_jobs,
    write_ingested,
)
from repro.workload.profiles import SYSTEM_FS_PROFILE
from repro.workload.trace import load_trace

BLK_FIXTURE = "tests/fixtures/sample.blkparse"
MSR_FIXTURE = "tests/fixtures/sample.msr.csv"


class TestIngest:
    def test_blkparse_fixture_compact_open(self):
        result = ingest_trace(BLK_FIXTURE)
        assert isinstance(result, IngestResult)
        assert result.format == "auto"
        assert result.mapping == "compact"
        assert result.loop == "open"
        assert result.target_blocks == default_target_blocks("toshiba")
        assert result.records > 400
        assert len(result.jobs) == result.records  # open loop: 1 job each
        assert result.working_set_blocks > 100
        assert not result.wrapped
        # Every mapped block is a valid replay address.
        for job in result.jobs:
            for step in job.steps:
                assert 0 <= step.logical_block < result.target_blocks

    def test_msr_fixture_linear_closed(self):
        result = ingest_trace(
            MSR_FIXTURE,
            mapping="linear",
            loop="closed",
            disk="fujitsu",
            time_scale=0.5,
        )
        assert result.mapping == "linear"
        assert result.target_blocks == default_target_blocks("fujitsu")
        assert len(result.jobs) < result.records  # sessions fold records
        assert all(job.sequential for job in result.jobs)

    def test_closed_loop_time_scale_compresses_sessions(self):
        fast = ingest_trace(MSR_FIXTURE, loop="closed", time_scale=0.1)
        slow = ingest_trace(MSR_FIXTURE, loop="closed", time_scale=1.0)
        # Compressed gaps fall under the session break more often, so the
        # trace folds into fewer, longer sessions that start earlier.
        assert len(fast.jobs) < len(slow.jobs)
        assert fast.jobs[-1].start_ms < slow.jobs[-1].start_ms

    def test_open_loop_time_scale_compresses_arrivals(self):
        fast = ingest_trace(MSR_FIXTURE, loop="open", time_scale=0.1)
        slow = ingest_trace(MSR_FIXTURE, loop="open", time_scale=1.0)
        assert fast.jobs[-1].start_ms == pytest.approx(
            slow.jobs[-1].start_ms * 0.1
        )

    def test_limit(self):
        result = ingest_trace(BLK_FIXTURE, limit=10)
        assert result.records == 10

    def test_explicit_format_and_target(self):
        result = ingest_trace(
            BLK_FIXTURE, format="blkparse", target_blocks=500
        )
        assert result.target_blocks == 500
        for job in result.jobs:
            for step in job.steps:
                assert step.logical_block < 500

    def test_empty_trace_rejected(self, tmp_path):
        empty = tmp_path / "empty.trace"
        empty.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            ingest_trace(empty, format="blkparse")

    def test_character_rides_along(self):
        result = ingest_trace(BLK_FIXTURE)
        character = result.character
        assert character.requests == result.records
        assert 0.0 < character.top_100_share <= 1.0
        assert character.zipf_exponent > 0.0
        assert 0.0 <= character.sequential_fraction < 1.0

    def test_workload_feeds_analysis_layer(self):
        result = ingest_trace(BLK_FIXTURE)
        workload = result.workload()
        assert workload.num_requests == sum(
            job.num_requests for job in result.jobs
        )
        character = characterize(workload)
        assert character.requests == workload.num_requests
        assert character.distinct_blocks == result.working_set_blocks


class TestPersistence:
    def test_round_trip_via_workload_trace(self, tmp_path):
        result = ingest_trace(BLK_FIXTURE)
        out = tmp_path / "ingested.trace"
        written = write_ingested(result, out)
        assert written == len(result.jobs)
        loaded = load_trace(out)
        assert len(loaded) == len(result.jobs)
        for original, reloaded in zip(result.jobs, loaded):
            assert reloaded.start_ms == original.start_ms
            assert reloaded.sequential == original.sequential
            assert reloaded.name == original.name
            assert len(reloaded.steps) == len(original.steps)
            for a, b in zip(original.steps, reloaded.steps):
                assert (a.logical_block, a.op, a.think_ms) == (
                    b.logical_block,
                    b.op,
                    b.think_ms,
                )

    def test_dump_is_deterministic(self):
        def dump_once():
            stream = stdio.StringIO()
            dump_ingested(ingest_trace(MSR_FIXTURE), stream)
            return stream.getvalue()

        first, second = dump_once(), dump_once()
        assert first == second
        assert "# source: sample.msr.csv" in first

    @pytest.mark.parametrize("disk", ["toshiba", "fujitsu", "modern"])
    def test_default_target_is_the_experiment_label(self, disk):
        config = ExperimentConfig(profile=SYSTEM_FS_PROFILE, disk=disk)
        label = Experiment(config).label
        assert default_target_blocks(disk) == label.virtual_total_blocks

    def test_fixture_path_resolves_and_rejects(self):
        assert fixture_path("sample.blkparse").is_file()
        with pytest.raises(FileNotFoundError):
            fixture_path("no-such-trace.bin")


class TestReplay:
    def test_replay_produces_metrics(self):
        result = ingest_trace(BLK_FIXTURE)
        replay = replay_jobs(result.jobs, disk="toshiba")
        assert replay.completed > 0
        assert replay.requests > 0
        assert replay.rearranged_blocks == 0
        assert replay.metrics.all.mean_seek_distance >= 0.0

    def test_replay_with_rearrangement_moves_blocks(self):
        result = ingest_trace(BLK_FIXTURE)
        replay = replay_jobs(result.jobs, disk="toshiba", rearrange=True)
        assert replay.rearranged_blocks > 0
        assert replay.metrics.rearranged

    def test_rearranged_replay_beats_plain_replay(self):
        jobs = ingest_trace(BLK_FIXTURE).jobs
        plain = replay_jobs(jobs, disk="toshiba")
        trained = replay_jobs(jobs, disk="toshiba", rearrange=True)
        assert (
            trained.metrics.all.mean_seek_distance
            < plain.metrics.all.mean_seek_distance
        )

    def test_replay_is_bit_deterministic(self):
        def run():
            ingested = ingest_trace(BLK_FIXTURE)
            replay = replay_jobs(
                ingested.jobs, disk="toshiba", rearrange=True
            )
            return metrics_digest(day_metrics_payload(replay.metrics))

        assert run() == run()
