"""Tests for repro.traces address mapping, time rescaling and
characterization."""

import pytest

from repro.driver.request import Op
from repro.traces import (
    BlockIO,
    CompactMapper,
    LinearMapper,
    MAPPING_STRATEGIES,
    ModuloMapper,
    characterize_records,
    jobs_from_records,
    make_mapper,
    matching_profile,
    rebase_and_scale,
    render_trace_character,
)


def io(time_ms, block, num_blocks=1, op=Op.READ):
    return BlockIO(time_ms=time_ms, block=block, num_blocks=num_blocks, op=op)


class TestMappers:
    def test_modulo_wraps(self):
        mapper = ModuloMapper(100)
        assert mapper.map(7) == 7
        assert mapper.map(107) == 7
        assert mapper.map(99) == 99

    def test_linear_preserves_shape(self):
        mapper = LinearMapper(100, 1000)
        assert mapper.map(0) == 0
        assert mapper.map(500) == 50
        assert mapper.map(999) == 99

    def test_linear_rejects_out_of_span(self):
        mapper = LinearMapper(100, 1000)
        with pytest.raises(ValueError):
            mapper.map(1000)
        with pytest.raises(ValueError):
            mapper.map(-1)

    def test_compact_first_touch_order(self):
        mapper = CompactMapper(100)
        assert mapper.map(9_000_000) == 0
        assert mapper.map(12) == 1
        assert mapper.map(9_000_000) == 0  # re-reference is stable
        assert not mapper.wrapped

    def test_compact_wraps_when_working_set_overflows(self):
        mapper = CompactMapper(3)
        for block in (10, 20, 30, 40):
            mapper.map(block)
        assert mapper.map(40) == 0  # fourth distinct block wrapped
        assert mapper.wrapped

    def test_all_mappers_stay_in_range(self):
        target = 37
        mappers = [
            ModuloMapper(target),
            LinearMapper(target, 10_000),
            CompactMapper(target),
        ]
        for mapper in mappers:
            for block in range(0, 10_000, 97):
                assert 0 <= mapper.map(block) < target

    def test_make_mapper(self):
        assert make_mapper("modulo", 10).name == "modulo"
        assert make_mapper("compact", 10).name == "compact"
        linear = make_mapper("linear", 10, source_span=50)
        assert linear.name == "linear"
        with pytest.raises(ValueError, match="source_span"):
            make_mapper("linear", 10)
        with pytest.raises(ValueError, match="unknown mapping"):
            make_mapper("hilbert", 10)
        with pytest.raises(ValueError):
            make_mapper("modulo", 0)

    def test_strategies_registry(self):
        assert set(MAPPING_STRATEGIES) == {"modulo", "linear", "compact"}


class TestRescale:
    def test_rebase_sorts_and_zeroes(self):
        records = [io(50.0, 2), io(10.0, 1), io(30.0, 3)]
        rebased = rebase_and_scale(records)
        assert [r.time_ms for r in rebased] == [0.0, 20.0, 40.0]
        assert [r.block for r in rebased] == [1, 3, 2]

    def test_time_scale_compresses(self):
        records = [io(0.0, 1), io(100.0, 2)]
        rebased = rebase_and_scale(records, time_scale=0.25)
        assert rebased[1].time_ms == pytest.approx(25.0)

    def test_time_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            rebase_and_scale([io(0.0, 1)], time_scale=0.0)

    def test_open_loop_one_job_per_record(self):
        records = [io(0.0, 5), io(10.0, 6), io(20.0, 7)]
        jobs = jobs_from_records(records, ModuloMapper(100), loop="open")
        assert len(jobs) == 3
        assert [job.start_ms for job in jobs] == [0.0, 10.0, 20.0]
        assert all(not job.sequential for job in jobs)
        assert [job.steps[0].logical_block for job in jobs] == [5, 6, 7]

    def test_open_loop_expands_multi_block_records(self):
        jobs = jobs_from_records(
            [io(0.0, 5, num_blocks=3)], ModuloMapper(100), loop="open"
        )
        (job,) = jobs
        assert [step.logical_block for step in job.steps] == [5, 6, 7]

    def test_closed_loop_sessionizes_on_gap(self):
        records = [
            io(0.0, 1),
            io(10.0, 2),
            io(20.0, 3),
            io(200.0, 4),  # gap 180 ms >= 50 -> new session
            io(210.0, 5),
        ]
        jobs = jobs_from_records(
            records, ModuloMapper(100), loop="closed", gap_ms=50.0
        )
        assert len(jobs) == 2
        first, second = jobs
        assert first.sequential and second.sequential
        assert len(first.steps) == 3
        assert len(second.steps) == 2
        # Inter-arrival gaps become think times on the non-lead steps.
        assert first.steps[0].think_ms == 0.0
        assert first.steps[1].think_ms == pytest.approx(10.0)
        assert second.start_ms == pytest.approx(200.0)

    def test_closed_loop_respects_time_scale(self):
        records = [io(0.0, 1), io(100.0, 2)]
        jobs = jobs_from_records(
            records,
            ModuloMapper(100),
            loop="closed",
            time_scale=0.1,
            gap_ms=50.0,
        )
        # 100 ms gap scales to 10 ms < 50, so one session.
        assert len(jobs) == 1
        assert jobs[0].steps[1].think_ms == pytest.approx(10.0)

    def test_bad_loop_and_gap_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            jobs_from_records([io(0.0, 1)], ModuloMapper(10), loop="half")
        with pytest.raises(ValueError, match="gap_ms"):
            jobs_from_records(
                [io(0.0, 1)], ModuloMapper(10), loop="closed", gap_ms=0.0
            )

    def test_compaction_keeps_runs_contiguous(self):
        records = [io(0.0, 700, num_blocks=2), io(5.0, 100)]
        jobs = jobs_from_records(records, CompactMapper(50), loop="open")
        blocks = [s.logical_block for job in jobs for s in job.steps]
        assert blocks == [0, 1, 2]


class TestCharacterize:
    def test_empty_stream(self):
        character = characterize_records([])
        assert character.requests == 0
        assert character.working_set_blocks == 0

    def test_counts_and_mix(self):
        records = [
            io(0.0, 1),
            io(1.0, 2, op=Op.WRITE),
            io(2.0, 1),
            io(3.0, 9, num_blocks=2),
        ]
        character = characterize_records(records)
        assert character.requests == 4
        assert character.block_requests == 5
        assert character.reads == 3
        assert character.writes == 1
        assert character.working_set_blocks == 4  # {1, 2, 9, 10}
        assert character.span_blocks == 10  # blocks 1..10
        assert character.duration_ms == pytest.approx(3.0)

    def test_sequential_fraction_and_runs(self):
        # 5 -> 6,7 -> 8 is one run; 50 breaks it.
        records = [
            io(0.0, 5),
            io(1.0, 6, num_blocks=2),
            io(2.0, 8),
            io(3.0, 50),
        ]
        character = characterize_records(records)
        assert character.sequential_fraction == pytest.approx(0.5)
        assert character.mean_run_blocks == pytest.approx((4 + 1) / 2)

    def test_zipf_exponent_recovers_skew(self):
        # Counts drawn exactly from count(rank) = C / rank.
        records = []
        time = 0.0
        for rank in range(1, 51):
            for _ in range(max(1, 1000 // rank)):
                records.append(io(time, rank))
                time += 1.0
        character = characterize_records(records)
        assert character.zipf_exponent == pytest.approx(1.0, abs=0.05)

    def test_uniform_counts_give_zero_exponent(self):
        records = [io(float(i), i) for i in range(20)]
        assert characterize_records(records).zipf_exponent == 0.0

    def test_matching_profile_bends_base(self):
        records = []
        time = 0.0
        for rank in range(1, 30):
            for _ in range(max(1, 300 // rank)):
                records.append(io(time, rank))
                time += 100.0
        character = characterize_records(records)
        profile = matching_profile(character, "system")
        assert profile.name == "system-matched"
        assert profile.day_hours == pytest.approx(
            character.duration_ms / 3_600_000.0
        )
        assert profile.file_popularity_exponent >= 0.5
        assert profile.popularity_reshuffle_fraction == 0.0

    def test_matching_profile_unknown_base(self):
        character = characterize_records([io(0.0, 1)])
        with pytest.raises(KeyError, match="unknown profile"):
            matching_profile(character, "vms")

    def test_render_mentions_the_numbers(self):
        character = characterize_records([io(0.0, 1), io(1.0, 2)])
        text = render_trace_character(character, "sample")
        assert "sample" in text
        assert "working set" in text
        assert "zipf exponent" in text
