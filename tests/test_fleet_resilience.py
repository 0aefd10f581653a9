"""Fleet resilience: checkpoint/resume, degradation, retries, CLI.

The contract under test (``docs/resilience.md``): a fleet run that is
killed mid-way and resumed from its checkpoint journal, or that absorbs
injected chaos through retries, produces a :class:`FleetResult`
bit-identical to an uninterrupted fault-free run — at any worker count.
Degraded runs are the one deliberate exception: losing shards changes
the payload (failure manifest, partial percentiles), so their digests
must differ.
"""

import json

import pytest

from repro.cli import main
from repro.faults import ChaosPlan
from repro.fleet import (
    CheckpointError,
    FleetJournal,
    FleetSpec,
    render_fleet,
    run_fleet,
    spec_digest,
)
from repro.fleet.result import ShardResult
from repro.parallel import RetryPolicy, WorkerTaskError
from repro.workload.tenancy import TenancySpec

SPEC = FleetSpec(
    devices=8,
    disk="toshiba",
    devices_per_shard=2,
    days=2,
    hours=0.02,
    tenancy=TenancySpec(tenants=32),
    seed=1993,
)
OTHER_SPEC = FleetSpec(
    devices=8,
    disk="toshiba",
    devices_per_shard=2,
    days=2,
    hours=0.02,
    tenancy=TenancySpec(tenants=32),
    seed=7,
)
# Shard 2 hard-exits its worker on every attempt: with max_attempts=2
# the run must fail permanently (and deterministically).
KILL_SHARD_2 = ChaosPlan(seed=1, exit_rate=1.0, attempts=10**6, tasks=(2,))
TWO_ATTEMPTS = RetryPolicy(max_attempts=2, backoff_s=0.0)


@pytest.fixture(scope="module")
def clean_result():
    return run_fleet(SPEC, workers=1)


class TestJournal:
    def test_round_trips_shards_exactly(self, tmp_path, clean_result):
        path = tmp_path / "fleet.ckpt.jsonl"
        run_fleet(SPEC, workers=1, checkpoint=path)
        loaded = FleetJournal(path, SPEC).load()
        assert sorted(loaded) == [0, 1, 2, 3]
        for shard in clean_result.shards:
            assert loaded[shard.index].payload() == shard.payload()

    def test_shard_result_payload_round_trip(self, clean_result):
        shard = clean_result.shards[0]
        rebuilt = ShardResult.from_payload(
            json.loads(json.dumps(shard.payload()))
        )
        assert rebuilt.payload() == shard.payload()

    def test_header_binds_to_spec(self, tmp_path):
        path = tmp_path / "fleet.ckpt.jsonl"
        run_fleet(SPEC, workers=1, checkpoint=path)
        with pytest.raises(CheckpointError, match="different fleet spec"):
            FleetJournal(path, OTHER_SPEC).load()
        assert spec_digest(SPEC) != spec_digest(OTHER_SPEC)

    def test_non_checkpoint_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(CheckpointError, match="not a version-1"):
            FleetJournal(path, SPEC).load()

    def test_corrupt_record_is_rejected(self, tmp_path):
        path = tmp_path / "fleet.ckpt.jsonl"
        run_fleet(SPEC, workers=1, checkpoint=path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["payload"]["rearranged_blocks"] += 1  # silent bit-rot
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="fails its digest"):
            FleetJournal(path, SPEC).load()

    def test_torn_tail_is_dropped_with_warning(self, tmp_path):
        path = tmp_path / "fleet.ckpt.jsonl"
        run_fleet(SPEC, workers=1, checkpoint=path)
        lines = path.read_text().splitlines()
        torn = lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]
        path.write_text("\n".join(torn) + "\n")
        with pytest.warns(RuntimeWarning, match="torn write"):
            loaded = FleetJournal(path, SPEC).load()
        assert sorted(loaded) == [0, 1, 2]  # the torn shard re-runs

    def test_missing_file_loads_empty(self, tmp_path):
        assert FleetJournal(tmp_path / "absent.jsonl", SPEC).load() == {}


class TestResume:
    def _interrupt(self, tmp_path, workers):
        """Run until shard 2's hard exits exhaust retries; journal the rest."""
        path = tmp_path / "fleet.ckpt.jsonl"
        with pytest.raises(WorkerTaskError, match="worker process died"):
            run_fleet(
                SPEC,
                workers=workers,
                chaos=KILL_SHARD_2,
                retry=TWO_ATTEMPTS,
                checkpoint=path,
            )
        journaled = FleetJournal(path, SPEC).load()
        assert 0 < len(journaled) < SPEC.num_shards
        assert 2 not in journaled
        return path

    @pytest.mark.parametrize("workers", [1, 8])
    def test_killed_run_resumes_bit_identical(
        self, tmp_path, clean_result, workers
    ):
        """The acceptance criterion: kill mid-run (chaos hard exit),
        resume from the journal, match the uninterrupted digest."""
        path = self._interrupt(tmp_path / str(workers), workers=2)
        if workers > SPEC.num_shards:
            with pytest.warns(RuntimeWarning):  # clamped to pending shards
                resumed = run_fleet(
                    SPEC, workers=workers, checkpoint=path, resume=True
                )
        else:
            resumed = run_fleet(
                SPEC, workers=workers, checkpoint=path, resume=True
            )
        assert resumed.digest() == clean_result.digest()
        assert resumed.payload() == clean_result.payload()

    def test_resume_replays_journaled_shards_to_on_shard(self, tmp_path):
        path = self._interrupt(tmp_path, workers=2)
        journaled = sorted(FleetJournal(path, SPEC).load())
        seen = []
        run_fleet(
            SPEC,
            workers=1,
            checkpoint=path,
            resume=True,
            on_shard=lambda i, r: seen.append(i),
        )
        # Journaled shards replay first (in order), fresh ones follow.
        assert seen[: len(journaled)] == journaled
        assert sorted(seen) == [0, 1, 2, 3]

    def test_fresh_run_truncates_stale_journal(self, tmp_path, clean_result):
        path = tmp_path / "fleet.ckpt.jsonl"
        self._interrupt(tmp_path, workers=2)
        result = run_fleet(SPEC, workers=1, checkpoint=path)  # no resume
        assert result.digest() == clean_result.digest()
        loaded = FleetJournal(path, SPEC).load()
        assert sorted(loaded) == [0, 1, 2, 3]  # rewritten from scratch

    def test_fully_journaled_resume_runs_nothing(self, tmp_path, clean_result):
        path = tmp_path / "fleet.ckpt.jsonl"
        run_fleet(SPEC, workers=1, checkpoint=path)
        resumed = run_fleet(SPEC, workers=1, checkpoint=path, resume=True)
        assert resumed.digest() == clean_result.digest()


class TestDegradation:
    def _degraded(self):
        return run_fleet(
            SPEC,
            workers=2,
            chaos=KILL_SHARD_2,
            retry=TWO_ATTEMPTS,
            on_error="degrade",
        )

    def test_manifest_names_the_lost_shard(self):
        result = self._degraded()
        assert result.degraded
        assert result.failed_shards == 1
        assert result.total_shards == SPEC.num_shards
        (failure,) = result.failures
        assert failure.index == 2
        assert failure.attempts == 2
        assert failure.kind == "worker-death"
        assert failure.devices == ("d0004", "d0005")
        assert failure.seed > 0

    def test_degraded_digest_differs_from_complete(self, clean_result):
        result = self._degraded()
        assert result.digest() != clean_result.digest()
        payload = result.payload()
        assert payload["degraded"] is True
        assert [f["index"] for f in payload["failures"]] == [2]

    def test_render_announces_degradation(self):
        text = render_fleet(self._degraded())
        assert "DEGRADED: 1/4 shard(s) failed permanently" in text
        assert "[degraded: covers 3/4 shards]" in text
        assert "worker-death" in text

    def test_skip_policy_warns_but_degrades_the_same(self):
        with pytest.warns(RuntimeWarning, match="skipping fleet shard 2"):
            result = run_fleet(
                SPEC,
                workers=2,
                chaos=KILL_SHARD_2,
                retry=TWO_ATTEMPTS,
                on_error="skip",
            )
        assert result.failed_shards == 1

    def test_clean_run_payload_has_no_degradation_keys(self, clean_result):
        assert "degraded" not in clean_result.payload()
        assert "failures" not in clean_result.payload()


class TestRunFleetKnobs:
    def test_retried_tasks_counts_attempts(self, clean_result):
        chaos = ChaosPlan(seed=29, exception_rate=0.4, attempts=1)
        hooked = []
        result = run_fleet(
            SPEC,
            workers=2,
            chaos=chaos,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
            on_retry=hooked.append,
        )
        assert result.retried_tasks == len(hooked) > 0
        assert result.digest() == clean_result.digest()


class TestFleetCli:
    ARGS = [
        "fleet",
        "--devices", "8",
        "--disk", "toshiba",
        "--devices-per-shard", "2",
        "--days", "2",
        "--hours", "0.02",
        "--tenants", "32",
        "--seed", "1993",
    ]

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--resume needs --checkpoint"):
            main(self.ARGS + ["--resume"])

    def test_bad_chaos_spec_exits_cleanly(self):
        with pytest.raises(SystemExit, match="bad chaos spec"):
            main(self.ARGS + ["--chaos", "explode=1"])

    def test_bad_retry_policy_exits_cleanly(self):
        with pytest.raises(SystemExit, match="bad retry policy"):
            main(self.ARGS + ["--retries", "0", "--backoff", "1"])

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "fleet.ckpt.jsonl")
        assert main(self.ARGS + ["--checkpoint", path]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--checkpoint", path, "--resume"]) == 0
        second = capsys.readouterr().out
        digest = [ln for ln in first.splitlines() if "digest:" in ln]
        assert digest and digest == [
            ln for ln in second.splitlines() if "digest:" in ln
        ]

    def test_chaos_with_retries_matches_clean_digest(self, capsys):
        assert main(self.ARGS) == 0
        clean = capsys.readouterr().out
        chaotic_args = self.ARGS + [
            "--workers", "2",
            "--chaos", "seed=29,exception=0.3,exit=0.1,attempts=1",
            "--retries", "3",
        ]
        assert main(chaotic_args) == 0
        chaotic = capsys.readouterr().out
        pick = lambda text: [  # noqa: E731
            ln for ln in text.splitlines() if "digest:" in ln
        ]
        assert pick(clean) == pick(chaotic)

    def test_degrade_flag_reports_and_signals(self, capsys):
        code = main(
            self.ARGS + [
                "--workers", "2",
                "--chaos", "seed=1,exit=1.0,attempts=1000000,tasks=2",
                "--retries", "2",
                "--on-error", "degrade",
            ]
        )
        assert code == 1  # partial result: nonzero for scripts
        assert "DEGRADED" in capsys.readouterr().out

    def test_exhausted_raise_names_checkpoint_hint(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt.jsonl")
        with pytest.raises(SystemExit, match="re-run with --resume"):
            main(
                self.ARGS + [
                    "--workers", "2",
                    "--chaos", "seed=1,exit=1.0,attempts=1000000,tasks=2",
                    "--retries", "2",
                    "--checkpoint", path,
                ]
            )
