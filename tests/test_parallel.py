"""The generic process-pool executor (repro.parallel)."""

import multiprocessing
import os
import threading
import time
import warnings
from dataclasses import replace

import pytest

from repro.bench.digest import canonical_json, metrics_digest
from repro.faults import ChaosPlan
from repro.parallel import (
    AheadWorker,
    RetryPolicy,
    WorkerTaskError,
    can_work_ahead,
    fan_out,
    resolve_workers,
    spawn_seeds,
)
from repro.sim.experiment import (
    ExperimentConfig,
    alternating_schedule,
    run_campaigns_parallel,
)
from repro.bench.digest import day_metrics_payload
from repro.workload.profiles import SYSTEM_FS_PROFILE

SHORT_PROFILE = SYSTEM_FS_PROFILE.scaled(hours=0.1)
SHORT_CONFIG = ExperimentConfig(profile=SHORT_PROFILE)


def _square(x: int) -> int:
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError(f"boom on {x}")
    return x


def _boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(1993, 4) == spawn_seeds(1993, 4)

    def test_prefix_stable(self):
        """Asking for more children never changes the earlier ones."""
        assert spawn_seeds(1993, 8)[:3] == spawn_seeds(1993, 3)

    def test_children_distinct(self):
        seeds = spawn_seeds(0, 64)
        assert len(set(seeds)) == 64

    def test_nearby_parents_unrelated(self):
        """Adjacent parent seeds give disjoint children — the failure
        mode of base_seed + i schemes."""
        assert not set(spawn_seeds(7, 16)) & set(spawn_seeds(8, 16))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)


class TestResolveWorkers:
    def test_clamps_and_warns_when_exceeding_tasks(self):
        with pytest.warns(RuntimeWarning, match="requested 8 workers"):
            assert resolve_workers(8, tasks=3, what="shard") == 3

    def test_no_warning_at_or_below_task_count(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(3, tasks=3) == 3
            assert resolve_workers(2, tasks=3) == 2

    def test_zero_tasks(self):
        assert resolve_workers(4, tasks=0) == 0

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_rejects_below_one_naming_the_parameter(self, bad):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {bad}"):
            resolve_workers(bad, tasks=5)

    def test_rejection_precedes_clamp_and_zero_task_paths(self):
        """Satellite: bad values are rejected before the clamp warning
        fires and before the zero-task shortcut can swallow them."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the clamp path must not warn
            with pytest.raises(ValueError, match="workers must be >= 1"):
                resolve_workers(0, tasks=3)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_workers(-2, tasks=0)  # would return 0 if checked late


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError, match="backoff_s"):
            RetryPolicy(backoff_s=-1.0)

    def test_delay_deterministic_and_jittered(self):
        policy = RetryPolicy(backoff_s=2.0, seed=7)
        first = policy.delay_s(3, 1)
        assert first == policy.delay_s(3, 1)  # pure function
        assert 1.0 <= first < 3.0  # 2.0 jittered into [0.5x, 1.5x)
        assert policy.delay_s(3, 1) != policy.delay_s(4, 1)

    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(backoff_s=4.0, backoff_cap_s=6.0, seed=0)
        # attempt 2 doubles 4.0 to 8.0, then the cap clamps it to 6.0
        assert policy.delay_s(0, 2) <= 6.0 * 1.5
        assert policy.delay_s(0, 2) >= 6.0 * 0.5

    def test_no_backoff_means_zero_delay(self):
        assert RetryPolicy().delay_s(0, 1) == 0.0


class TestFanOut:
    def test_serial_and_parallel_agree(self):
        items = list(range(20))
        assert (
            fan_out(_square, items, workers=1)
            == fan_out(_square, items, workers=4)
            == [x * x for x in items]
        )

    def test_order_preserved_with_chunking(self):
        items = list(range(57))
        assert fan_out(_square, items, workers=3) == [
            x * x for x in items
        ]

    def test_on_result_streams_in_order(self):
        seen = []
        fan_out(
            _square,
            [1, 2, 3],
            workers=2,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert seen == [(0, 1), (1, 4), (2, 9)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_carries_task_context(self, workers):
        with pytest.raises(WorkerTaskError) as excinfo:
            fan_out(
                _fail_on_three,
                [1, 2, 3, 4],
                workers=workers,
                label=lambda i, item: f"unit {item} (seed {1000 + i})",
            )
        err = excinfo.value
        assert err.context == "unit 3 (seed 1002)"
        assert "boom on 3" in err.cause
        assert "ValueError" in err.worker_traceback
        # The worker-side traceback stays visible in the rendered error.
        assert "worker traceback" in str(err)

    def test_default_context_names_index(self):
        with pytest.raises(WorkerTaskError, match=r"task 2:"):
            fan_out(_fail_on_three, [1, 2, 3], workers=1)

    def test_empty_items(self):
        assert fan_out(_square, [], workers=4) == []


def _fail_once_then_square(marker_and_x):
    """Fails the first time each marker is seen; retries then succeed.

    The marker file persists across worker processes, so this models a
    transient fault that a re-dispatch (any worker, any process) clears.
    """
    import os

    marker, x = marker_and_x
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("seen")
        raise RuntimeError(f"transient failure for {x}")
    return x * x


class TestFanOutResilience:
    """Retries, timeouts, worker death, and error policies."""

    def test_inline_retries_recover_transient_failures(self, tmp_path):
        items = [(str(tmp_path / f"marker{x}"), x) for x in (1, 2, 3)]
        retried = []
        out = fan_out(
            _fail_once_then_square,
            items,
            workers=1,
            retry=RetryPolicy(max_attempts=2),
            on_retry=retried.append,
        )
        assert out == [1, 4, 9]
        assert [f.index for f in retried] == [0, 1, 2]
        assert all(f.kind == "exception" for f in retried)

    def test_pool_retries_recover_chaos_exceptions(self):
        chaos = ChaosPlan(seed=3, exception_rate=1.0, attempts=1)
        retried = []
        out = fan_out(
            _square,
            [1, 2, 3, 4],
            workers=2,
            chaos=chaos,
            retry=RetryPolicy(max_attempts=2),
            on_retry=retried.append,
        )
        assert out == [1, 4, 9, 16]
        assert len(retried) == 4  # every task's first attempt was chaosed

    def test_worker_death_detected_and_redispatched(self):
        """A hard os._exit on attempt 1 is detected via the process
        sentinel (no hang) and the task re-dispatched successfully."""
        chaos = ChaosPlan(seed=3, exit_rate=1.0, attempts=1, tasks=(1,))
        retried = []
        out = fan_out(
            _square,
            [1, 2, 3],
            workers=2,
            chaos=chaos,
            retry=RetryPolicy(max_attempts=2),
            on_retry=retried.append,
        )
        assert out == [1, 4, 9]
        assert [f.kind for f in retried] == ["worker-death"]
        assert "exit code" in retried[0].cause

    def test_timeout_kills_straggler_and_redispatches(self):
        chaos = ChaosPlan(
            seed=5, hang_rate=1.0, hang_s=60.0, attempts=1, tasks=(0,)
        )
        retried = []
        start = time.monotonic()
        out = fan_out(
            _square,
            [1, 2, 3],
            workers=2,
            chaos=chaos,
            retry=RetryPolicy(max_attempts=2, timeout_s=0.5),
            on_retry=retried.append,
        )
        assert time.monotonic() - start < 30.0  # nowhere near the 60s hang
        assert out == [1, 4, 9]
        assert [f.kind for f in retried] == ["timeout"]

    def test_exhausted_attempts_raise_with_count(self):
        chaos = ChaosPlan(seed=3, exception_rate=1.0, attempts=99, tasks=(1,))
        with pytest.raises(WorkerTaskError) as excinfo:
            fan_out(
                _square,
                [1, 2, 3],
                workers=2,
                chaos=chaos,
                retry=RetryPolicy(max_attempts=2),
            )
        assert excinfo.value.attempts == 2
        assert "after 2 attempts" in str(excinfo.value)

    @pytest.mark.parametrize("policy", ["skip", "degrade"])
    def test_skip_and_degrade_leave_none_slots(self, policy):
        chaos = ChaosPlan(seed=3, exception_rate=1.0, attempts=99, tasks=(1,))
        failures = []

        def run():
            return fan_out(
                _square,
                [1, 2, 3],
                workers=2,
                chaos=chaos,
                retry=RetryPolicy(max_attempts=2),
                on_error=policy,
                on_failure=failures.append,
            )

        if policy == "skip":
            with pytest.warns(RuntimeWarning, match="skipping task 1"):
                out = run()
        else:
            out = run()  # degrade records silently
        assert out == [1, None, 9]
        assert len(failures) == 1
        assert failures[0].index == 1
        assert failures[0].attempts == 2
        assert failures[0].kind == "exception"

    def test_on_error_validated(self):
        with pytest.raises(ValueError, match="on_error must be one of"):
            fan_out(_square, [1], workers=1, on_error="explode")

    def test_on_result_stays_ordered_on_complete_does_not_wait(self):
        """on_result is the in-order hook; on_complete fires per
        completion (the journaling hook) and sees every success too."""
        ordered = []
        completed = []
        fan_out(
            _square,
            list(range(8)),
            workers=3,
            on_result=lambda i, r: ordered.append(i),
            on_complete=lambda i, r: completed.append(i),
        )
        assert ordered == list(range(8))
        assert sorted(completed) == list(range(8))

    def test_keyboard_interrupt_leaves_no_children(self):
        """Satellite: a cancelled pool run terminates its workers."""

        def interrupt(index, result):
            raise KeyboardInterrupt

        before = len(multiprocessing.active_children())
        with pytest.raises(KeyboardInterrupt):
            fan_out(
                _square,
                list(range(6)),
                workers=2,
                on_result=interrupt,
            )
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if len(multiprocessing.active_children()) <= before:
                break
            time.sleep(0.05)
        assert len(multiprocessing.active_children()) <= before

    def test_chaos_forces_pool_even_serially(self):
        """workers=1 with chaos must not run chaos in the caller — an
        injected hard exit would kill the test process itself."""
        chaos = ChaosPlan(seed=3, exit_rate=1.0, attempts=1, tasks=(0,))
        out = fan_out(
            _square,
            [5],
            workers=1,
            chaos=chaos,
            retry=RetryPolicy(max_attempts=2),
        )
        assert out == [25]

    def test_retried_run_is_digest_identical(self):
        """The determinism contract under faults: chaos absorbed by
        retries yields byte-identical output to a clean serial run."""
        items = list(range(12))
        clean = fan_out(_square, items, workers=1)
        chaos = ChaosPlan(seed=11, exception_rate=0.5, attempts=1)
        chaotic = fan_out(
            _square,
            items,
            workers=3,
            chaos=chaos,
            retry=RetryPolicy(max_attempts=3),
        )
        assert canonical_json(clean) == canonical_json(chaotic)



def _flaky_or_broken(task):
    """``flaky`` fails its first attempt, ``broken`` every attempt.

    Markers live in the task's own directory, so each run starts clean.
    ``broken`` fails only after ``flaky`` has failed and a margin has
    passed, so a pool reads the two failures in task order, as the
    serial loop produces them.
    """
    kind, directory, x = task
    marker = os.path.join(directory, "flaky")
    if kind == "flaky" and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError(f"first attempt fails on {x}")
    if kind == "broken":
        deadline = time.monotonic() + 10.0
        while not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.1)
        raise ValueError(f"always fails on {x}")
    return x * x


def _count_run(task):
    directory, x = task
    with open(os.path.join(directory, f"{x}.runs"), "a") as fh:
        fh.write("ran\n")
    return x * x


class TestExecutorEquivalence:
    """The in-process loop and the pool share one outcome path: on the
    same workload they return the same results, report the same
    failures, call the hooks in the same order and warn alike."""

    def _observe(self, tmp_path, workers, on_error, retry):
        directory = tmp_path / f"workers{workers}"
        directory.mkdir()
        kinds = ["flaky", "broken", "ok", "ok"]
        items = [(kind, str(directory), x) for x, kind in enumerate(kinds)]
        record = lambda f: (f.index, f.attempts, f.kind, f.cause)
        seen = {"retry": [], "failure": [], "result": [], "complete": set()}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = fan_out(
                    _flaky_or_broken,
                    items,
                    workers=workers,
                    retry=retry,
                    on_error=on_error,
                    on_retry=lambda f: seen["retry"].append(record(f)),
                    on_failure=lambda f: seen["failure"].append(record(f)),
                    on_result=lambda i, r: seen["result"].append((i, r)),
                    on_complete=lambda i, r: seen["complete"].add(i),
                )
            except WorkerTaskError as exc:
                outcome = (exc.context, exc.cause, exc.attempts)
        seen["warnings"] = [
            str(w.message)
            for w in caught
            if str(w.message).startswith("skipping")
        ]
        return outcome, seen

    @pytest.mark.parametrize(
        "retry", [None, RetryPolicy(max_attempts=2)], ids=["once", "retried"]
    )
    @pytest.mark.parametrize("on_error", ["raise", "skip", "degrade"])
    def test_serial_and_pool_outcomes_match(self, tmp_path, on_error, retry):
        serial, serial_seen = self._observe(tmp_path, 1, on_error, retry)
        pool, pool_seen = self._observe(tmp_path, 2, on_error, retry)
        assert pool == serial
        if on_error == "raise":
            # The pool runs ahead of the failing task, so it may also
            # finish tasks the serial loop never reached.
            assert serial_seen.pop("complete") <= pool_seen.pop("complete")
        assert pool_seen == serial_seen
        if on_error == "skip":
            assert serial_seen["warnings"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_skip_warning_names_the_caller_of_fan_out(self, workers):
        """Both executors attribute a ``skip`` warning to the code that
        called :func:`fan_out`, not to a line of the executor's loop."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fan_out(_boom, [1, 2], workers=workers, on_error="skip")
        assert out == [None, None]
        skipped = [w for w in caught if str(w.message).startswith("skipping")]
        assert len(skipped) == 2
        assert {w.filename for w in skipped} == {__file__}

    def test_worker_death_reruns_only_its_own_task(self, tmp_path):
        """A hard exit loses only the task that was running.  Chaos exits
        before task 2's function starts, so every task's function runs
        exactly once: nothing queued behind the dead worker re-runs."""
        chaos = ChaosPlan(seed=3, exit_rate=1.0, attempts=1, tasks=(2,))
        items = [(str(tmp_path), x) for x in range(6)]
        retried = []
        out = fan_out(
            _count_run,
            items,
            workers=2,
            chaos=chaos,
            retry=RetryPolicy(max_attempts=2),
            on_retry=retried.append,
        )
        assert out == [x * x for x in range(6)]
        assert [(f.index, f.kind) for f in retried] == [(2, "worker-death")]
        for x in range(6):
            runs = (tmp_path / f"{x}.runs").read_text().splitlines()
            assert len(runs) == 1, x

def _campaign_digest(results) -> str:
    """One digest over every campaign's every day, in task order."""
    payload = {
        key: [day_metrics_payload(day.metrics) for day in result.days]
        for key, result in results
    }
    canonical_json(payload)  # must be canonicalizable
    return metrics_digest(payload)


class TestSeededCampaigns:
    """SeedSequence-spawned seeds, stable across worker counts."""

    def _tasks(self):
        schedule = alternating_schedule(3)
        return [
            (name, replace(SHORT_CONFIG, seed=seed), schedule)
            for name, seed in zip("abcd", spawn_seeds(77, 4))
        ]

    def test_workers_1_and_8_identical_digests(self):
        """The determinism contract, end to end: an 8-way pool produces
        byte-identical campaign digests to a serial run."""
        tasks = self._tasks()
        with pytest.warns(RuntimeWarning):  # 8 workers for 4 tasks
            eight = run_campaigns_parallel(tasks, workers=8)
        one = run_campaigns_parallel(tasks, workers=1)
        assert _campaign_digest(one) == _campaign_digest(eight)


def _wait_for(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


@pytest.mark.skipif(not can_work_ahead(), reason="needs fork and two CPUs")
class TestAheadWorker:
    """One forked producer, exactly one result ahead of its consumer."""

    def test_results_arrive_in_order_one_ahead(self):
        calls = multiprocessing.get_context("fork").Value("i", 0)

        def produce() -> int:
            with calls.get_lock():
                calls.value += 1
                return calls.value

        worker = AheadWorker(produce)
        try:
            for expected in (1, 2, 3):
                _wait_for(lambda: calls.value == expected)
                time.sleep(0.05)  # room to run ahead, were it allowed to
                assert calls.value == expected
                assert worker.take(f"result {expected}") == expected
        finally:
            worker.close()
        assert not worker._proc.is_alive()

    def test_exception_reraises_with_context_and_traceback(self):
        def produce():
            raise ValueError("no day today")

        worker = AheadWorker(produce)
        with pytest.raises(WorkerTaskError) as info:
            worker.take("day 5 (seed 9)")
        assert info.value.context == "day 5 (seed 9)"
        assert "no day today" in info.value.cause
        assert "ValueError" in info.value.worker_traceback
        assert multiprocessing.active_children() == []

    def test_worker_exits_on_eof_once_the_parent_end_closes(self):
        """The worker closed its inherited copy of the parent's end, so
        closing the parent's end is EOF to it, and it exits cleanly."""
        worker = AheadWorker(lambda: 1)
        assert worker.take("first") == 1
        worker._conn.close()
        worker._proc.join(timeout=10.0)
        assert worker._proc.exitcode == 0


class TestCanWorkAhead:
    """The one-CPU and daemonic-worker cases run through an
    ``Experiment`` in ``tests/test_day_ahead.py``."""

    def test_a_second_thread_stays_in_process(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert not can_work_ahead()
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
