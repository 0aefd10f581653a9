"""Resilient process fan-out shared by campaigns and the fleet runner.

This module is the one place multiprocessing happens.  It grew out of the
campaign runner's ``_fan_out`` helper (``sim/experiment.py``), then out of
the fail-fast ``imap`` loop that PR 6 shipped, and now serves both the
paper-shaped experiment campaigns and the fleet shard runner
(:mod:`repro.fleet`) with production-grade failure handling:

* :func:`fan_out` — an order-preserving parallel map built on a
  **submission loop** over dedicated worker processes: each worker runs
  one task at a time, sent over its pipe, and the parent watches worker
  *sentinels* so a hard-killed worker (SIGKILL, OOM) is detected and
  its task re-dispatched instead of hanging the run forever.  A serial
  run stays in the calling process and goes through the same outcome
  bookkeeping.  A :class:`RetryPolicy` adds per-task timeouts with
  straggler re-dispatch and bounded retries with deterministic seeded
  backoff — a retry re-runs the *same* task (same item, same seed), so
  a successful retry is digest-identical to a first-try success.  The
  ``on_error`` policy decides what an exhausted task does: ``"raise"``
  (fail the run, the historical behaviour), ``"skip"`` (drop it with a
  warning) or ``"degrade"`` (record it and keep going); skipped and
  degraded tasks surface as :class:`TaskFailure` records through the
  ``on_failure`` hook and as ``None`` result slots.
* :func:`spawn_seeds` — child seeds derived with
  :class:`numpy.random.SeedSequence` spawning, the statistically sound
  replacement for ad-hoc ``base_seed + i`` schemes: every child stream
  is independent no matter how close the parent seeds are.
* :func:`resolve_workers` — the worker-count policy (``None`` = one per
  task up to the CPU count; explicit values are validated, then clamped
  to the task count with a warning when they exceed it).
* :class:`AheadWorker` — one forked process that calls a producer one
  result ahead of its consumer, so the next result is made on a second
  CPU while the caller works on the last one.  A single-disk
  :class:`~repro.sim.experiment.Experiment` uses it to generate day
  *d+1* while day *d* simulates; :func:`can_work_ahead` is the rule for
  whether such a worker can run beside this process at all.

Determinism contract: tasks must be self-contained (their own seeds, no
shared state), so results are byte-identical at any worker count, with
any retry policy, and under any injected chaos that the retries absorb —
the regression tests pin ``workers=1`` against ``workers=8`` digests and
chaos runs against fault-free ones.

Chaos injection (``chaos=``) accepts any object with an
``apply(index, attempt)`` method — see
:class:`repro.faults.chaos.ChaosPlan` — called on the *worker* before
the task function, so injected hangs and hard exits exercise the real
recovery paths.  Attaching chaos forces pool execution even for
``workers=1`` (a hard exit must kill a child, not the caller).
"""

from __future__ import annotations

import heapq
import multiprocessing
import multiprocessing.connection
import os
import random
import sys
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generic, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")
_R = TypeVar("_R")

__all__ = [
    "ON_ERROR_POLICIES",
    "AheadWorker",
    "RetryPolicy",
    "TaskFailure",
    "WorkerTaskError",
    "can_work_ahead",
    "fan_out",
    "resolve_workers",
    "spawn_seeds",
]

ON_ERROR_POLICIES = ("raise", "skip", "degrade")
"""What :func:`fan_out` does with a task whose attempts are exhausted:
``raise`` fails the whole run (first exhausted task wins), ``skip`` drops
the task with a :class:`RuntimeWarning`, ``degrade`` records it silently.
Either way the failure reaches the ``on_failure`` hook and the task's
result slot is ``None``."""

_EXCEPTION = "exception"
_TIMEOUT = "timeout"
_WORKER_DEATH = "worker-death"


class WorkerTaskError(RuntimeError):
    """A task failed on a worker process (after any configured retries).

    Carries the task's context label (e.g. ``"fleet shard 3 (devices
    d0024..d0031, seed 1842516266)"``) and the worker-side traceback, so
    a failure in a 1,000-device run points at the shard and seed to
    re-run serially rather than at an anonymous pool frame.
    """

    def __init__(
        self,
        context: str,
        cause: str,
        worker_traceback: str,
        attempts: int = 1,
    ):
        super().__init__(f"{context}: {cause}")
        self.context = context
        self.cause = cause
        self.worker_traceback = worker_traceback
        self.attempts = attempts

    def __str__(self) -> str:  # keep the worker's trace visible in logs
        attempts = (
            f" (after {self.attempts} attempts)" if self.attempts > 1 else ""
        )
        return (
            f"{self.context}: {self.cause}{attempts}\n"
            f"--- worker traceback ---\n{self.worker_traceback}"
        )


@dataclass(frozen=True)
class TaskFailure:
    """One task's permanent failure record (its attempts are exhausted).

    ``kind`` is ``"exception"`` (the task function raised),
    ``"timeout"`` (the per-task deadline expired and the straggling
    worker was killed) or ``"worker-death"`` (the worker process died
    hard — SIGKILL, OOM, ``os._exit``).  The same record, with the
    attempt count of the *failed* attempt, is what the ``on_retry`` hook
    receives for non-final failures.
    """

    index: int
    context: str
    attempts: int
    kind: str
    cause: str
    worker_traceback: str = ""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries, per-task timeouts, deterministic seeded backoff.

    ``max_attempts`` counts the first try: the default ``3`` means one
    try plus two retries.  ``timeout_s`` (``None`` = wait forever) is the
    per-attempt deadline measured in the parent; an expired attempt's
    worker is killed and the task re-dispatched, which also bounds how
    long a hung or silently dead worker can stall the run.  Backoff for
    attempt ``k`` is ``backoff_s * 2**(k-1)`` capped at
    ``backoff_cap_s``, jittered into ``[0.5x, 1.5x)`` by a RNG seeded
    from ``(seed, task index, attempt)`` — deterministic per task, so
    two runs of the same failing workload schedule identically.

    Retries never change the task: the identical item (and therefore the
    identical task seed) is re-sent, so a retried success is
    bit-identical to a first-try success.
    """

    max_attempts: int = 3
    timeout_s: float | None = None
    backoff_s: float = 0.0
    backoff_cap_s: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if self.backoff_cap_s < 0:
            raise ValueError("backoff_cap_s must be non-negative")

    def delay_s(self, index: int, attempt: int) -> float:
        """Backoff before re-dispatching task ``index`` after ``attempt``."""
        if self.backoff_s <= 0:
            return 0.0
        base = min(self.backoff_s * 2.0 ** (attempt - 1), self.backoff_cap_s)
        jitter = random.Random(f"{self.seed}:{index}:{attempt}").random()
        return base * (0.5 + jitter)


def spawn_seeds(seed: int | np.random.SeedSequence, n: int) -> list[int]:
    """``n`` independent child seeds spawned from ``seed``.

    Uses :meth:`numpy.random.SeedSequence.spawn`, so the children's
    streams are pairwise independent even for adjacent parent seeds
    (unlike ``seed + i`` arithmetic, where nearby parents can yield
    correlated generators).  Each child is reduced to a single 64-bit
    integer so it can ride inside frozen config dataclasses, JSON
    metadata, and CLI reprs.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    sequence = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return [
        int(child.generate_state(2, np.uint64)[0])
        for child in sequence.spawn(n)
    ]


def resolve_workers(
    workers: int | None, tasks: int, what: str = "task"
) -> int:
    """Number of worker processes to use for ``tasks`` independent jobs.

    ``None`` means "use the machine": one worker per task up to the CPU
    count.  Explicit values below 1 are rejected outright (before any
    clamping, and regardless of the task count); values above the task
    count are clamped with a warning (the extra processes would only sit
    idle).
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if tasks <= 0:
        return 0
    if workers is None:
        workers = os.cpu_count() or 1
    elif workers > tasks:
        warnings.warn(
            f"requested {workers} workers for {tasks} {what}(s); "
            f"using {tasks} (one per {what})",
            RuntimeWarning,
            stacklevel=2,
        )
    return min(workers, tasks)


def _start_method() -> str:
    """``fork`` where the platform has it (the task function and the
    items then need not pickle), else ``spawn``."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def _caller_stacklevel() -> int:
    """The ``stacklevel`` at which a warning issued by the calling
    function names the first frame outside this module: the code that
    called :func:`fan_out`, however deep the serial or the pool
    executor's loop sits."""
    here = _caller_stacklevel.__code__.co_filename
    frame = sys._getframe(1)
    level = 1
    while frame is not None and frame.f_code.co_filename == here:
        frame = frame.f_back
        level += 1
    return level


def _worker_main(fn, chaos, conn) -> None:
    """Worker loop: receive one task at a time, send back its outcome.

    Each message from the parent is one ``(index, attempt, item)``
    triple (or ``None`` to shut down); each reply is one ``(ok,
    payload)`` pair.  Exceptions never cross the pipe raw — they are
    reduced to ``(repr, traceback)`` so the parent re-raises them with
    task context attached.
    """
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            index, attempt, item = task
            try:
                if chaos is not None:
                    chaos.apply(index, attempt)
                result = fn(item)
            except Exception as exc:  # noqa: BLE001 - shipped to parent
                conn.send((False, (repr(exc), traceback.format_exc())))
            else:
                conn.send((True, result))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        return


class _Worker:
    """One managed worker process, its duplex pipe and its one task.

    ``task`` is the ``(index, attempt)`` the worker is running, or
    ``None`` while it is idle — the one task a timeout or a worker death
    is charged to; ``started`` is when that task was sent, which is what
    the per-task deadline counts from.
    """

    __slots__ = ("proc", "conn", "task", "started")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.task: tuple[int, int] | None = None
        self.started = 0.0


class _Run:
    """One fan-out's outcome bookkeeping, shared by both executors.

    An executor runs attempts and reports each one through
    :meth:`_succeed` or :meth:`_attempt_failed`; this class applies the
    retry and ``on_error`` policies and calls the hooks, so what happens
    to a task does not depend on which executor ran it.  A retry is
    scheduled on the ``delayed`` heap as ``(due, index, attempt)``.
    """

    def __init__(
        self,
        fn,
        tasks,
        *,
        context,
        retry,
        on_error,
        on_result,
        on_complete,
        on_retry,
        on_failure,
    ) -> None:
        self.fn = fn
        self.tasks = tasks
        self.context = context
        self.retry = retry
        self.max_attempts = retry.max_attempts if retry else 1
        self.on_error = on_error
        self.on_result = on_result
        self.on_complete = on_complete
        self.on_retry = on_retry
        self.on_failure = on_failure
        n = len(tasks)
        self.slots: list[Any] = [None] * n
        self.ok: list[bool] = [False] * n
        self.resolved: list[bool] = [False] * n
        self.delayed: list[tuple[float, int, int]] = []
        self.completed = 0
        self.delivered = 0

    def _succeed(self, index: int, result: Any) -> None:
        self.slots[index] = result
        self.ok[index] = True
        self.resolved[index] = True
        self.completed += 1
        if self.on_complete is not None:
            self.on_complete(index, result)
        self._deliver()

    def _attempt_failed(
        self, index: int, attempt: int, kind: str, cause: str, worker_tb: str
    ) -> None:
        failure = TaskFailure(
            index, self.context(index), attempt, kind, cause, worker_tb
        )
        if attempt < self.max_attempts:
            if self.on_retry is not None:
                self.on_retry(failure)
            delay = self.retry.delay_s(index, attempt) if self.retry else 0.0
            heapq.heappush(
                self.delayed,
                (time.monotonic() + delay, index, attempt + 1),
            )
            return
        if self.on_error == "raise":
            raise WorkerTaskError(
                failure.context, cause, worker_tb, attempts=attempt
            )
        if self.on_error == "skip":
            warnings.warn(
                f"skipping {failure.context}: {cause} "
                f"(after {attempt} attempt(s))",
                RuntimeWarning,
                stacklevel=_caller_stacklevel(),
            )
        if self.on_failure is not None:
            self.on_failure(failure)
        self.resolved[index] = True
        self.completed += 1
        self._deliver()

    def _deliver(self) -> None:
        """Advance the in-order delivery pointer over resolved slots."""
        n = len(self.tasks)
        while self.delivered < n and self.resolved[self.delivered]:
            if self.ok[self.delivered] and self.on_result is not None:
                self.on_result(self.delivered, self.slots[self.delivered])
            self.delivered += 1


class _InlineRun(_Run):
    """The serial executor: every attempt runs in the calling process.

    Tasks run in order, and a failed attempt is retried after its
    backoff and before the next task starts.
    """

    def run(self) -> list[Any]:
        for index, item in enumerate(self.tasks):
            attempt = 1
            while not self.resolved[index]:
                if self.delayed:  # the retry the last failure scheduled
                    due, _, attempt = heapq.heappop(self.delayed)
                    time.sleep(max(0.0, due - time.monotonic()))
                try:
                    result = self.fn(item)
                except Exception as exc:  # noqa: BLE001 - the policy decides
                    self._attempt_failed(
                        index, attempt, _EXCEPTION, repr(exc),
                        traceback.format_exc(),
                    )
                else:
                    self._succeed(index, result)
        return self.slots


class _PoolRun(_Run):
    """The pool executor: a submission loop over worker processes."""

    def __init__(self, fn, tasks, workers, chaos, **outcome) -> None:
        super().__init__(fn, tasks, **outcome)
        self.workers = workers
        self.chaos = chaos
        self.timeout_s = self.retry.timeout_s if self.retry else None
        self.ctx = multiprocessing.get_context(_start_method())
        self.pending: deque[tuple[int, int]] = deque(
            (index, 1) for index in range(len(tasks))
        )
        self.pool: list[_Worker] = []

    # -- lifecycle -------------------------------------------------------

    def run(self) -> list[Any]:
        try:
            self.pool = [self._spawn() for _ in range(self.workers)]
            self._loop()
        except BaseException:
            self._shutdown(force=True)
            raise
        self._shutdown(force=False)
        return self.slots

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(self.fn, self.chaos, child_conn),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def _shutdown(self, force: bool) -> None:
        """Stop every worker; ``force`` skips the polite goodbye.

        The forced path runs on any error — including
        ``KeyboardInterrupt`` — so a cancelled run never leaves pool
        children behind: terminate, then join, then SIGKILL stragglers.
        """
        for worker in self.pool:
            if not force:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            try:
                worker.conn.close()
            except OSError:
                pass
        for worker in self.pool:
            if force:
                worker.proc.terminate()
            worker.proc.join(timeout=2.0)
        for worker in self.pool:
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=2.0)
        self.pool = []

    # -- main loop -------------------------------------------------------

    def _loop(self) -> None:
        n = len(self.tasks)
        while self.completed < n:
            now = time.monotonic()
            while self.delayed and self.delayed[0][0] <= now:
                _, index, attempt = heapq.heappop(self.delayed)
                self.pending.append((index, attempt))
            while len(self.pool) < self.workers and (
                self.pending or self.delayed
            ):
                self.pool.append(self._spawn())
            self._dispatch()
            self._wait()
            self._check_timeouts()

    def _dispatch(self) -> None:
        for worker in self.pool:
            if worker.task is not None or not self.pending:
                continue
            index, attempt = self.pending.popleft()
            try:
                worker.conn.send((index, attempt, self.tasks[index]))
            except (BrokenPipeError, OSError):
                # Died before dispatch: requeue, let sentinel handling
                # reap and replace it.
                self.pending.appendleft((index, attempt))
                continue
            worker.task = (index, attempt)
            worker.started = time.monotonic()

    def _wait(self) -> None:
        objects = [w.conn for w in self.pool if w.task is not None]
        objects += [worker.proc.sentinel for worker in self.pool]
        timeout = self._wait_timeout()
        if not objects:
            if timeout is not None and timeout > 0:
                time.sleep(timeout)
            elif not self.pending and not self.delayed:
                raise RuntimeError(
                    "fan_out stalled: tasks unfinished but nothing running, "
                    "queued, or scheduled for retry"
                )
            return
        ready = set(
            multiprocessing.connection.wait(objects, timeout=timeout)
        )
        for worker in list(self.pool):
            if worker.conn in ready:
                self._drain(worker)
        for worker in list(self.pool):
            if worker.proc.sentinel in ready and worker in self.pool:
                self._reap_dead(worker)

    def _wait_timeout(self) -> float | None:
        now = time.monotonic()
        candidates = []
        if self.timeout_s is not None:
            for worker in self.pool:
                if worker.task is not None:
                    candidates.append(worker.started + self.timeout_s - now)
        if self.delayed:
            candidates.append(self.delayed[0][0] - now)
        if not candidates:
            return None
        return max(0.0, min(candidates))

    # -- event handling --------------------------------------------------

    def _drain(self, worker: _Worker) -> None:
        """Take the worker's result, if its task has sent one."""
        if worker.task is None:
            return
        try:
            if not worker.conn.poll():
                return
            ok, payload = worker.conn.recv()
        except (EOFError, OSError):
            return  # died mid-send; the sentinel path picks it up
        index, attempt = worker.task
        worker.task = None
        if ok:
            self._succeed(index, payload)
        else:
            cause, worker_tb = payload
            self._attempt_failed(index, attempt, _EXCEPTION, cause, worker_tb)

    def _stop(self, worker: _Worker) -> None:
        """Take a worker out of the pool and make sure its process ends."""
        self.pool.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(timeout=2.0)
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=2.0)

    def _reap_dead(self, worker: _Worker) -> None:
        """A worker's sentinel fired: it exited without being asked.

        A result sent before the exit is still readable, so drain first;
        a task still in flight was lost with the process and is charged
        a failed attempt.
        """
        self._drain(worker)
        self._stop(worker)
        if worker.task is None:
            return
        index, attempt = worker.task
        self._attempt_failed(
            index,
            attempt,
            _WORKER_DEATH,
            f"worker process died (exit code {worker.proc.exitcode})",
            "",
        )

    def _check_timeouts(self) -> None:
        if self.timeout_s is None:
            return
        now = time.monotonic()
        for worker in list(self.pool):
            if worker.task is None or now - worker.started < self.timeout_s:
                continue
            self._drain(worker)  # a result may have raced the deadline
            if worker.task is None:
                continue
            index, attempt = worker.task
            self._stop(worker)
            self._attempt_failed(
                index,
                attempt,
                _TIMEOUT,
                f"timed out after {self.timeout_s:g}s "
                "(straggler killed and re-dispatched)",
                "",
            )


def can_work_ahead() -> bool:
    """Whether an :class:`AheadWorker` can run beside this process.

    It needs the ``fork`` start method (a producer may hold state that
    cannot pickle, such as the generator's ``mmap`` free maps), a process
    that may have children (a daemonic :func:`fan_out` pool worker may
    not) and has no other thread (one could hold a lock that the fork's
    copy would wait on forever), and a second CPU that this process may
    run on: on one CPU the worker only takes turns with its consumer.
    """
    if (
        _start_method() != "fork"
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _ahead_main(produce, conn, parent_end) -> None:
    """Worker loop: make one result, send it, wait until it is taken.

    Each reply is one ``(ok, payload)`` pair, as in :func:`_worker_main`;
    after an exception the worker sends its ``(repr, traceback)`` and
    exits.  It also exits once the parent is gone: its only copy of the
    parent's end is closed here, so the parent's exit reads as EOF on
    ``recv`` or EPIPE on ``send``.
    """
    parent_end.close()
    try:
        while True:
            try:
                result = produce()
            except Exception as exc:  # noqa: BLE001 - shipped to parent
                conn.send((False, (repr(exc), traceback.format_exc())))
                return
            conn.send((True, result))
            conn.recv()  # the parent has taken the result: make the next
    except (EOFError, OSError, KeyboardInterrupt):
        return


class AheadWorker(Generic[_R]):
    """``produce()`` on a forked process, exactly one result ahead.

    The worker calls ``produce`` as soon as it starts, and again each time
    :meth:`take` has taken the last result, so result *k+1* is made while
    the caller works with result *k*.  ``produce`` runs on the fork's copy
    of whatever it is bound to: from the fork on, the worker's copy is the
    one that advances and the caller's stays where the fork left it.

    :meth:`take` raises :class:`WorkerTaskError` with the given context if
    ``produce`` raised (with the worker's traceback) or the worker died;
    it never hangs on a dead worker.  :meth:`close` terminates and joins
    the worker; the owner should tie it to its own lifetime with
    :func:`weakref.finalize`.  The worker is daemonic, so it also ends
    when this process exits.  Check :func:`can_work_ahead` first.
    """

    def __init__(self, produce: Callable[[], _R]) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(
            target=_ahead_main,
            args=(produce, child_end, self._conn),
            daemon=True,
        )
        self._proc.start()
        child_end.close()

    def take(self, context: str, last: bool = False) -> _R:
        """The next result; ``context`` names it in a failure.  After the
        ``last`` one the worker is closed instead of making another."""
        conn, proc = self._conn, self._proc
        try:
            multiprocessing.connection.wait([conn, proc.sentinel])
            ok, payload = conn.recv()
        except (EOFError, OSError):
            self.close()
            raise WorkerTaskError(
                context,
                f"worker process died (exit code {proc.exitcode})",
                "",
            ) from None
        if not ok:
            self.close()
            raise WorkerTaskError(context, *payload)
        if last:
            self.close()
            return payload
        try:
            conn.send(True)  # make the next one
        except OSError:
            pass  # died since sending: the next take reports it
        return payload

    def close(self) -> None:
        """Stop the worker, whatever it is doing; idempotent."""
        self._conn.close()
        proc = self._proc
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=2.0)


def fan_out(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    workers: int | None = None,
    *,
    label: Callable[[int, _T], str] | None = None,
    on_result: Callable[[int, _R], None] | None = None,
    on_complete: Callable[[int, _R], None] | None = None,
    on_retry: Callable[[TaskFailure], None] | None = None,
    on_failure: Callable[[TaskFailure], None] | None = None,
    retry: RetryPolicy | None = None,
    on_error: str = "raise",
    chaos: Any | None = None,
    what: str = "task",
) -> list[_R]:
    """Map ``fn`` over ``items`` on worker processes, order-preserving.

    Runs in-process for a single worker (or item), so serial runs never
    pay multiprocessing overhead, and results are byte-identical either
    way: every item must be an independent, self-seeded unit of work.
    Two things force pool execution even at ``workers=1``: a ``retry``
    policy with a timeout (a hung task can only be preempted from
    outside the process) and ``chaos`` (an injected hard exit must kill
    a child, not the caller).  In the pool each worker runs one task at
    a time.  Both paths share one outcome bookkeeping, so retries,
    ``on_error`` and the hooks behave the same on either.

    ``label`` produces the context string attached to a failure (it
    receives the item's index and the item itself).

    Hooks, all called in the parent: ``on_result(index, result)`` in
    task order for successes (the progress hook for long fleet runs);
    ``on_complete(index, result)`` immediately in *completion* order
    (the journaling hook — a checkpoint must not wait for in-order
    delivery behind a straggler); ``on_retry(failure)`` when an attempt
    fails but will be retried; ``on_failure(failure)`` when a task's
    attempts are exhausted under ``on_error="skip"``/``"degrade"``.

    Failure semantics are set by ``retry`` (attempts, per-task timeout,
    seeded backoff — see :class:`RetryPolicy`) and ``on_error`` (see
    :data:`ON_ERROR_POLICIES`).  With the defaults — no retries,
    ``on_error="raise"`` — the first failed task fails the run, and a
    hard-killed worker is reported instead of hanging it.
    """
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )
    tasks = list(items)
    workers = resolve_workers(workers, len(tasks), what=what)

    def context(index: int) -> str:
        if label is not None:
            return label(index, tasks[index])
        return f"{what} {index}"

    if not tasks:
        return []
    outcome = dict(
        context=context,
        retry=retry,
        on_error=on_error,
        on_result=on_result,
        on_complete=on_complete,
        on_retry=on_retry,
        on_failure=on_failure,
    )
    needs_pool = chaos is not None or (
        retry is not None and retry.timeout_s is not None
    )
    if workers <= 1 and not needs_pool:
        return _InlineRun(fn, tasks, **outcome).run()
    return _PoolRun(fn, tasks, workers, chaos, **outcome).run()
