"""Shard construction and execution for fleet runs.

A *shard* is a contiguous group of devices run by one
:class:`~repro.sim.multifs.MultiDiskExperiment` on one worker process.
:func:`build_shard_tasks` turns a :class:`~repro.fleet.spec.FleetSpec`
into picklable :class:`ShardTask` units — all seeds spawned up front via
``SeedSequence`` (one child per shard, grandchildren per device, plus
one child for the fleet-wide shared hot set) — and :func:`run_fleet`
fans them out through :func:`repro.parallel.fan_out`.

Only :class:`~repro.fleet.result.ShardResult` objects cross the process
boundary back: fixed-size log-scale histograms and per-device scalar
totals, never raw samples or per-request state.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..parallel import (
    RetryPolicy,
    TaskFailure,
    fan_out,
    resolve_workers,
    spawn_seeds,
)
from ..sim.experiment import ExperimentConfig
from ..sim.multifs import MultiDiskExperiment
from ..stats.streaming import LogHistogram
from ..workload.tenancy import SharedHotSet, device_profiles
from .checkpoint import FleetJournal
from .result import FleetResult, ShardFailure, ShardResult
from .spec import FleetSpec

__all__ = ["ShardTask", "build_shard_tasks", "run_fleet"]


@dataclass(frozen=True)
class ShardTask:
    """One shard's worth of work, self-contained and picklable."""

    index: int
    seed: int
    """The shard's own spawned seed (reported in error context and
    results so a failing shard can be re-run serially)."""
    configs: tuple[ExperimentConfig, ...]
    """One per device."""
    schedule: tuple[bool, ...]

    @property
    def device_names(self) -> tuple[str, ...]:
        return tuple(config.name or "" for config in self.configs)


def _seed_of(sequence: np.random.SeedSequence) -> int:
    return int(sequence.generate_state(2, np.uint64)[0])


def build_shard_tasks(spec: FleetSpec) -> list[ShardTask]:
    """Deterministically expand a fleet spec into shard tasks.

    The seed tree is ``SeedSequence(spec.seed).spawn(num_shards + 1)``:
    child ``i`` seeds shard ``i``'s devices (one grandchild each), and
    the last child seeds the fleet-wide :class:`SharedHotSet`.  Nothing
    here depends on the worker count, so the expansion — and therefore
    the whole run — is identical at any parallelism.
    """
    schedule = spec.resolved_schedule()
    profiles = device_profiles(spec.tenancy, spec.devices, hours=spec.hours)
    children = np.random.SeedSequence(spec.seed).spawn(spec.num_shards + 1)
    shared_hot = None
    if spec.tenancy.hot_set_overlap > 0:
        shared_hot = SharedHotSet(
            fraction=spec.tenancy.hot_set_overlap,
            seed=_seed_of(children[-1]),
        )
    tasks: list[ShardTask] = []
    for shard, sequence in enumerate(children[: spec.num_shards]):
        indices = spec.shard_devices(shard)
        device_seeds = spawn_seeds(sequence, len(indices))
        configs = tuple(
            ExperimentConfig(
                profile=profiles[device],
                disk=spec.disk,
                name=spec.device_name(device),
                seed=device_seeds[offset],
                num_blocks=spec.num_blocks,
                counter=spec.counter,
                shared_hot=shared_hot,
                policy=spec.policy,
            )
            for offset, device in enumerate(indices)
        )
        tasks.append(
            ShardTask(
                index=shard,
                seed=_seed_of(sequence),
                configs=configs,
                schedule=schedule,
            )
        )
    return tasks


def _run_shard(task: ShardTask) -> ShardResult:
    """Run one shard's multi-device experiment through its schedule.

    Executed on a worker process: everything returned must be small and
    mergeable (histograms + scalars), since a fleet run ships one of
    these per shard back to the parent.
    """
    experiment = MultiDiskExperiment(list(task.configs))
    service_on = LogHistogram()
    service_off = LogHistogram()
    device_requests: Counter[str] = Counter()
    rearranged_blocks = 0
    for day, on_today in enumerate(task.schedule):
        on_tomorrow = (
            task.schedule[day + 1] if day + 1 < len(task.schedule) else False
        )
        result = experiment.run_day(
            rearranged=on_today, rearrange_tomorrow=on_tomorrow
        )
        target = service_on if on_today else service_off
        for name, metrics in result.per_device.items():
            target.absorb_time_histogram(metrics.all.service_histogram)
        device_requests.update(result.per_device_requests)
        rearranged_blocks = sum(result.rearranged_blocks.values())
    return ShardResult(
        index=task.index,
        seed=task.seed,
        device_requests=dict(device_requests),
        service_on=service_on,
        service_off=service_off,
        rearranged_blocks=rearranged_blocks,
        days=len(task.schedule),
        events=experiment.events_dispatched,
    )


def _shard_label(index: int, task: ShardTask) -> str:
    names = task.device_names
    return (
        f"fleet shard {task.index} "
        f"(devices {names[0]}..{names[-1]}, seed {task.seed})"
    )


def run_fleet(
    spec: FleetSpec,
    workers: int | None = None,
    on_shard: Callable[[int, ShardResult], None] | None = None,
    *,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    retry: RetryPolicy | None = None,
    on_error: str = "raise",
    chaos: Any | None = None,
    on_retry: Callable[[TaskFailure], None] | None = None,
    on_failure: Callable[[TaskFailure], None] | None = None,
) -> FleetResult:
    """Run a whole fleet and aggregate its shard results.

    Execution knobs — ``workers`` (``None`` = one worker per shard up to
    the CPU count; each worker runs one shard at a time), ``retry``
    (per-shard timeouts, bounded retries, seeded backoff) and ``chaos``
    (injected worker faults, for testing) — never change the digest: a
    retried or chaos-ridden run that completes is bit-identical to a
    clean serial one.  Attaching ``chaos`` forces pool
    execution even at ``workers=1``, since injected hard exits must kill
    a child process, not the caller.

    ``checkpoint`` journals each completed shard to a JSONL file as it
    lands; with ``resume=True`` an existing journal's shards are loaded
    (and skipped) first, so an interrupted run finishes paying only for
    the shards it lost.  Without ``resume``, an existing journal is
    truncated: a fresh run must not silently mix with stale records.

    ``on_error`` decides what exhausted shards do (see
    :data:`repro.parallel.ON_ERROR_POLICIES`): ``"raise"`` fails the
    run; ``"skip"``/``"degrade"`` drop the shard and return a *partial*
    :class:`FleetResult` carrying a failed-shard manifest, with its
    percentiles annotated as degraded in reports.

    Hooks run in the parent: ``on_shard(shard_index, result)`` in shard
    order (progress), ``on_retry(TaskFailure)`` per retried attempt,
    ``on_failure(TaskFailure)`` per permanently failed shard.
    """
    tasks = build_shard_tasks(spec)
    journaled: dict[int, ShardResult] = {}
    journal: FleetJournal | None = None
    if checkpoint is not None:
        journal = FleetJournal(checkpoint, spec)
        if resume:
            journaled = journal.load()
        journal.open_for_append(fresh=not resume)
        for index in sorted(journaled):
            journal_result = journaled[index]
            if on_shard is not None:
                on_shard(index, journal_result)
    pending = [task for task in tasks if task.index not in journaled]
    workers = resolve_workers(
        workers, len(pending) or len(tasks), what="fleet shard"
    )

    retried = 0
    failures: list[ShardFailure] = []

    def note_retry(failure: TaskFailure) -> None:
        nonlocal retried
        retried += 1
        if on_retry is not None:
            on_retry(failure)

    def note_failure(failure: TaskFailure) -> None:
        task = pending[failure.index]
        failures.append(
            ShardFailure(
                index=task.index,
                devices=task.device_names,
                seed=task.seed,
                attempts=failure.attempts,
                kind=failure.kind,
                error=failure.cause,
            )
        )
        if on_failure is not None:
            on_failure(failure)

    def journal_shard(index: int, result: ShardResult) -> None:
        assert journal is not None
        journal.append(result)

    def deliver(index: int, result: ShardResult) -> None:
        if on_shard is not None:
            on_shard(pending[index].index, result)

    try:
        fresh = fan_out(
            _run_shard,
            pending,
            workers,
            label=_shard_label,
            on_result=deliver,
            on_complete=journal_shard if journal is not None else None,
            on_retry=note_retry,
            on_failure=note_failure,
            retry=retry,
            on_error=on_error,
            chaos=chaos,
            what="fleet shard",
        )
    finally:
        if journal is not None:
            journal.close()
    completed = dict(journaled)
    completed.update(
        (task.index, result)
        for task, result in zip(pending, fresh)
        if result is not None
    )
    shards = [completed[index] for index in sorted(completed)]
    return FleetResult(
        spec=spec,
        shards=shards,
        workers=workers,
        failures=failures,
        retried_tasks=retried,
    )
