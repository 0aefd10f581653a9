"""Stable, typed entry points — the supported public surface.

Scripts and notebooks should import from here::

    from repro.api import simulate_day, run_campaign, run_bench

    day = simulate_day(hours=0.25, policy="nightly")
    print(day.metrics.all.mean_seek_time_ms)

Deep imports (``repro.sim.experiment`` and friends) keep working, but
their layout may shift between releases; renamed keywords get one release
of :class:`DeprecationWarning` and are then removed, after which passing
one raises Python's stock :class:`TypeError` for an unexpected keyword
argument (see ``docs/api.md``).  The names in this module's ``__all__``
do not break.

Every function returns the library's typed result objects —
:class:`~repro.sim.experiment.DayResult`,
:class:`~repro.sim.experiment.CampaignResult`,
:class:`~repro.bench.runner.BenchReport` and
:class:`~repro.traces.replay.TraceReplayResult` — never bare dicts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from pathlib import Path

from .bench import BenchReport, get_scenarios, run_suite
from .fleet import FleetResult, FleetSpec
from .fleet import run_fleet as _run_fleet
from .obs.tracer import NULL_TRACER, Tracer
from .policy import (
    NightlyPolicy,
    NoRearrangement,
    OnlinePolicy,
    RearrangementPolicy,
)
from .sim.experiment import (
    CampaignResult,
    DayResult,
    Experiment,
    ExperimentConfig,
    alternating_schedule,
)
from .sim.experiment import run_campaign as _run_campaign
from .sim.ssd import SsdConfig, SsdDayResult, SsdExperiment
from .traces.ingest import ingest_trace
from .traces.replay import SsdReplayResult, TraceReplayResult, replay_jobs
from .traces.rescale import DEFAULT_GAP_MS
from .workload.profiles import PROFILES, WorkloadProfile

__all__ = [
    "BenchReport",
    "CampaignResult",
    "DayResult",
    "ExperimentConfig",
    "FleetResult",
    "FleetSpec",
    "NightlyPolicy",
    "NoRearrangement",
    "OnlinePolicy",
    "RearrangementPolicy",
    "SsdConfig",
    "SsdDayResult",
    "SsdExperiment",
    "SsdReplayResult",
    "TraceReplayResult",
    "make_config",
    "replay_trace",
    "run_bench",
    "run_campaign",
    "run_fleet",
    "simulate_day",
]

def make_config(
    profile: str | WorkloadProfile = "system",
    disk: str = "toshiba",
    *,
    hours: float | None = None,
    seed: int = 1993,
    **overrides: object,
) -> ExperimentConfig | SsdConfig:
    """Build an :class:`ExperimentConfig` (or :class:`SsdConfig`) from
    short names.

    ``profile`` is a preset name (``"system"`` or ``"users"``) or a full
    :class:`WorkloadProfile`; ``disk`` is ``"toshiba"``, ``"fujitsu"``,
    the ~8 GB ``"modern"`` scale-testing drive, or ``"ssd"`` for the
    page-mapped flash backend (``docs/ftl.md``); ``hours`` shortens the
    simulated day (the paper's days are 15 h — 0.1 to 0.25 keeps a day
    under a second).  Any remaining keywords pass through to the config
    class unchanged — :class:`ExperimentConfig` takes ``num_blocks=``,
    ``placement_policy=``, ``faults=``, ``counter="spacesaving"`` for the
    bounded top-k sketch of ``docs/scaling.md``, ...; with ``disk="ssd"``
    the FTL knobs apply instead (``cmt_capacity=``, ``gc_policy=``,
    ``hot_threshold=``, ``reference_disk=``, ...).
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            known = ", ".join(sorted(PROFILES))
            raise KeyError(
                f"unknown profile {profile!r}; known: {known}"
            ) from None
    if hours is not None:
        profile = profile.scaled(hours)
    if disk == "ssd":
        return SsdConfig(profile=profile, seed=seed, **overrides)
    return ExperimentConfig(profile=profile, disk=disk, seed=seed, **overrides)


def simulate_day(
    config: ExperimentConfig | SsdConfig | None = None,
    *,
    policy: RearrangementPolicy | str | None = None,
    profile: str | WorkloadProfile = "system",
    disk: str = "toshiba",
    hours: float | None = None,
    seed: int = 1993,
    tracer: Tracer = NULL_TRACER,
) -> DayResult | SsdDayResult:
    """Simulate one measurement day and return its :class:`DayResult`.

    ``policy`` selects *when* blocks move (``repro.policy``):

    * ``None`` (default) — a plain monitoring day; nothing moves.
    * ``"nightly"`` / :class:`NightlyPolicy` — a training (off) day runs
      first — the paper needs one day of reference counts before blocks
      can move — and the second, rearranged day is returned.
    * ``"online"`` / :class:`OnlinePolicy` — one day with incremental
      migration during detected idle windows (no training day needed:
      the analyzer's live counts drive the moves).
    * ``"off"`` / :class:`NoRearrangement` — one day, monitoring only.

    Pass a ``config`` for full control, or the ``profile``/``disk``/
    ``hours``/``seed`` shorthand.  With ``disk="ssd"`` (or an
    :class:`SsdConfig`) the day runs through the page-mapped FTL instead
    and returns an :class:`SsdDayResult`; there ``policy`` decides
    hot/cold write separation, not block moves (``docs/ftl.md``).  The
    removed ``rearranged=`` boolean is an unknown keyword now: passing it
    raises ``TypeError: simulate_day() got an unexpected keyword argument
    'rearranged'``; use ``policy=``.
    """
    if config is None:
        config = make_config(profile, disk, hours=hours, seed=seed)
    if isinstance(config, SsdConfig):
        if policy is not None:
            config = replace(config, policy=policy)
        return SsdExperiment(config, tracer=tracer).run_day()
    if policy is not None:
        config = replace(config, policy=policy)
    resolved = config.resolved_policy()
    experiment = Experiment(config, tracer=tracer)
    if isinstance(resolved, OnlinePolicy):
        return experiment.run_day(rearranged=True, rearrange_tomorrow=False)
    if isinstance(resolved, NightlyPolicy) and (
        policy is not None or config.policy is not None
    ):
        experiment.run_day(rearranged=False, rearrange_tomorrow=True)
        return experiment.run_day(rearranged=True, rearrange_tomorrow=False)
    return experiment.run_day(rearranged=False, rearrange_tomorrow=False)


def run_campaign(
    config: ExperimentConfig | None = None,
    *,
    days: int = 4,
    schedule: Sequence[bool] | None = None,
    profile: str | WorkloadProfile = "system",
    disk: str = "toshiba",
    hours: float | None = None,
    seed: int = 1993,
    tracer: Tracer = NULL_TRACER,
) -> CampaignResult:
    """Run a multi-day campaign and return its :class:`CampaignResult`.

    Without an explicit ``schedule`` the campaign alternates off/on days
    over ``days`` days (the paper's Tables 2–6 shape).  ``schedule`` is a
    per-day list of "rearranged today" flags; day 0 must be ``False``.
    """
    if config is None:
        config = make_config(profile, disk, hours=hours, seed=seed)
    if schedule is None:
        schedule = alternating_schedule(days)
    return _run_campaign(config, list(schedule), tracer=tracer)


def replay_trace(
    source: str | Path,
    *,
    format: str = "auto",
    mapping: str = "compact",
    disk: str = "toshiba",
    time_scale: float = 1.0,
    loop: str = "open",
    gap_ms: float = DEFAULT_GAP_MS,
    queue: str = "scan",
    rearrange: bool = False,
    num_blocks: int | None = None,
    limit: int | None = None,
    target_blocks: int | None = None,
    source_span: int | None = None,
    tracer: Tracer = NULL_TRACER,
    fast: bool = True,
) -> TraceReplayResult | SsdReplayResult:
    """Ingest a raw block trace and replay it through the driver.

    ``source`` is a blkparse text file or an MSR-Cambridge-style CSV
    (``format="auto"`` sniffs).  The trace's addresses are mapped onto
    ``disk`` with the given ``mapping`` strategy, its timing is rescaled
    by ``time_scale`` and converted per ``loop``, and the resulting jobs
    run through a fresh adaptive driver.  With ``rearrange=True`` the
    replay is pre-trained on the trace itself first.  The returned
    :class:`TraceReplayResult` carries the day's
    :class:`~repro.stats.metrics.DayMetrics` plus the ingest stage's
    output (``.ingest`` — jobs, trace character, mapping facts).

    ``disk="ssd"`` replays the trace through the page-mapped FTL backend
    (``docs/ftl.md``) and returns an :class:`SsdReplayResult` — write
    amplification, GC and mapping-cache counters instead of seek
    metrics; ``rearrange=True`` there pre-trains hot/cold write
    separation on the trace.  ``fast`` toggles the batch simulation
    kernel (:mod:`repro.sim.vector`); metrics are bit-identical either
    way.

    Deterministic end to end: the same file and options produce
    bit-identical metrics on every run.  See ``docs/traces.md``.
    """
    ingested = ingest_trace(
        source,
        format=format,
        mapping=mapping,
        disk=disk,
        target_blocks=target_blocks,
        source_span=source_span,
        time_scale=time_scale,
        loop=loop,
        gap_ms=gap_ms,
        limit=limit,
    )
    result = replay_jobs(
        ingested.jobs,
        disk=disk,
        queue=queue,
        rearrange=rearrange,
        num_blocks=num_blocks,
        tracer=tracer,
        fast=fast,
    )
    result.ingest = ingested
    return result


def run_fleet(
    spec: FleetSpec | None = None,
    *,
    devices: int = 64,
    disk: str = "fujitsu",
    days: int = 3,
    hours: float | None = None,
    devices_per_shard: int = 8,
    tenants: int = 256,
    tenant_skew: float = 1.1,
    hot_set_overlap: float = 0.5,
    seed: int = 1993,
    workers: int | None = None,
    on_shard=None,
    checkpoint=None,
    resume: bool = False,
    retry=None,
    on_error: str = "raise",
    chaos=None,
    chunk_size: int | None = None,
    fast: bool = True,
    **overrides: object,
) -> FleetResult:
    """Run a multi-device fleet experiment; see ``docs/fleet.md``.

    Pass a full :class:`FleetSpec` for every knob, or use the keyword
    shorthand: ``devices`` disks of model ``disk``, serving ``tenants``
    users (Zipf-skewed by ``tenant_skew``) whose hot content overlaps
    across devices by ``hot_set_overlap``.  Devices are grouped into
    shards of ``devices_per_shard`` and fanned out to ``workers``
    processes (``None`` = one per shard up to the CPU count).

    The result's percentiles, on/off delta, and digest depend only on
    the spec — never on ``workers`` nor the resilience knobs — so runs
    are reproducible at any parallelism.  ``checkpoint`` journals each
    completed shard to a JSONL file (``resume=True`` skips journaled
    shards on restart); ``retry`` takes a
    :class:`~repro.parallel.RetryPolicy` (per-shard timeouts, bounded
    retries, seeded backoff); ``on_error`` is ``"raise"``/``"skip"``/
    ``"degrade"``; ``chaos`` injects a
    :class:`~repro.faults.ChaosPlan` of worker-level faults.  See
    ``docs/resilience.md``.  ``fast=False`` runs every device on the
    scalar engine; the digest is the same.  Remaining keywords pass
    through to
    :class:`FleetSpec` (``num_blocks=``, ``counter=``, ``schedule=``,
    ``tenancy=`` for a full
    :class:`~repro.workload.tenancy.TenancySpec`, ...).
    """
    if spec is None:
        from .workload.tenancy import TenancySpec

        tenancy = overrides.pop("tenancy", None)
        if tenancy is None:
            tenancy = TenancySpec(
                tenants=tenants,
                tenant_skew=tenant_skew,
                hot_set_overlap=hot_set_overlap,
            )
        spec = FleetSpec(
            devices=devices,
            disk=disk,
            days=days,
            hours=hours,
            devices_per_shard=devices_per_shard,
            tenancy=tenancy,
            seed=seed,
            **overrides,
        )
    return _run_fleet(
        spec,
        workers=workers,
        on_shard=on_shard,
        checkpoint=checkpoint,
        resume=resume,
        retry=retry,
        on_error=on_error,
        chaos=chaos,
        chunk_size=chunk_size,
        fast=fast,
    )


def run_bench(
    scenarios: Sequence[str] | None = None,
    *,
    quick: bool = False,
    repeat: int = 1,
    measure_memory: bool = True,
    fast: bool = True,
) -> list[BenchReport]:
    """Run the benchmark suite; one :class:`BenchReport` per scenario.

    ``scenarios`` selects by name (``None`` runs the whole suite);
    ``quick`` shrinks the simulated days for CI; ``repeat`` keeps the
    best wall-clock of N runs and verifies the metrics digest does not
    change between them.  ``measure_memory`` adds one untimed run per
    scenario under ``tracemalloc`` and records the peak allocation in
    :attr:`BenchReport.peak_mem_bytes`.  ``fast=False`` runs every
    scenario on the scalar engine (the bench CLI's ``--no-fast``); the
    digests are the same.  See ``docs/benchmarking.md``.
    """
    selected = get_scenarios(list(scenarios) if scenarios else None)
    return run_suite(
        selected,
        quick=quick,
        repeat=repeat,
        measure_memory=measure_memory,
        fast=fast,
    )
