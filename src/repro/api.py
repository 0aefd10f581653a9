"""Stable, typed entry points — the supported public surface.

Scripts and notebooks should import from here::

    from repro.api import simulate_day, run_campaign, run_bench

    day = simulate_day(hours=0.25, policy="nightly")
    print(day.metrics.all.mean_seek_time_ms)

Each entry point runs from one spec, and each spec class is the only
place its defaults live: :func:`make_config` builds an
:class:`ExperimentConfig` or :class:`SsdConfig` from short names plus
fields, :func:`simulate_day` and :func:`run_campaign` take a config or
forward their shorthand keywords to :func:`make_config`,
:func:`replay_trace` forwards its ingest options to
:func:`~repro.traces.ingest.ingest_trace`, and :func:`run_fleet` is
:func:`repro.fleet.run_fleet`, which takes a :class:`FleetSpec`.

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
from pathlib import Path
from typing import Sequence

from .bench import BenchReport, get_scenarios, run_suite
from .fleet import FleetResult, FleetSpec, run_fleet
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
    profile: str | WorkloadProfile | None = None,
    disk: str | None = None,
    *,
    hours: float | None = None,
    **fields: object,
) -> ExperimentConfig | SsdConfig:
    """Build an :class:`ExperimentConfig` (or :class:`SsdConfig`) from
    short names; whatever is not given keeps the config class's default.

    ``profile`` is a preset name (``"system"`` or ``"users"``) or a full
    :class:`WorkloadProfile`; ``disk`` is ``"toshiba"``, ``"fujitsu"``,
    the ~8 GB ``"modern"`` scale-testing drive, or ``"ssd"`` for the
    page-mapped flash backend (``docs/ftl.md``); ``hours`` shortens the
    simulated day (the paper's days are 15 h — 0.1 to 0.25 keeps a day
    under a second).  Any remaining keywords are fields of the config
    class — :class:`ExperimentConfig` takes ``seed=``, ``num_blocks=``,
    ``placement_policy=``, ``faults=``, ``counter="spacesaving"`` for the
    bounded top-k sketch of ``docs/scaling.md``, ...; with ``disk="ssd"``
    the FTL fields apply instead (``cmt_capacity=``, ``gc_policy=``,
    ``hot_threshold=``, ``precondition=``, ...).
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            known = ", ".join(sorted(PROFILES))
            raise KeyError(
                f"unknown profile {profile!r}; known: {known}"
            ) from None
    if profile is not None:
        fields["profile"] = profile
    if disk == "ssd":
        config = SsdConfig(**fields)
    else:
        if disk is not None:
            fields["disk"] = disk
        config = ExperimentConfig(**fields)
    if hours is not None:
        config = replace(config, profile=config.profile.scaled(hours))
    return config


def _config_or_fields(config, config_fields: dict):
    """``config``, or one built by :func:`make_config` from the
    shorthand fields when none is given (never both)."""
    if config is None:
        return make_config(**config_fields)
    if config_fields:
        raise TypeError(
            f"pass a config or its fields, not both: {', '.join(config_fields)}"
        )
    return config


def simulate_day(
    config: ExperimentConfig | SsdConfig | None = None,
    *,
    policy: RearrangementPolicy | str | None = None,
    tracer: Tracer = NULL_TRACER,
    **config_fields: object,
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

    Pass a ``config`` for full control, or :func:`make_config`'s
    shorthand (``profile``, ``disk``, ``hours``, ``seed``, ...).  With
    ``disk="ssd"`` (or an :class:`SsdConfig`) the day runs through the
    page-mapped FTL instead and returns an :class:`SsdDayResult`; there
    ``policy`` decides hot/cold write separation, not block moves
    (``docs/ftl.md``).  The removed ``rearranged=`` boolean is an unknown
    keyword now: passing it raises ``TypeError``; use ``policy=``.
    """
    config = _config_or_fields(config, config_fields)
    if isinstance(config, SsdConfig):
        if policy is not None:
            config = replace(config, policy=policy)
        return SsdExperiment(config, tracer=tracer).run_day()
    if policy is not None:
        config = replace(config, policy=policy)
    resolved = config.resolved_policy()
    experiment = Experiment(config, tracer=tracer)
    experiment._days = 1
    if isinstance(resolved, OnlinePolicy):
        return experiment.run_day(rearranged=True, rearrange_tomorrow=False)
    if isinstance(resolved, NightlyPolicy) and (
        policy is not None or config.policy is not None
    ):
        experiment._days = 2
        experiment.run_day(rearranged=False, rearrange_tomorrow=True)
        return experiment.run_day(rearranged=True, rearrange_tomorrow=False)
    return experiment.run_day(rearranged=False, rearrange_tomorrow=False)


def run_campaign(
    config: ExperimentConfig | None = None,
    *,
    days: int = 4,
    schedule: Sequence[bool] | None = None,
    tracer: Tracer = NULL_TRACER,
    **config_fields: object,
) -> CampaignResult:
    """Run a multi-day campaign and return its :class:`CampaignResult`.

    Without an explicit ``schedule`` the campaign alternates off/on days
    over ``days`` days (the paper's Tables 2–6 shape).  ``schedule`` is a
    per-day list of "rearranged today" flags; day 0 must be ``False``.
    The config is ``config`` or built from :func:`make_config`'s
    shorthand, as for :func:`simulate_day`.
    """
    config = _config_or_fields(config, config_fields)
    if schedule is None:
        schedule = alternating_schedule(days)
    return _run_campaign(config, list(schedule), tracer=tracer)


def replay_trace(
    source: str | Path,
    *,
    disk: str = "toshiba",
    queue: str = "scan",
    rearrange: bool = False,
    num_blocks: int | None = None,
    tracer: Tracer = NULL_TRACER,
    **ingest_options: object,
) -> TraceReplayResult | SsdReplayResult:
    """Ingest a raw block trace and replay it through the driver.

    ``source`` is a blkparse text file or an MSR-Cambridge-style CSV;
    ``ingest_options`` go to :func:`~repro.traces.ingest.ingest_trace`
    (``format=``, ``mapping=``, ``time_scale=``, ``loop=``, ``gap_ms=``,
    ``limit=``, ...), which maps the trace's addresses onto ``disk`` and
    rescales its timing.  The resulting jobs run through a fresh adaptive
    driver (:func:`~repro.traces.replay.replay_jobs`, which takes the
    other keywords).  With ``rearrange=True`` the replay is pre-trained
    on the trace itself first.  The returned :class:`TraceReplayResult`
    carries the day's :class:`~repro.stats.metrics.DayMetrics` plus the
    ingest stage's output (``.ingest`` — jobs, trace character, mapping
    facts).

    ``disk="ssd"`` replays the trace through the page-mapped FTL backend
    (``docs/ftl.md``) and returns an :class:`SsdReplayResult` — write
    amplification, GC and mapping-cache counters instead of seek
    metrics; ``rearrange=True`` there pre-trains hot/cold write
    separation on the trace.

    Deterministic end to end: the same file and options produce
    bit-identical metrics on every run.  See ``docs/traces.md``.
    """
    ingested = ingest_trace(source, disk=disk, **ingest_options)
    result = replay_jobs(
        ingested.jobs,
        disk=disk,
        queue=queue,
        rearrange=rearrange,
        num_blocks=num_blocks,
        tracer=tracer,
    )
    result.ingest = ingested
    return result


def run_bench(
    scenarios: Sequence[str] | None = None, **options: object
) -> list[BenchReport]:
    """Run the benchmark suite; one :class:`BenchReport` per scenario.

    ``scenarios`` selects by name (``None`` runs the whole suite); the
    ``options`` go to :func:`~repro.bench.runner.run_suite`: ``quick``
    shrinks the simulated days for CI; ``repeat`` keeps the best
    wall-clock of N runs and verifies the metrics digest does not change
    between them; ``measure_memory`` (on by default) adds one untimed
    run per scenario under ``tracemalloc`` and records the peak
    allocation in :attr:`BenchReport.peak_mem_bytes`.  See
    ``docs/benchmarking.md``.
    """
    selected = get_scenarios(list(scenarios) if scenarios else None)
    return run_suite(selected, **options)
