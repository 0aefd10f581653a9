"""The benchmark scenario suite.

Three scenarios cover the simulator's hot paths from three angles:

``standard_day``
    The paper's bread-and-butter experiment: a training (off) day followed
    by a rearranged (on) day on the Toshiba disk under the *system*
    workload, nightly cycle included.  This is the scenario the headline
    performance numbers quote.

``block_sweep_slice``
    A slice of the Figure-8 block-count sweep on the Fujitsu disk —
    exercises the track-buffer read path, the larger geometry, and
    back-to-back rearrangement nights.

``fault_stress``
    The standard day with deterministic fault injection: transient errors
    with bounded retries, pinned media errors, a mid-day machine crash and
    a crash between nightly block moves.  Keeps the error paths honest and
    times them.

``trace_replay``
    The real-trace pipeline end to end: the bundled blkparse and MSR
    fixture traces are ingested (parse -> map -> rescale) and replayed
    through fresh drivers, repeatedly.  Times the ``repro.traces``
    subsystem and pins its metrics digest — ingest and replay are pure
    functions of the fixture bytes, so the digest must never move.

``large_disk``
    The standard day on the synthetic ~8 GB ``modern`` disk (2,097,152
    blocks) with the ``spacesaving`` analyzer counter — the scale target
    of ``docs/scaling.md``.  Guards the entry-bounded block table, the
    streaming sketch, and the vectorized placement pipeline against both
    time and peak-memory regressions on a multi-million-block device.

``fleet_day``
    The fleet stack end to end (``docs/fleet.md``): multi-tenant
    workload derivation, sharded ``MultiDiskExperiment`` execution, and
    streaming log-histogram aggregation.  Quick mode runs 64 Fujitsu
    devices (130,982 blocks each, 8 shards); full mode runs 1,000
    ``modern`` devices (2,097,152 blocks each, 125 shards).  Runs with
    ``workers=1`` so wall-clock and peak memory stay machine-comparable;
    the digest is identical at any worker count by construction.

``fleet_chaos``
    A small fleet day executed twice: once at ``workers=2`` under a
    seeded :class:`~repro.faults.ChaosPlan` (worker exceptions and hard
    exits, absorbed by a 3-attempt retry policy), once clean and serial.
    The scenario *asserts* the two digests match — the resilience
    layer's core guarantee (``docs/resilience.md``) is re-proven on
    every bench run — and times the fault-handling path.

``ssd_day``
    The flash counterpart (``docs/ftl.md``): the *users* workload runs
    once through the mechanical disk and twice through the page-mapped
    FTL — hot/cold write separation off, then on — all on identical
    generated days.  The scenario *asserts* the separation contract:
    analyzer-driven hot/cold separation must finish the campaign with
    lower overall write amplification than the separation-off run on the
    same seed.  Its detail records write amplification for both runs, GC
    run/move counts, the mapping-cache hit ratio, and max/mean erase
    counts, so the report doubles as a wear/GC summary.

``online_day``
    Online incremental rearrangement under live traffic
    (``docs/online.md``): the same two days run once under
    :class:`~repro.policy.OnlinePolicy` (idle-window migration on) and
    once under :class:`~repro.policy.NoRearrangement` (migration off).
    The scenario *asserts* the online run's contract — foreground
    p95/p99 service time stays within 1.25x (+2 ms histogram-resolution
    slack) of the migration-free run, blocks actually moved, and the
    online run's day-1 mean seek time improves on its day 0 — so the
    "low-priority migration must not hurt the foreground tail" guarantee
    is re-proven on every bench run.

Every scenario is deterministic: fixed seeds, fixed day lengths per mode.
``quick`` mode shrinks the simulated day so CI can afford the suite; the
digests of quick and full runs differ (different workloads) but each is
reproducible on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..faults.spec import parse_fault_spec
from ..sim.experiment import Experiment, ExperimentConfig
from ..workload.profiles import PROFILES
from .digest import day_metrics_payload


@dataclass(frozen=True)
class ScenarioResult:
    """What one scenario run produced (before timing is attached)."""

    payload: dict[str, Any]
    """Digest input: every simulated metric the scenario observed."""
    events: int
    """Simulation events dispatched across all days."""
    requests: int
    """Workload requests issued across all days."""
    detail: dict[str, Any] = field(default_factory=dict)
    """Scenario-specific context recorded in the report (not hashed)."""


@dataclass(frozen=True)
class Scenario:
    """A named, deterministic benchmark scenario."""

    name: str
    description: str
    run: Callable[..., ScenarioResult]
    """``run(quick, fast=True)``: ``fast`` selects the batch simulation
    kernel for every simulation the scenario builds, fleet workers
    included."""


def _config(
    disk: str,
    hours: float,
    fast: bool,
    faults: str | None = None,
    counter: str = "exact",
) -> ExperimentConfig:
    profile = PROFILES["system"].scaled(hours=hours)
    plan = parse_fault_spec(faults) if faults else None
    return ExperimentConfig(
        profile=profile, disk=disk, seed=1993, faults=plan, counter=counter, fast=fast
    )


def _run_days(
    experiment: Experiment, schedule: list[bool]
) -> ScenarioResult:
    """Run an explicit on/off schedule, collecting payloads and counters."""
    days: list[dict[str, Any]] = []
    requests = 0
    for day, on_today in enumerate(schedule):
        on_tomorrow = schedule[day + 1] if day + 1 < len(schedule) else False
        result = experiment.run_day(
            rearranged=on_today, rearrange_tomorrow=on_tomorrow
        )
        requests += result.workload_requests
        days.append(
            {
                "metrics": day_metrics_payload(result.metrics),
                "workload_requests": result.workload_requests,
                "workload_reads": result.workload_reads,
                "rearranged_blocks": result.rearranged_blocks,
            }
        )
    return ScenarioResult(
        payload={"days": days},
        events=experiment.events_dispatched,
        requests=requests,
    )


def _standard_day(quick: bool, fast: bool = True) -> ScenarioResult:
    hours = 1.0 if quick else 15.0
    experiment = Experiment(_config("toshiba", hours, fast))
    result = _run_days(experiment, [False, True])
    result.detail.update(disk="toshiba", hours=hours, days=2)
    return result


def _block_sweep_slice(quick: bool, fast: bool = True) -> ScenarioResult:
    hours = 0.25 if quick else 1.0
    counts = [200] if quick else [500, 3500]
    experiment = Experiment(_config("fujitsu", hours, fast))
    days: list[dict[str, Any]] = []
    requests = 0

    def note(count: int, result) -> None:
        nonlocal requests
        requests += result.workload_requests
        days.append(
            {
                "count": count,
                "metrics": day_metrics_payload(result.metrics),
                "workload_requests": result.workload_requests,
                "rearranged_blocks": result.rearranged_blocks,
            }
        )

    note(
        0,
        experiment.run_day(
            rearranged=False,
            rearrange_tomorrow=bool(counts),
            num_blocks_tomorrow=counts[0] if counts else 0,
        ),
    )
    for index, count in enumerate(counts):
        next_count = counts[index + 1] if index + 1 < len(counts) else 0
        note(
            count,
            experiment.run_day(
                rearranged=count > 0,
                rearrange_tomorrow=index + 1 < len(counts),
                num_blocks_tomorrow=next_count,
            ),
        )
    return ScenarioResult(
        payload={"days": days},
        events=experiment.events_dispatched,
        requests=requests,
        detail={"disk": "fujitsu", "hours": hours, "counts": counts},
    )


def _fault_stress(quick: bool, fast: bool = True) -> ScenarioResult:
    hours = 0.5 if quick else 1.0
    crash_ms = int(hours * 1_800_000)  # mid-way through day 1
    spec = (
        "seed=7,transient=0.002,retries=3,media=rand:4,"
        f"crash=day1@{crash_ms},crash=copy40"
    )
    experiment = Experiment(_config("toshiba", hours, fast, faults=spec))
    result = _run_days(experiment, [False, True])
    stats = experiment.driver.fault_stats
    result.payload["fault_stats"] = {
        "transient_faults": stats.transient_faults,
        "media_faults": stats.media_faults,
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "failed_requests": stats.failed_requests,
        "fallback_serves": stats.fallback_serves,
        "evictions": stats.evictions,
        "skipped_moves": stats.skipped_moves,
        "crashes": stats.crashes,
        "recoveries": stats.recoveries,
    }
    result.detail.update(disk="toshiba", hours=hours, spec=spec)
    return result


def _large_disk(quick: bool, fast: bool = True) -> ScenarioResult:
    hours = 0.5 if quick else 15.0
    experiment = Experiment(
        _config("modern", hours, fast, counter="spacesaving")
    )
    result = _run_days(experiment, [False, True])
    result.detail.update(
        disk="modern",
        hours=hours,
        days=2,
        total_blocks=experiment.model.geometry.total_blocks,
        counter="spacesaving",
    )
    return result


def _fleet_day(quick: bool, fast: bool = True) -> ScenarioResult:
    from ..fleet import FleetSpec, run_fleet
    from ..workload.tenancy import TenancySpec

    if quick:
        devices, disk, tenants, hours = 64, "fujitsu", 256, 0.05
    else:
        devices, disk, tenants, hours = 1000, "modern", 4000, 0.05
    spec = FleetSpec(
        devices=devices,
        disk=disk,
        days=2,
        hours=hours,
        devices_per_shard=8,
        tenancy=TenancySpec(tenants=tenants),
        seed=1993,
    )
    # workers=1 keeps the timing machine-comparable (and tracemalloc
    # sees every allocation); the digest is identical at any width —
    # the fleet regression tests pin workers=1 against workers=8.
    result = run_fleet(spec, workers=1, fast=fast)
    return ScenarioResult(
        payload=result.payload(),
        events=result.events,
        requests=result.total_requests,
        detail={
            "disk": disk,
            "devices": devices,
            "shards": spec.num_shards,
            "tenants": tenants,
            "hours": hours,
            "days": 2,
            "workers": 1,
            "p50_ms": result.p50_ms,
            "p95_ms": result.p95_ms,
            "p99_ms": result.p99_ms,
            "fleet_digest": result.digest(),
        },
    )


def _fleet_chaos(quick: bool, fast: bool = True) -> ScenarioResult:
    from ..faults import ChaosPlan
    from ..fleet import FleetSpec, run_fleet
    from ..parallel import RetryPolicy
    from ..workload.tenancy import TenancySpec

    if quick:
        devices, tenants, hours = 16, 64, 0.02
    else:
        devices, tenants, hours = 64, 256, 0.05
    spec = FleetSpec(
        devices=devices,
        disk="toshiba",
        days=2,
        hours=hours,
        devices_per_shard=2,
        tenancy=TenancySpec(tenants=tenants),
        seed=1993,
    )
    # Single-attempt faults + max_attempts=3 guarantees completion: a
    # chaos-ridden run that finishes must be bit-identical to the clean
    # one, and this scenario proves it on every bench run.
    chaos = ChaosPlan(
        seed=29, exception_rate=0.25, exit_rate=0.1, attempts=1
    )
    retried = 0

    def count_retry(_failure) -> None:
        nonlocal retried
        retried += 1

    chaotic = run_fleet(
        spec,
        workers=2,
        retry=RetryPolicy(max_attempts=3, backoff_s=0.0, seed=spec.seed),
        chaos=chaos,
        chunk_size=1,
        on_retry=count_retry,
        fast=fast,
    )
    clean = run_fleet(spec, workers=1, fast=fast)
    if chaotic.digest() != clean.digest():
        raise RuntimeError(
            "chaos run digest diverged from fault-free run: "
            f"{chaotic.digest()} != {clean.digest()}"
        )
    return ScenarioResult(
        payload=chaotic.payload(),
        events=chaotic.events,
        requests=chaotic.total_requests,
        detail={
            "disk": "toshiba",
            "devices": devices,
            "shards": spec.num_shards,
            "hours": hours,
            "retried_tasks": chaotic.retried_tasks,
            "retries_observed": retried,
            "fleet_digest": chaotic.digest(),
            "clean_digest": clean.digest(),
        },
    )


ONLINE_TAIL_FACTOR = 1.25
"""Foreground p95/p99 under online migration must stay within this
factor of the migration-free run (plus histogram-resolution slack)."""

ONLINE_TAIL_SLACK_MS = 2.0
"""Absolute slack on the tail bound: service-time percentiles are read
from 1 ms-resolution histograms, so tiny tails need a floor."""


def _online_day(quick: bool, fast: bool = True) -> ScenarioResult:
    from ..policy import NoRearrangement, OnlinePolicy

    hours = 0.5 if quick else 15.0
    schedule = [False, True]
    base = _config("toshiba", hours, fast)
    runs: dict[str, list] = {}
    day_results: dict[str, list] = {}
    online_stats = None
    events = 0
    requests = 0
    for key, policy in (
        ("online", OnlinePolicy()),
        ("off", NoRearrangement()),
    ):
        experiment = Experiment(replace(base, policy=policy))
        days: list[dict[str, Any]] = []
        results = []
        for day, on_today in enumerate(schedule):
            on_tomorrow = (
                schedule[day + 1] if day + 1 < len(schedule) else False
            )
            result = experiment.run_day(
                rearranged=on_today, rearrange_tomorrow=on_tomorrow
            )
            requests += result.workload_requests
            results.append(result)
            days.append(
                {
                    "metrics": day_metrics_payload(result.metrics),
                    "workload_requests": result.workload_requests,
                    "rearranged_blocks": result.rearranged_blocks,
                }
            )
        events += experiment.events_dispatched
        runs[key] = days
        day_results[key] = results
        if key == "online":
            assert experiment.controller.online_stats is not None
            online_stats = experiment.controller.online_stats
    assert online_stats is not None
    tails: dict[str, float] = {}
    for day in range(len(schedule)):
        for quantile in (0.95, 0.99):
            on = day_results["online"][day].metrics.all.service_percentile_ms(
                quantile
            )
            off = day_results["off"][day].metrics.all.service_percentile_ms(
                quantile
            )
            tails[f"day{day}_p{int(quantile * 100)}_online"] = on
            tails[f"day{day}_p{int(quantile * 100)}_off"] = off
            bound = ONLINE_TAIL_FACTOR * off + ONLINE_TAIL_SLACK_MS
            if on > bound:
                raise RuntimeError(
                    f"online migration hurt the foreground tail: day "
                    f"{day} p{int(quantile * 100)} {on:.2f} ms exceeds "
                    f"{bound:.2f} ms ({ONLINE_TAIL_FACTOR}x the "
                    f"migration-free {off:.2f} ms + "
                    f"{ONLINE_TAIL_SLACK_MS} ms)"
                )
    if online_stats.moves_completed == 0:
        raise RuntimeError("online policy committed no incremental moves")
    seek_day0 = day_results["online"][0].metrics.all.mean_seek_time_ms
    seek_day1 = day_results["online"][1].metrics.all.mean_seek_time_ms
    if seek_day1 >= seek_day0:
        raise RuntimeError(
            "online migration did not improve mean seek time: "
            f"day 1 {seek_day1:.3f} ms vs day 0 {seek_day0:.3f} ms"
        )
    return ScenarioResult(
        payload={
            "online": runs["online"],
            "off": runs["off"],
            "migration": online_stats.payload(),
        },
        events=events,
        requests=requests,
        detail={
            "disk": "toshiba",
            "hours": hours,
            "days": 2,
            "moves_completed": online_stats.moves_completed,
            "seek_day0_ms": seek_day0,
            "seek_day1_ms": seek_day1,
            **tails,
        },
    )


def _ssd_day(quick: bool, fast: bool = True) -> ScenarioResult:
    from ..sim.ssd import SsdConfig, SsdExperiment

    # Compress the clock but keep the full day's file churn: flash cost
    # depends on the write mix, not on arrival spacing, and ``scaled()``
    # would shrink the day's new-file traffic to the point where the
    # hot/cold mix (and separation's benefit) disappears.
    hours = 2.0
    num_days = 2 if quick else 3
    profile = replace(PROFILES["users"], day_hours=hours)
    # Reference leg: the same generated days through the mechanical disk.
    disk_experiment = Experiment(
        ExperimentConfig(profile=profile, disk="toshiba", seed=1993, fast=fast)
    )
    disk_leg = _run_days(
        disk_experiment, [False] + [True] * (num_days - 1)
    )
    events = disk_experiment.events_dispatched
    requests = disk_leg.requests
    ftl_days: dict[str, list[dict[str, Any]]] = {}
    ftl_results: dict[str, list] = {}
    for key, policy in (("unseparated", "off"), ("separated", "nightly")):
        experiment = SsdExperiment(
            SsdConfig(profile=profile, policy=policy, cmt_capacity=1024)
        )
        results = experiment.run_days(num_days)
        events += experiment.events_dispatched
        requests += sum(day.workload_requests for day in results)
        ftl_days[key] = [day.payload() for day in results]
        ftl_results[key] = results

    def overall_wa(results: list) -> float:
        host = sum(day.host_page_writes for day in results)
        flash = sum(day.flash_page_writes for day in results)
        return flash / host if host else 0.0

    wa_off = overall_wa(ftl_results["unseparated"])
    wa_on = overall_wa(ftl_results["separated"])
    if wa_on >= wa_off:
        raise RuntimeError(
            "hot/cold separation did not reduce write amplification: "
            f"{wa_on:.4f} (on) vs {wa_off:.4f} (off)"
        )
    separated = ftl_results["separated"]
    return ScenarioResult(
        payload={
            "disk": disk_leg.payload["days"],
            "ssd": ftl_days,
            "write_amplification": {
                "unseparated": round(wa_off, 6),
                "separated": round(wa_on, 6),
            },
        },
        events=events,
        requests=requests,
        detail={
            "reference_disk": "toshiba",
            "flash": "ssd",
            "hours": hours,
            "days": num_days,
            "write_amplification_off": wa_off,
            "write_amplification_on": wa_on,
            "gc_runs": sum(day.gc_runs for day in separated),
            "gc_page_moves": sum(day.gc_page_moves for day in separated),
            "cmt_hit_ratio": separated[-1].cmt_hit_ratio,
            "max_erase_count": separated[-1].max_erase_count,
            "mean_erase_count": separated[-1].mean_erase_count,
        },
    )


def _trace_replay(quick: bool, fast: bool = True) -> ScenarioResult:
    from ..traces import fixture_path, ingest_trace, replay_jobs

    iterations = 8 if quick else 60
    blkparse_fixture = fixture_path("sample.blkparse")
    msr_fixture = fixture_path("sample.msr.csv")
    payload: dict[str, Any] = {"iterations": iterations}
    events = 0
    requests = 0
    for index in range(iterations):
        blk = ingest_trace(
            blkparse_fixture, mapping="compact", loop="open"
        )
        blk_replay = replay_jobs(
            blk.jobs, disk="toshiba", rearrange=True, fast=fast
        )
        msr = ingest_trace(
            msr_fixture,
            mapping="linear",
            loop="closed",
            disk="fujitsu",
            time_scale=0.5,
        )
        msr_replay = replay_jobs(msr.jobs, disk="fujitsu", fast=fast)
        events += blk_replay.events + msr_replay.events
        requests += blk_replay.requests + msr_replay.requests
        if index == 0:
            payload["blkparse"] = {
                "metrics": day_metrics_payload(blk_replay.metrics),
                "jobs": len(blk.jobs),
                "requests": blk_replay.requests,
                "rearranged_blocks": blk_replay.rearranged_blocks,
                "working_set_blocks": blk.working_set_blocks,
                "sequential_fraction": blk.character.sequential_fraction,
            }
            payload["msr"] = {
                "metrics": day_metrics_payload(msr_replay.metrics),
                "jobs": len(msr.jobs),
                "requests": msr_replay.requests,
                "working_set_blocks": msr.working_set_blocks,
                "zipf_exponent": msr.character.zipf_exponent,
            }
    return ScenarioResult(
        payload=payload,
        events=events,
        requests=requests,
        detail={
            "fixtures": [blkparse_fixture.name, msr_fixture.name],
            "iterations": iterations,
        },
    )


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "standard_day",
            "off day + rearranged day, Toshiba, system workload",
            _standard_day,
        ),
        Scenario(
            "block_sweep_slice",
            "Figure-8 sweep slice, Fujitsu (track buffer on)",
            _block_sweep_slice,
        ),
        Scenario(
            "fault_stress",
            "standard day under transient/media faults and crashes",
            _fault_stress,
        ),
        Scenario(
            "trace_replay",
            "ingest + replay of the bundled blkparse/MSR fixture traces",
            _trace_replay,
        ),
        Scenario(
            "large_disk",
            "standard day on the 2M-block modern disk, spacesaving counter",
            _large_disk,
        ),
        Scenario(
            "fleet_day",
            "sharded multi-tenant fleet day with streaming aggregation",
            _fleet_day,
        ),
        Scenario(
            "fleet_chaos",
            "fleet day under injected worker faults; digest must match "
            "the clean run",
            _fleet_chaos,
        ),
        Scenario(
            "ssd_day",
            "users day on the page-mapped FTL, disk vs flash, separation "
            "on vs off; asserts separation lowers write amplification",
            _ssd_day,
        ),
        Scenario(
            "online_day",
            "idle-window incremental migration vs migration off; "
            "asserts the foreground-tail and seek-improvement contract",
            _online_day,
        ),
    )
}


def get_scenarios(names: list[str] | None = None) -> list[Scenario]:
    """Resolve scenario names (``None`` means the full suite, in order)."""
    if names is None:
        return list(SCENARIOS.values())
    missing = [name for name in names if name not in SCENARIOS]
    if missing:
        known = ", ".join(SCENARIOS)
        raise KeyError(
            f"unknown scenario(s) {', '.join(missing)}; known: {known}"
        )
    return [SCENARIOS[name] for name in names]
