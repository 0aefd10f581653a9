"""The benchmark's workloads, run against the unmodified ``repro`` package.

Each workload runs once per call of :func:`run_workload` and returns a
:class:`RunOutcome`: host timings, the per-day records that the checks
and the simulated metrics read, and the digest payload.
Why each workload was chosen is in ``README.md`` beside this file.

This module only imports ``repro`` inside the run functions, so the
parent driver (``run.py``) can read :data:`SIZES` without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any

DEFAULT_SEED = 1993
HELD_OUT_SEED = 4242
"""Never used while the benchmark was tuned: re-check a claimed gain here."""

WORKLOADS = ("system_nightly", "users_online", "modern_fleet")

SIZES: dict[str, dict[str, dict[str, Any]]] = {
    # ``full`` is what the benchmark measures; ``small`` is the seconds-long
    # shrunken form the self-tests run.
    "system_nightly": {
        "full": {"days": 4, "hours": None},
        "small": {"days": 2, "hours": 0.25},
    },
    "users_online": {
        "full": {"days": 2, "hours": None},
        "small": {"days": 2, "hours": 0.25},
    },
    "modern_fleet": {
        # 0.1 h days simulate about 3,000 requests, so the p99 has more
        # than ten samples beyond it.  256 tenants is the TenancySpec
        # default; with fewer, one heavy tenant's device dominates and the
        # fleet's mean seek time swings widely from seed to seed.
        "full": {"devices": 16, "devices_per_shard": 2, "tenants": 256,
                 "days": 2, "hours": 0.1},
        "small": {"devices": 2, "devices_per_shard": 2, "tenants": 16,
                  "days": 2, "hours": 0.05},
    },
}


SPANS_EVERYWHERE = frozenset({
    "setup.disk", "setup.blocktable", "setup.fs_populate", "generate",
    "generate.sync", "simulate", "analyze", "analyze.hot_blocks", "rearrange",
    "report",
})
REQUIRED_SPANS: dict[str, frozenset[str]] = {
    # The layers each workload runs, at either scale.  A traced run missing
    # one has lost a wrapped entry point (say, a caller now reaches it
    # through another name) and would report that layer as 0.
    "system_nightly": SPANS_EVERYWHERE,
    "users_online": SPANS_EVERYWHERE | {"rearrange.online_window"},
    "modern_fleet": SPANS_EVERYWHERE | {"setup.shard", "fleet.plan", "fleet.merge"},
}


def days_attempted(workload: str, scale: str) -> int:
    """Checked days in one run: device-days for the fleet."""
    size = SIZES[workload][scale]
    return size["days"] * size.get("devices", 1)


@dataclass
class DayRecord:
    """One simulated day on one device, as the checks see it."""

    device: str
    day: int
    metrics: Any  # repro.stats.metrics.DayMetrics
    workload_requests: int
    workload_reads: int | None = None
    """``None`` where the layer does not expose it (fleet devices)."""


@dataclass
class RunOutcome:
    """What one run of a workload produced."""

    start_ns: int
    end_ns: int
    """``perf_counter_ns`` readings around the measured run: from the start
    of set-up to the run's last simulated output."""
    setup_ns: list[tuple[int, int]]
    """``perf_counter_ns`` readings around each set-up: together, the host
    time before the first simulated event."""
    requests: int
    """Workload requests simulated."""
    days: list[DayRecord]
    payload: dict[str, Any]
    """Digest input: every simulated output of the run."""
    migration: Any = None  # repro.core.online.MigrationStats or None


CAMPAIGNS = {
    # workload: (profile, disk, rearrangement policy; None is nightly)
    "system_nightly": ("system", "toshiba", None),
    "users_online": ("users", "fujitsu", "online"),
}


def _run_campaign(workload: str, seed: int, size: dict[str, Any]) -> RunOutcome:
    from repro.bench.digest import day_metrics_payload
    from repro.sim.experiment import (
        Experiment,
        ExperimentConfig,
        alternating_schedule,
    )
    from repro.workload.profiles import PROFILES

    profile_name, disk, policy = CAMPAIGNS[workload]
    profile = PROFILES[profile_name]
    if size["hours"] is not None:
        profile = profile.scaled(hours=size["hours"])
    config = ExperimentConfig(profile=profile, disk=disk, seed=seed, policy=policy)
    schedule = alternating_schedule(size["days"])
    start_ns = perf_counter_ns()
    experiment = Experiment(config)
    setup_ns = [(start_ns, perf_counter_ns())]
    records: list[DayRecord] = []
    day_payloads: list[dict[str, Any]] = []
    requests = 0
    for day, on_today in enumerate(schedule):
        on_tomorrow = schedule[day + 1] if day + 1 < len(schedule) else False
        result = experiment.run_day(
            rearranged=on_today, rearrange_tomorrow=on_tomorrow
        )
        requests += result.workload_requests
        records.append(
            DayRecord(
                device="disk",
                day=day,
                metrics=result.metrics,
                workload_requests=result.workload_requests,
                workload_reads=result.workload_reads,
            )
        )
        day_payloads.append(
            {
                "metrics": day_metrics_payload(result.metrics),
                "workload_requests": result.workload_requests,
                "workload_reads": result.workload_reads,
                "rearranged_blocks": result.rearranged_blocks,
            }
        )
    migration = experiment.controller.online_stats
    payload: dict[str, Any] = {"days": day_payloads}
    if migration is not None:
        payload["migration"] = migration.payload()
    end_ns = perf_counter_ns()
    return RunOutcome(
        start_ns=start_ns,
        end_ns=end_ns,
        setup_ns=setup_ns,
        requests=requests,
        days=records,
        payload=payload,
        migration=migration,
    )


def _modern_fleet(seed: int, size: dict[str, Any], patch: Any) -> RunOutcome:
    """The fleet at ``workers=1``: the inline executor keeps every layer
    call in this process, where it can be timed and observed.

    ``FleetResult`` exposes only log-scale service-time histograms, so the
    per-device ``DayMetrics`` (seek and service times, request classes,
    errors) are read from the return value of each
    ``MultiDiskExperiment.run_day``, and set-up time from each
    ``MultiDiskExperiment`` construction, through ``patch``.
    """
    from repro.bench.digest import day_metrics_payload
    from repro.fleet import FleetSpec, run_fleet
    from repro.sim.multifs import MultiDiskExperiment
    from repro.workload.tenancy import TenancySpec

    setup_ns: list[tuple[int, int]] = []
    shard_days: list[Any] = []

    def timed_init(init: Any) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> None:
            begin = perf_counter_ns()
            init(*args, **kwargs)
            setup_ns.append((begin, perf_counter_ns()))

        return wrapper

    def captured_day(run_day: Any) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = run_day(*args, **kwargs)
            shard_days.append(result)
            return result

        return wrapper

    patch(MultiDiskExperiment, "__init__", timed_init)
    patch(MultiDiskExperiment, "run_day", captured_day)
    spec = FleetSpec(
        devices=size["devices"],
        disk="modern",
        days=size["days"],
        hours=size["hours"],
        devices_per_shard=size["devices_per_shard"],
        tenancy=TenancySpec(tenants=size["tenants"]),
        seed=seed,
    )
    start_ns = perf_counter_ns()
    result = run_fleet(spec, workers=1)
    fleet_payload = result.payload()
    end_ns = perf_counter_ns()

    records: list[DayRecord] = []
    days_seen: dict[str, int] = {}
    for shard_day in shard_days:
        # Each shard runs its days in order and the inline executor runs
        # shards one after another, so a device's days arrive in order.
        for name in sorted(shard_day.per_device):
            metrics = shard_day.per_device[name]
            day = days_seen.get(name, 0)
            days_seen[name] = day + 1
            records.append(
                DayRecord(
                    device=name,
                    day=day,
                    metrics=metrics,
                    workload_requests=shard_day.per_device_requests[name],
                )
            )
    payload = {
        "fleet": fleet_payload,
        "devices": [
            {
                "device": record.device,
                "day": record.day,
                "metrics": day_metrics_payload(record.metrics),
                "workload_requests": record.workload_requests,
            }
            for record in records
        ],
    }
    return RunOutcome(
        start_ns=start_ns,
        end_ns=end_ns,
        setup_ns=setup_ns,
        requests=result.total_requests,
        days=records,
        payload=payload,
    )


def run_workload(
    workload: str, seed: int, scale: str, patch: Any
) -> RunOutcome:
    """Run ``workload`` once; ``patch(owner, attribute, wrap)`` installs
    the wrappers a workload needs to observe layers from outside."""
    size = SIZES[workload][scale]  # KeyError names an unknown workload
    if workload in CAMPAIGNS:
        return _run_campaign(workload, seed, size)
    return _modern_fleet(seed, size, patch)
