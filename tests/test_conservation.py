"""Conservation invariants of the driver's monitor tables, day by day.

Every request is counted once in the "all" scope and once in its
direction's scope, so each day's tables must split exactly: read plus
write equals all for the request, buffer-hit, error and retry counters
and for the count and bucket counts of every histogram of completions.
The arrival-order seek distances are not split but chained per scope:
a scope with ``n`` requests holds ``n - 1`` of them (the chains restart
at every read).  Each histogram's bucket counts sum to its count.  The campaigns run on the batch kernel and on the scalar
reference engine (the ``scalar_engine`` fixture); the fault plan keeps
its device on the scalar path under both.
"""

import os
from collections import Counter

import pytest

from repro.driver.monitor import FOLD_LIMIT, PerformanceMonitor
from repro.faults.plan import FaultPlan
from repro.sim.experiment import Experiment, ExperimentConfig, alternating_schedule
from repro.workload.profiles import SYSTEM_FS_PROFILE, USERS_FS_PROFILE

COMPLETIONS = (
    "scheduled_seek",
    "service",
    "queueing",
    "rotation",
    "transfer",
)
COUNTERS = ("requests", "buffer_hits", "errors", "retries")

CAMPAIGNS = {
    "system-nightly": dict(profile=SYSTEM_FS_PROFILE, disk="toshiba"),
    "users-online": dict(profile=USERS_FS_PROFILE, disk="fujitsu", policy="online"),
    "users-faults": dict(
        profile=USERS_FS_PROFILE,
        disk="fujitsu",
        faults=FaultPlan(seed=7, transient_rate=0.02, random_media=4),
    ),
}

SEEDS = [5]
if os.environ.get("VECTOR_STRESS_SEED"):
    # CI runs extra pinned seeds; a failure reproduces with
    # ``VECTOR_STRESS_SEED=<n>``.
    SEEDS.append(int(os.environ["VECTOR_STRESS_SEED"]))


def _day_tables(monkeypatch, campaign, seed):
    """Each day's tables as the driver's monitoring read returned them."""
    read = []
    read_and_clear = PerformanceMonitor.read_and_clear

    def recording(monitor):
        tables = read_and_clear(monitor)
        read.append(tables)
        return tables

    monkeypatch.setattr(PerformanceMonitor, "read_and_clear", recording)
    settings = dict(CAMPAIGNS[campaign])
    profile = settings.pop("profile").scaled(hours=2.0)
    experiment = Experiment(ExperimentConfig(profile=profile, seed=seed, **settings))
    schedule = alternating_schedule(2)
    for day, on_today in enumerate(schedule):
        on_tomorrow = schedule[day + 1] if day + 1 < len(schedule) else False
        experiment.run_day(rearranged=on_today, rearrange_tomorrow=on_tomorrow)
    return read


def _check_conservation(tables):
    every, reads, writes = tables["all"], tables["read"], tables["write"]
    for name in COUNTERS:
        assert getattr(reads, name) + getattr(writes, name) == getattr(
            every, name
        ), name
    for name in COMPLETIONS:
        whole = getattr(every, name)
        parts = getattr(reads, name), getattr(writes, name)
        assert parts[0].count + parts[1].count == whole.count, name
        assert Counter(parts[0].buckets) + Counter(parts[1].buckets) == (
            whole.buckets
        ), name
    for scope in (every, reads, writes):
        for name in ("arrival_seek", *COMPLETIONS):
            table = getattr(scope, name)
            assert sum(table.buckets.values()) == table.count, name
        if scope.requests:
            assert scope.arrival_seek.count == scope.requests - 1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
@pytest.mark.parametrize("engine", ["kernel", "scalar"])
def test_each_days_tables_are_conserved(
    engine, campaign, seed, monkeypatch, scalar_engine
):
    if engine == "scalar":
        with scalar_engine():
            days = _day_tables(monkeypatch, campaign, seed)
    else:
        days = _day_tables(monkeypatch, campaign, seed)
    assert len(days) == 2
    for tables in days:
        assert tables["read"].requests and tables["write"].requests
        _check_conservation(tables)
    if campaign == "system-nightly":
        # Days long enough that the monitor folds before it is read.
        assert min(tables["all"].requests for tables in days) > FOLD_LIMIT
    if campaign == "users-faults":
        assert sum(tables["all"].errors for tables in days) > 0
