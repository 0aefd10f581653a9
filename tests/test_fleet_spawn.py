"""``fast`` reaches fleet workers whatever their start method.

The batch-kernel switch travels inside each :class:`ShardTask`, so a
worker started with ``spawn`` — which re-imports every module fresh and
inherits none of the parent's process state — runs exactly the engine
the caller asked for.  The probe below runs in the worker: it counts the
:class:`~repro.sim.vector.BatchPlanner` objects that shard's simulations
build, which is zero exactly when every day ran on the scalar engine.
"""

import multiprocessing

import pytest

from repro.fleet import FleetSpec, build_shard_tasks
from repro.fleet.runner import _run_shard
from repro.parallel import fan_out
from repro.workload import TenancySpec

SPEC = FleetSpec(
    devices=2,
    disk="toshiba",
    devices_per_shard=1,
    days=2,
    hours=0.02,
    tenancy=TenancySpec(tenants=8, sessions_per_tenant_hour=40.0),
)

PARENT_MARK = None
"""Set in the test process only; a spawned worker re-imports this module
and sees ``None``, a forked one would inherit the parent's value."""


def count_planners(task):
    """Run one shard; return the batch planners built and this process's
    view of :data:`PARENT_MARK`."""
    from repro.sim import vector

    built = 0
    planner = vector.BatchPlanner

    def counting(simulation):
        nonlocal built
        built += 1
        return planner(simulation)

    vector.BatchPlanner = counting
    try:
        _run_shard(task)
    finally:
        vector.BatchPlanner = planner
    return built, PARENT_MARK


@pytest.fixture
def spawn_only(monkeypatch):
    """Make :mod:`repro.parallel` start its workers with ``spawn``."""
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    monkeypatch.setitem(globals(), "PARENT_MARK", "parent")


@pytest.mark.parametrize("fast", [False, True], ids=["scalar", "kernel"])
def test_fast_reaches_spawned_workers(spawn_only, fast):
    tasks = build_shard_tasks(SPEC, fast=fast)
    assert len(tasks) == 2
    results = fan_out(count_planners, tasks, workers=2)
    assert [mark for __, mark in results] == [None, None]  # really spawned
    counts = [built for built, __ in results]
    if fast:
        assert all(count > 0 for count in counts), counts
    else:
        assert counts == [0, 0]
