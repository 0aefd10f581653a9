"""The batch kernel engages in fleet workers whatever their start method.

The kernel is the engine's own choice, made per device from the stack
it serves, so a worker started with ``spawn`` — which re-imports every
module fresh and inherits none of the parent's process state — runs it
exactly as the caller's process would.  The probe below runs in the
worker: it counts the :class:`~repro.sim.vector.BatchPlanner` objects
that shard's simulations build with an eligible device.
"""

import multiprocessing

import pytest

from repro.fleet import FleetSpec, build_shard_tasks, run_fleet
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
    """Run one shard; return the batch planners built with an eligible
    device and this process's view of :data:`PARENT_MARK`."""
    from repro.sim import vector

    built = 0
    planner = vector.BatchPlanner

    def counting(simulation):
        nonlocal built
        built_planner = planner(simulation)
        built += bool(built_planner.eligible)
        return built_planner

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


def test_kernel_engages_in_spawned_workers(spawn_only):
    tasks = build_shard_tasks(SPEC)
    assert len(tasks) == 2
    results = fan_out(count_planners, tasks, workers=2)
    assert [mark for __, mark in results] == [None, None]  # really spawned
    counts = [built for built, __ in results]
    assert all(count > 0 for count in counts), counts


def test_a_rearranging_fleet_digest_is_the_same_in_spawned_workers(spawn_only):
    """Each device builds its own reserved layout in whatever process
    runs its shard; the digest cannot tell a spawned worker from the
    caller's process."""
    spec = FleetSpec(
        devices=4,
        disk="modern",
        devices_per_shard=2,
        days=3,
        hours=0.02,
        tenancy=TenancySpec(tenants=8, sessions_per_tenant_hour=40.0),
    )
    serial = run_fleet(spec, workers=1)
    spawned = run_fleet(spec, workers=2)
    assert serial.rearranged_blocks > 0
    assert spawned.digest() == serial.digest()
