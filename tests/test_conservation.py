"""Conservation invariants, checked independently of the twin
implementations that the equivalence harnesses compare.

The driver's monitor tables, day by day. Every request is counted once
in the "all" scope and once in its direction's scope, so each day's
tables must split exactly: read plus write equals all for the request,
buffer-hit, error and retry counters and for the count and bucket counts
of every histogram of completions. The arrival-order seek distances are
not split but chained per scope: a scope with ``n`` requests holds
``n - 1`` of them (the chains restart at every read). Each histogram's bucket
counts sum to its count. The campaigns run on the batch kernel and on
the scalar reference engine (the ``scalar_engine`` fixture); the fault
plan keeps its device on the scalar path under both.

The file system's free map.  In every cylinder group the free blocks
plus the blocks that files hold make up the group's data area, no
block belongs to two files, and every block a file holds is marked
used: after the initial tree is laid out, and again after days of
creations, extensions and rewrites.

The block table, after every nightly cycle of a small fleet: a
bijection between home blocks and reserved slots, inside the reserved
data area (:class:`~repro.faults.invariants.BlockTableInvariants`), on
both engines.
"""

import os
from collections import Counter

import pytest

from repro.core.controller import RearrangementController
from repro.driver.monitor import FOLD_LIMIT, PerformanceMonitor
from repro.faults.invariants import BlockTableInvariants
from repro.faults.plan import FaultPlan
from repro.fleet import FleetSpec, run_fleet
from repro.sim.experiment import (
    Experiment,
    ExperimentConfig,
    alternating_schedule,
    build_disk,
)
from repro.workload.profiles import SYSTEM_FS_PROFILE, USERS_FS_PROFILE
from repro.workload.tenancy import TenancySpec, device_profiles

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


# ----------------------------------------------------------------------
# The file system's free map
# ----------------------------------------------------------------------

FS_CASES = {
    # case: (profile, disk)
    "system": (SYSTEM_FS_PROFILE.scaled(hours=1.0), "toshiba"),
    "users": (USERS_FS_PROFILE.scaled(hours=2.0), "fujitsu"),
    "fleet-tenant": (
        device_profiles(TenancySpec(tenants=16), 2, hours=2.0)[0],
        "modern",
    ),
}


def _check_free_map(fs):
    """The allocator's free map against the blocks the files hold."""
    start = fs.partition.start_block
    held = [
        block - start
        for __, __, inode in fs.all_files()
        for block in inode.data_blocks
    ]
    assert len(set(held)) == len(held), "a block belongs to two files"
    groups = fs._allocator.groups
    per_group = Counter()
    for block in held:
        group = groups[min(block // groups[0].num_blocks, len(groups) - 1)]
        assert group.data_first_block <= block < group.end_block, block
        assert block not in group.free, f"block {block} is held but free"
        per_group[group.index] += 1
    for group in groups:
        data_area = group.end_block - group.data_first_block
        free = group.free
        # The map's own bytes, not its running count: 0 marks a free block.
        marked_free = free._bits[free._lo : free._hi].count(b"\x00")
        assert marked_free == free.count, group.index
        assert free.count + per_group[group.index] == data_area, group.index
    return len(held)


@pytest.mark.parametrize("case", sorted(FS_CASES))
def test_the_free_map_and_the_files_hold_every_block_once(case):
    profile, disk = FS_CASES[case]
    rig = build_disk(ExperimentConfig(profile=profile, disk=disk, seed=5))
    (generator,) = rig.generators
    fs = generator.fs
    files = len(fs.all_files())
    held = _check_free_map(fs)
    assert held > 0
    for __ in range(2):
        generator.generate_day()
        _check_free_map(fs)
    if profile.new_files_per_day:
        # The days created, extended and rewrote files.
        assert len(fs.all_files()) > files
        assert profile.extend_sessions_per_day > 0
        assert generator._new_file_serial > len(fs.all_files()) - files


# ----------------------------------------------------------------------
# The block table after every nightly cycle of a small fleet
# ----------------------------------------------------------------------

FLEET = FleetSpec(
    devices=2,
    disk="toshiba",
    devices_per_shard=2,
    days=4,
    hours=0.1,
    tenancy=TenancySpec(tenants=8, sessions_per_tenant_hour=40.0),
)


@pytest.mark.parametrize("engine", ["kernel", "scalar"])
def test_every_night_leaves_the_block_table_a_bijection(
    engine, monkeypatch, scalar_engine
):
    checked = []
    end_of_day = RearrangementController.end_of_day

    def checking(controller, *args, **kwargs):
        finish = end_of_day(controller, *args, **kwargs)
        driver = controller.ioctl.driver
        BlockTableInvariants(driver.label).check(driver.block_table)
        checked.append(len(driver.block_table))
        return finish

    monkeypatch.setattr(RearrangementController, "end_of_day", checking)
    if engine == "scalar":
        with scalar_engine():
            run_fleet(FLEET, workers=1)
    else:
        run_fleet(FLEET, workers=1)
    assert len(checked) == FLEET.devices * FLEET.days
    assert max(checked) > 0  # some night moved blocks
