"""Online incremental rearrangement (``repro.core.online``): idle-window
detection edge cases, the cost/benefit throttle against the precomputed
seek tables, end-to-end migration days, crash safety mid-move, and
determinism at any worker count."""

import os
from contextlib import nullcontext

import pytest

from repro.api import make_config
from repro.bench.digest import day_metrics_payload, metrics_digest
from repro.core.analyzer import ReferenceStreamAnalyzer
from repro.core.controller import RearrangementController
from repro.core.online import (
    BUDGET_CAP_MS,
    IdleDetector,
    IncrementalArranger,
)
from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.ioctl import IoctlInterface
from repro.driver.request import Op
from repro.faults.invariants import BlockTableInvariants
from repro.fleet import FleetSpec, run_fleet
from repro.policy import OnlinePolicy
from repro.sim.engine import Simulation
from repro.sim.experiment import Experiment
from repro.sim.jobs import batch_job, sequential_job
from repro.stats.metrics import DayMetrics
from repro.workload.tenancy import TenancySpec


def make_rig(policy=None, poll_ms=25.0):
    """A toshiba driver with a reserved area and (optionally) a
    controller running ``policy`` with fast monitor polls."""
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
    ioctl = IoctlInterface(driver)
    controller = None
    if policy is not None:
        controller = RearrangementController(
            ioctl=ioctl, policy=policy, poll_interval_ms=poll_ms
        )
    return driver, ioctl, controller


def drain_time_ms(jobs):
    """When the foreground workload alone finishes: the last completion
    time of a bare simulation (no controller, no idle machinery)."""
    driver, __, __ = make_rig()
    simulation = Simulation(driver)
    for job in jobs:
        simulation.add_job(job)
    simulation.run()
    return simulation.now_ms


def run_online(policy, jobs, until_ms=None, crash_at=None):
    driver, __, controller = make_rig(policy)
    simulation = Simulation(driver)
    controller.attach_to(simulation)
    for job in jobs:
        simulation.add_job(job)
    if crash_at is not None:
        simulation.schedule_crash(crash_at)
    simulation.run(until_ms)
    return driver, controller, simulation


def hot_burst(repeats=16):
    """Hammer four blocks whose home cylinders sit far from the reserved
    center, so every one is a high-benefit migration candidate."""
    return batch_job(0.0, [0, 1, 2, 3] * repeats, Op.READ)


class TestIdleDetector:
    def detect(self, idle_ms, jobs):
        driver, ioctl, __ = make_rig()
        simulation = Simulation(driver)
        windows = []
        detector = IdleDetector(
            ioctl.device_name, driver, idle_ms, windows.append
        )
        detector.attach(simulation)
        for job in jobs:
            simulation.add_job(job)
        simulation.run()
        return windows, detector

    def test_window_opens_idle_ms_after_the_drain(self):
        jobs = [batch_job(0.0, [5, 6, 7], Op.READ)]
        drained = drain_time_ms(jobs)
        windows, __ = self.detect(250.0, jobs)
        assert windows == [pytest.approx(drained + 250.0)]

    def test_zero_gap_degenerates_to_window_per_drain(self):
        jobs = [batch_job(0.0, [5, 6, 7], Op.READ)]
        drained = drain_time_ms(jobs)
        windows, __ = self.detect(0.0, jobs)
        assert windows == [pytest.approx(drained)]

    def test_back_to_back_gaps_open_separate_windows(self):
        jobs = [
            batch_job(0.0, [5, 6, 7], Op.READ),
            batch_job(5_000.0, [8, 9], Op.READ),
        ]
        windows, __ = self.detect(100.0, jobs)
        assert len(windows) == 2
        assert windows[0] < 5_000.0 < windows[1]

    def test_interrupted_gap_is_rearmed_not_lost(self):
        """A burst arriving mid-probe staleness-kills the pending check;
        the detector must re-arm from the *second* drain rather than
        opening a window on the interrupted gap (or never again)."""
        jobs = [
            batch_job(0.0, [3], Op.READ),
            # Arrives inside the first 1000 ms probe window.
            batch_job(300.0, [9], Op.READ),
        ]
        windows, __ = self.detect(1_000.0, jobs)
        assert len(windows) == 1
        # Not the interrupted gap's check time (~1020 ms): a full quiet
        # second after the second burst.
        assert windows[0] >= 1_300.0

    @pytest.mark.parametrize("kernel", [False, True])
    def test_sequential_job_start_is_not_activity(self, kernel, scalar_engine):
        """A closed-loop job's start issues no I/O, so it does not
        interrupt a probe: only its first request, a think time later,
        does.  Both engines must agree (the batch kernel never publishes
        the start at all)."""
        jobs = [
            batch_job(0.0, [3], Op.READ),
            # Starts inside the first 1000 ms probe; issues at 2300 ms.
            sequential_job(300.0, [9], Op.READ, think_ms=2_000.0),
        ]
        drained = drain_time_ms(jobs[:1])
        with nullcontext() if kernel else scalar_engine():
            windows, __ = self.detect(1_000.0, jobs)
        assert len(windows) == 2
        assert windows[0] == pytest.approx(drained + 1_000.0)
        assert windows[1] > 2_300.0 + 1_000.0

    def test_foreground_activity_bumps_the_sequence(self):
        windows, detector = self.detect(
            100.0, [batch_job(0.0, [5, 6, 7], Op.READ)]
        )
        assert detector.activity_seq > 0


class TestThrottle:
    def arranger(self, policy=None):
        driver, ioctl, __ = make_rig()
        return (
            IncrementalArranger(
                ioctl, ReferenceStreamAnalyzer(), policy or OnlinePolicy()
            ),
            driver,
            ioctl,
        )

    def test_benefit_prices_the_seek_table_saving(self):
        arranger, driver, ioctl = self.arranger()
        disk = driver.disk
        per_cyl = disk.geometry.blocks_per_cylinder
        center = driver.label.reserved_center_cylinder()
        slot = ioctl.get_reserved_area().data_blocks[0]
        home = 0  # cylinder 0: maximal distance from the reserved center
        expected = 7 * (
            disk._seek_table[abs(0 - center)]
            - disk._seek_table[abs(slot // per_cyl - center)]
        )
        assert arranger.projected_benefit_ms(7, home, slot) == pytest.approx(
            expected
        )
        assert expected > 0.0

    def test_benefit_scales_linearly_with_count(self):
        arranger, __, ioctl = self.arranger()
        slot = ioctl.get_reserved_area().data_blocks[0]
        one = arranger.projected_benefit_ms(1, 0, slot)
        assert arranger.projected_benefit_ms(12, 0, slot) == pytest.approx(
            12 * one
        )

    def test_cost_prices_every_constituent_io_plus_the_span(self):
        arranger, driver, ioctl = self.arranger()
        disk = driver.disk
        per_cyl = disk.geometry.blocks_per_cylinder
        slot = ioctl.get_reserved_area().data_blocks[0]
        home = 0
        n_ios = 2 + len(driver.label.block_table_home_blocks())
        per_io = (
            disk._overhead_ms
            + disk._rotation_time_ms / 2.0
            + disk._block_transfer_ms
        )
        expected = n_ios * per_io + 2.0 * disk._seek_table[
            abs(0 - slot // per_cyl)
        ]
        assert arranger.projected_cost_ms(home, slot) == pytest.approx(
            expected
        )

    def test_block_already_at_the_center_has_no_benefit(self):
        arranger, driver, ioctl = self.arranger()
        slots = ioctl.get_reserved_area().data_blocks
        # Moving a reserved-center block into another reserved slot
        # saves (at most) nothing.
        assert arranger.projected_benefit_ms(100, slots[0], slots[1]) <= 0.0

    def test_budget_accrues_at_duty_cycle_and_caps(self):
        arranger, __, __ = self.arranger(
            OnlinePolicy(duty_cycle=0.05)
        )
        assert arranger.budget_ms == 0.0
        arranger._refill_budget(1_000.0)
        assert arranger.budget_ms == pytest.approx(50.0)
        arranger._refill_budget(1e9)
        assert arranger.budget_ms == BUDGET_CAP_MS


class TestOnlineDay:
    def test_idle_windows_migrate_hot_blocks(self):
        policy = OnlinePolicy(idle_ms=50.0, duty_cycle=1.0)
        driver, controller, __ = run_online(policy, [hot_burst()])
        controller.final_poll()
        stats = controller.online_stats
        assert stats.windows >= 1
        assert stats.moves_completed >= 1
        # Every committed move is in the in-memory table AND flushed to
        # the reserved-area copy (crash safety), nothing else is.
        assert len(driver.block_table) == stats.moves_completed
        assert len(driver.block_table.disk_copy()) == stats.moves_completed
        BlockTableInvariants(driver.label).check(driver.block_table)
        # Read home + write copy + table rewrite(s) per committed move.
        assert stats.migration_ios >= 3 * stats.moves_completed

    def test_starved_budget_defers_instead_of_moving(self):
        policy = OnlinePolicy(idle_ms=50.0, duty_cycle=1e-6)
        driver, controller, __ = run_online(policy, [hot_burst()])
        controller.final_poll()
        stats = controller.online_stats
        assert stats.moves_deferred >= 1
        assert stats.moves_completed == 0
        assert len(driver.block_table) == 0

    def test_absurd_benefit_ratio_skips_every_candidate(self):
        policy = OnlinePolicy(
            idle_ms=50.0, duty_cycle=1.0, min_benefit_ratio=1e9
        )
        driver, controller, __ = run_online(policy, [hot_burst()])
        controller.final_poll()
        stats = controller.online_stats
        assert stats.moves_skipped >= 1
        assert stats.moves_completed == 0

    def test_final_poll_drains_an_in_flight_move(self):
        burst = [hot_burst()]
        drained = drain_time_ms(burst)
        policy = OnlinePolicy(idle_ms=50.0, duty_cycle=1.0)
        # Stop the event loop 1 ms into the first window: the first
        # constituent I/O of the first move is still in flight.
        driver, controller, __ = run_online(
            policy, burst, until_ms=drained + 51.0
        )
        arranger = controller._online.arranger
        assert arranger.move_in_flight
        controller.final_poll()
        assert not arranger.move_in_flight
        assert controller.online_stats.moves_cancelled == 1
        # The abandoned move committed nothing.
        assert len(driver.block_table) == 0
        assert len(driver.block_table.disk_copy()) == 0

    def test_crash_during_incremental_move_recovers_cleanly(self):
        """Pinned-seed chaos case: the machine dies while a move's
        constituent I/O is in flight.  The reserved-area table copy never
        saw the half-finished move, so recovery leaves the home copy
        authoritative and the table bit-consistent with disk."""
        burst = [hot_burst()]
        drained = drain_time_ms(burst)
        policy = OnlinePolicy(idle_ms=50.0, duty_cycle=1.0)
        driver, controller, __ = run_online(
            policy, burst, crash_at=drained + 51.0
        )
        controller.final_poll()
        stats = controller.online_stats
        assert stats.crash_aborts == 1
        # Whatever committed (before or after the crash) is exactly what
        # the table — in memory and on disk — records.
        assert len(driver.block_table) == stats.moves_completed
        assert len(driver.block_table.disk_copy()) == stats.moves_completed
        BlockTableInvariants(driver.label).check(driver.block_table)


@pytest.mark.parametrize("duty_cycle", [0.05, 0.001])
@pytest.mark.parametrize(
    "profile, disk", [("users", "fujitsu"), ("system", "toshiba")]
)
def test_migration_stays_within_its_amortised_budget(
    profile, disk, duty_cycle, monkeypatch
):
    """Movement bound: over two quick online days, the summed projected
    cost of the moves an arranger started never exceeds ``duty_cycle``
    times the simulated time elapsed since it was built, and its budget
    never goes negative or above :data:`BUDGET_CAP_MS`.  The tight duty
    cycle makes the budget bind (moves are deferred); the default one
    lets the throttle decide."""
    spent: dict[IncrementalArranger, float] = {}
    budgets: list[float] = []
    refill = IncrementalArranger._refill_budget
    start = IncrementalArranger._start_next_move

    def watched_refill(self, now_ms):
        refill(self, now_ms)
        budgets.append(self.budget_ms)

    def watched_start(self, now_ms):
        start(self, now_ms)
        budgets.append(self.budget_ms)
        move = self._move
        if move is None:
            return
        cost = self.projected_cost_ms(move.physical_block, move.reserved_block)
        spent[self] = spent.get(self, 0.0) + cost
        assert spent[self] <= duty_cycle * now_ms + 1e-9, (now_ms, spent[self])

    monkeypatch.setattr(IncrementalArranger, "_refill_budget", watched_refill)
    monkeypatch.setattr(IncrementalArranger, "_start_next_move", watched_start)
    experiment = Experiment(
        make_config(
            profile,
            disk,
            policy=OnlinePolicy(duty_cycle=duty_cycle),
            hours=0.5,
        )
    )
    for __ in range(2):
        experiment.run_day(rearranged=False, rearrange_tomorrow=False)
    stats = experiment.controller.online_stats
    assert len(spent) == 2  # one arranger per day, each started a move
    assert stats.moves_completed >= 2
    if duty_cycle < 0.01 and profile == "system":
        assert stats.moves_deferred > 0
    assert budgets and 0.0 <= min(budgets) and max(budgets) <= BUDGET_CAP_MS


class TestDeterminism:
    @pytest.mark.parametrize("crash", [False, True])
    def test_batch_kernel_matches_scalar(self, crash, scalar_engine):
        """The batch kernel serves the online device: idle windows,
        closed-loop traffic that drains between steps and cancels moves
        mid-flight, windows opening between kernel stretches (polls are
        300 ms apart) and, optionally, a crash mid-move.  Every
        migration counter, table state and metric equals the scalar
        engine's."""
        burst = [hot_burst()]
        drained = drain_time_ms(burst)
        jobs = burst + [
            sequential_job(drained + 60.0, [400, 7000, 9, 5000, 12000, 3],
                           Op.READ, 20.0),
            *(
                sequential_job(drained + 700.0 + 37.0 * i, [100 * i + 1],
                               Op.WRITE, 1.0)
                for i in range(6)
            ),
        ]
        policy = OnlinePolicy(idle_ms=50.0, duty_cycle=1.0)

        def run():
            driver, __, controller = make_rig(policy, poll_ms=300.0)
            simulation = Simulation(driver)
            controller.attach_to(simulation)
            simulation.add_jobs(jobs)
            if crash:
                simulation.schedule_crash(drained + 1_100.0)
            simulation.run()
            controller.final_poll()
            metrics = DayMetrics.from_tables(
                controller.ioctl.read_stats(),
                driver.disk.model.seek,
                day=0,
                rearranged=False,
            )
            table = driver.block_table
            state = (
                controller.online_stats.payload(),
                table.entries(),
                table.disk_copy(),
                day_metrics_payload(metrics),
                driver.disk.accesses,
                driver.disk.head_cylinder,
                simulation.events_dispatched,
                simulation.now_ms,
            )
            return state, simulation.absorbed_completions

        kernel, absorbed = run()
        with scalar_engine():
            scalar, __ = run()
        assert absorbed > 0
        assert kernel == scalar
        stats = kernel[0]
        assert stats["moves_completed"] >= 1
        assert stats["moves_cancelled"] >= 1
        assert stats["crash_aborts"] == int(crash)

    def test_same_policy_same_day_twice(self):
        from repro.api import simulate_day

        runs = [
            simulate_day(hours=0.05, policy=OnlinePolicy(idle_ms=100.0))
            for __ in range(2)
        ]
        first, second = (day_metrics_payload(day.metrics) for day in runs)
        assert first == second
        assert runs[0].workload_requests == runs[1].workload_requests

    def test_fleet_digest_identical_at_workers_1_and_8(self):
        """The acceptance criterion: an OnlinePolicy fleet digest does
        not depend on the worker count."""
        spec = FleetSpec(
            devices=8,
            disk="toshiba",
            devices_per_shard=1,
            days=2,
            hours=0.05,
            tenancy=TenancySpec(tenants=16, sessions_per_tenant_hour=40.0),
            policy="online",
        )
        serial = run_fleet(spec, workers=1)
        parallel = run_fleet(spec, workers=8)
        assert serial.digest() == parallel.digest()
        assert serial.payload() == parallel.payload()


@pytest.mark.skipif(
    not os.environ.get("ONLINE_FULL_DAY"),
    reason="full-size online day (about 10 s); set ONLINE_FULL_DAY=1",
)
@pytest.mark.parametrize(
    "profile, disk", [("users", "fujitsu"), ("system", "toshiba")]
)
def test_full_size_online_day_fast_matches_scalar(profile, disk, scalar_engine):
    """A paper-length (15 h) online day: the batch kernel and the scalar
    engine agree on the day's metrics digest and on every migration
    counter.  Short days can miss divergences that only a long day's
    thousands of idle windows expose."""

    def day():
        experiment = Experiment(make_config(profile, disk, policy="online"))
        result = experiment.run_day(rearranged=False, rearrange_tomorrow=False)
        return (
            metrics_digest(day_metrics_payload(result.metrics)),
            experiment.controller.online_stats.payload(),
        )

    kernel = day()
    with scalar_engine():
        assert day() == kernel
