"""Crash-consistent rearrangement: the paper's Section 4.1.2 recovery
protocol under injected crashes — dirty-bit semantics, mid-rearrangement
crashes, engine-scheduled daytime crashes, and graceful degradation."""

import json

import pytest

from repro.core.controller import RearrangementController
from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F, disk_model
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.ioctl import IoctlInterface
from repro.driver.request import Op, read_request, write_request
from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.invariants import BlockTableInvariants, InvariantViolation
from repro.faults.plan import FaultPlan
from repro.obs import (
    JsonlTraceWriter,
    TraceScanStats,
    replay_day_metrics,
    replay_monitors,
)
from repro.sim.engine import Simulation
from repro.sim.experiment import Experiment, ExperimentConfig, run_campaign
from repro.sim.jobs import batch_job
from repro.workload.profiles import SYSTEM_FS_PROFILE


def make_rig(plan=None):
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    faults = plan.injector() if plan is not None else None
    driver = AdaptiveDiskDriver(
        disk=Disk(TOSHIBA_MK156F), label=label, faults=faults
    )
    return driver, IoctlInterface(driver)


def serve_one(driver, request):
    completion = driver.strategy(request, request.arrival_ms)
    while completion is not None:
        __, completion = driver.complete(completion)
    return request


def fast_config(faults=None, **kwargs):
    defaults = dict(
        profile=SYSTEM_FS_PROFILE.scaled(hours=0.2),
        disk="toshiba",
        seed=3,
        num_blocks=16,
        faults=faults,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestDirtyBitSemantics:
    """The satellite test: stale on-disk dirty bits must not survive."""

    def test_recovered_entries_are_all_dirty(self):
        driver, ioctl = make_rig()
        slots = ioctl.get_reserved_area().data_blocks
        # Rearrange two blocks; each bcopy forces the table to disk with
        # clean dirty bits.
        driver.bcopy(0, slots[0], 0.0)
        driver.bcopy(1, slots[1], 100.0)
        assert all(
            not dirty for __, dirty in driver.block_table.disk_copy().values()
        )
        # Dirty one entry in memory only: the on-disk bits are now stale,
        # exactly the window the paper's recovery protocol closes.
        serve_one(driver, write_request(0, 200.0, tag="updated"))
        assert len(driver.block_table.dirty_entries()) == 1

        driver.crash(300.0)
        assert len(driver.block_table) == 0
        driver.attach()

        entries = driver.block_table.entries()
        assert len(entries) == 2
        assert all(entry.dirty for entry in entries)
        BlockTableInvariants(driver.label).check_recovery(driver.block_table)

    def test_clean_after_recovery_moves_every_block_home(self):
        driver, ioctl = make_rig()
        slots = ioctl.get_reserved_area().data_blocks
        driver.bcopy(0, slots[0], 0.0)
        serve_one(driver, write_request(0, 100.0, tag="v1"))
        driver.crash(200.0)
        driver.recover(200.0)
        # All-dirty recovery forces the move-out to copy the reserved
        # (current) data back home — the update is not lost.
        driver.clean(300.0)
        assert len(driver.block_table) == 0
        assert driver.read_data(0) == "v1"


class TestMidRearrangementCrash:
    def test_crash_between_copies_recovers_consistently(self):
        plan = FaultPlan(crash_after_copies=(3,))
        experiment = Experiment(fast_config(plan))
        experiment.run_day(rearranged=False, rearrange_tomorrow=True)

        driver = experiment.driver
        assert experiment.controller.crash_recoveries == 1
        assert driver.fault_stats.crashes == 1
        assert driver.fault_stats.recoveries == 1
        # Exactly the moves that completed before the crash survive, all
        # conservatively dirty, and the table matches its disk copy.
        entries = driver.block_table.entries()
        assert len(entries) == 3
        assert all(entry.dirty for entry in entries)
        BlockTableInvariants(driver.label).check_recovery(driver.block_table)

    def test_next_day_still_serves_and_rearranges(self):
        plan = FaultPlan(crash_after_copies=(2,))
        experiment = Experiment(fast_config(plan))
        experiment.run_day(rearranged=False, rearrange_tomorrow=True)
        day1 = experiment.run_day(rearranged=True, rearrange_tomorrow=True)
        assert day1.metrics.all.requests > 0
        # The second nightly cycle has no crash scheduled and completes.
        assert len(experiment.driver.block_table) == 16
        BlockTableInvariants(experiment.driver.label).check(
            experiment.driver.block_table
        )

    def test_direct_controller_crash_path(self):
        driver, ioctl = make_rig(FaultPlan(crash_after_copies=(1,)))
        controller = RearrangementController(ioctl=ioctl)
        for block in (1, 1, 2, 2, 3, 3):
            controller.analyzer.observe(block)
        finish = controller.end_of_day(
            now_ms=0.0, rearrange_tomorrow=True, num_blocks=3
        )
        assert finish > 0.0
        assert controller.crash_recoveries == 1
        assert controller.last_plan is None
        assert len(driver.block_table) == 1


class TestEngineCrash:
    def test_timed_crash_resubmits_lost_requests(self, scalar_engine):
        driver, __ = make_rig()
        simulation = Simulation(driver)
        simulation.add_job(batch_job(0.0, [3, 500, 900, 40, 7], Op.READ))
        simulation.schedule_crash(30.0)
        with scalar_engine():  # returns every request it completes
            completed = simulation.run()
        # Every request completes exactly once despite the crash.
        assert len(completed) == 5
        assert len({r.request_id for r in completed}) == 5
        assert driver.fault_stats.crashes == 1
        assert driver.fault_stats.recoveries == 1

    def test_crash_preserves_redirection_through_disk_copy(self):
        driver, ioctl = make_rig()
        slot = ioctl.get_reserved_area().data_blocks[0]
        serve_one(driver, write_request(0, 0.0, tag="hot"))
        driver.bcopy(0, slot, 10.0)
        simulation = Simulation(driver)
        simulation.add_job(batch_job(1000.0, [0, 0, 0], Op.READ))
        simulation.schedule_crash(1001.0)
        completed = simulation.run()
        assert len(completed) + simulation.absorbed_completions == 3
        entry = driver.block_table.lookup(
            driver.label.virtual_to_physical_block(0)
        )
        assert entry is not None and entry.dirty
        assert driver.read_data(0) == "hot"

    def test_experiment_schedules_timed_crashes(self):
        plan = FaultPlan(crash_times=((1, 60_000.0),))
        experiment = Experiment(fast_config(plan))
        experiment.run_day(rearranged=False, rearrange_tomorrow=True)
        assert experiment.driver.fault_stats.crashes == 0
        experiment.run_day(rearranged=True, rearrange_tomorrow=False)
        assert experiment.driver.fault_stats.crashes == 1
        assert experiment.driver.fault_stats.recoveries == 1

    def test_timed_crash_campaign_is_deterministic(self):
        plan = FaultPlan(seed=5, crash_times=((1, 45_000.0),))
        schedule = [False, True, False]

        def fingerprint():
            result = run_campaign(fast_config(plan), schedule)
            return [
                (d.metrics.all.requests, d.metrics.all.mean_service_ms)
                for d in result.days
            ]

        assert fingerprint() == fingerprint()


class TestGracefulDegradation:
    def controller(self, action="clean", threshold=0.1):
        driver, ioctl = make_rig()
        controller = RearrangementController(
            ioctl=ioctl, max_error_rate=threshold, degrade_action=action
        )
        for block in (1, 1, 2):
            controller.analyzer.observe(block)
        return driver, controller

    def test_unhealthy_day_degrades_to_clean(self):
        driver, controller = self.controller("clean")
        slot = driver.label.reserved_data_blocks()[0]
        driver.bcopy(5, slot, 0.0)
        driver.fault_stats.day_requests = 100
        driver.fault_stats.day_errors = 20
        controller.end_of_day(now_ms=10.0, rearrange_tomorrow=True, num_blocks=2)
        assert controller.degraded_days == 1
        assert controller.last_plan is None
        assert len(driver.block_table) == 0  # cleaned, not repopulated

    def test_unhealthy_day_with_skip_leaves_arrangement(self):
        driver, controller = self.controller("skip")
        slot = driver.label.reserved_data_blocks()[0]
        driver.bcopy(5, slot, 0.0)
        driver.fault_stats.day_requests = 100
        driver.fault_stats.day_errors = 20
        finish = controller.end_of_day(
            now_ms=10.0, rearrange_tomorrow=True, num_blocks=2
        )
        assert finish == 10.0  # no rearrangement I/O at all
        assert controller.degraded_days == 1
        assert len(driver.block_table) == 1  # yesterday's arrangement kept

    def test_healthy_day_rearranges_normally(self):
        driver, controller = self.controller("clean")
        driver.fault_stats.day_requests = 100
        driver.fault_stats.day_errors = 5
        controller.end_of_day(now_ms=10.0, rearrange_tomorrow=True, num_blocks=2)
        assert controller.degraded_days == 0
        assert len(driver.block_table) == 2

    def test_day_window_resets_each_night(self):
        driver, controller = self.controller("clean")
        driver.fault_stats.day_requests = 100
        driver.fault_stats.day_errors = 20
        controller.end_of_day(now_ms=10.0, rearrange_tomorrow=False, num_blocks=0)
        assert driver.fault_stats.day_requests == 0
        assert driver.fault_stats.day_errors == 0

    def test_bad_degrade_action_rejected(self):
        __, ioctl = make_rig()
        with pytest.raises(ValueError):
            RearrangementController(ioctl=ioctl, degrade_action="explode")


class TestInvariantChecker:
    def test_detects_shared_reserved_slot(self):
        driver, ioctl = make_rig()
        slots = ioctl.get_reserved_area().data_blocks
        driver.block_table.add(10, slots[0])
        driver.block_table.add(11, slots[1])
        # Corrupt the forward map behind the reverse map's back.
        driver.block_table._forward[11] = slots[0]
        with pytest.raises(InvariantViolation):
            BlockTableInvariants(driver.label).check(driver.block_table)

    def test_detects_clean_entry_after_recovery(self):
        driver, ioctl = make_rig()
        driver.block_table.add(10, ioctl.get_reserved_area().data_blocks[0])
        driver.block_table.write_to_disk()
        with pytest.raises(InvariantViolation):
            # Entries are clean: this is a live table, not a recovered one.
            BlockTableInvariants(driver.label).check_recovery(
                driver.block_table
            )

    def test_detects_lost_update(self):
        driver, ioctl = make_rig()
        slots = ioctl.get_reserved_area().data_blocks
        driver.block_table.add(10, slots[0])
        driver.block_table.add(11, slots[1])
        driver.block_table.write_to_disk()
        driver.block_table.crash()
        driver.block_table.recover()
        driver.block_table.remove(11)  # an entry the disk copy still lists
        with pytest.raises(InvariantViolation):
            BlockTableInvariants(driver.label).check_recovery(
                driver.block_table
            )


class TestTraceReplayWithFaults:
    def test_faulty_trace_replays_to_identical_metrics(self, tmp_path):
        # A plain day, then a rearranged one (redirected requests with
        # injected errors and retries).  Each day's trace ends with its
        # end-of-day rearrangement records, so splitting the trace there
        # gives one replay per day to compare with that day's DayMetrics.
        path = tmp_path / "faulty.jsonl"
        writer = JsonlTraceWriter(path)
        plan = FaultPlan(seed=4, transient_rate=0.01, max_retries=2)
        result = run_campaign(fast_config(plan), [False, True], tracer=writer)
        writer.close()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        ends = [
            index
            for index, line in enumerate(lines)
            if json.loads(line)["event"] == "rearrangement-end"
        ]
        assert len(ends) == 2
        days = (lines[: ends[0] + 1], lines[ends[0] + 1 :])
        seek = disk_model("toshiba").seek
        for day, (records, live) in enumerate(zip(days, result.days)):
            day_path = tmp_path / f"day{day}.jsonl"
            day_path.write_text("".join(records), encoding="utf-8")
            replayed = replay_day_metrics(
                day_path, seek, day=day, rearranged=live.metrics.rearranged
            )["disk0"]
            assert live.metrics.all.errors > 0
            assert replayed == live.metrics

    def test_truncated_trace_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = JsonlTraceWriter(path)
        run_campaign(fast_config(), [False], tracer=writer)
        writer.close()
        whole = path.read_text(encoding="utf-8")
        lines = whole.splitlines()
        # A crash mid-write leaves a half-line; add stray garbage too.
        damaged = "\n".join(lines[:-1]) + "\nnot json\n" + lines[-1][: len(lines[-1]) // 2]
        path.write_text(damaged, encoding="utf-8")
        stats = TraceScanStats()
        monitors = replay_monitors(path, stats)
        assert stats.malformed_lines == 2
        assert stats.last_malformed_lineno == len(lines) + 1
        assert monitors["disk0"].stats("all").requests > 0


class TestSimulatedCrashObject:
    def test_carries_time_and_reason(self):
        crash = SimulatedCrash(125.5, "crash after 3 block moves")
        assert crash.now_ms == 125.5
        assert "3 block moves" in str(crash)

    def test_injector_counts_fired_crashes(self):
        injector = FaultInjector(FaultPlan(crash_after_copies=(0,)))
        injector.begin_rearrangement_cycle()
        with pytest.raises(SimulatedCrash):
            injector.check_move_crash(5.0)
        assert injector.fired_crashes == 1
        injector.check_move_crash(6.0)  # consumed: does not fire twice
