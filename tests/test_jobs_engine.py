"""Tests for repro.sim.jobs and repro.sim.engine."""

import pytest

from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.request import Op
from repro.sim.engine import Simulation
from repro.sim.jobs import Job, Step, batch_job, sequential_job


@pytest.fixture
def simulation(scalar_engine):
    """A single-disk simulation on the scalar engine, whose ``run()``
    returns every request it completes: these tests read the request
    objects, which the batch kernel counts without materializing."""
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
    with scalar_engine():
        yield Simulation(driver)


class TestJobConstruction:
    def test_batch_job(self):
        job = batch_job(10.0, [1, 2, 3], Op.WRITE)
        assert not job.sequential
        assert job.num_requests == 3
        assert all(s.op is Op.WRITE for s in job.steps)

    def test_sequential_job(self):
        job = sequential_job(10.0, [1, 2], Op.READ, think_ms=5.0)
        assert job.sequential
        assert all(s.think_ms == 5.0 for s in job.steps)

    def test_empty_job_rejected(self):
        with pytest.raises(ValueError):
            Job(start_ms=0.0, steps=[])

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            batch_job(-1.0, [1], Op.READ)

    def test_negative_think_rejected(self):
        with pytest.raises(ValueError):
            Step(logical_block=1, op=Op.READ, think_ms=-1.0)

    def test_request_for(self):
        job = batch_job(10.0, [5], Op.READ)
        request = job.request_for(0, 12.0)
        assert request.logical_block == 5
        assert request.arrival_ms == 12.0


class TestBatchSemantics:
    def test_all_requests_arrive_together(self, simulation):
        simulation.add_job(batch_job(100.0, [0, 500, 900], Op.READ))
        completed = simulation.run()
        assert len(completed) == 3
        assert all(r.arrival_ms == 100.0 for r in completed)

    def test_batch_builds_a_queue(self, simulation):
        simulation.add_job(batch_job(0.0, list(range(8)), Op.WRITE))
        completed = simulation.run()
        waits = [r.queueing_ms for r in completed]
        assert waits[0] == 0.0
        assert max(waits) > 0.0  # later requests queued behind earlier ones


class TestSequentialSemantics:
    def test_closed_loop_issue_after_completion(self, simulation):
        think = 2.0
        simulation.add_job(sequential_job(0.0, [0, 1, 2], Op.READ, think_ms=think))
        completed = simulation.run()
        assert len(completed) == 3
        by_block = {r.logical_block: r for r in completed}
        for prev, nxt in ((0, 1), (1, 2)):
            assert by_block[nxt].arrival_ms == pytest.approx(
                by_block[prev].complete_ms + think
            )

    def test_sequential_requests_never_queue_on_themselves(self, simulation):
        simulation.add_job(sequential_job(0.0, list(range(10)), Op.READ))
        completed = simulation.run()
        assert all(r.queueing_ms == 0.0 for r in completed)

    def test_first_step_delayed_by_think_time(self, simulation):
        simulation.add_job(sequential_job(50.0, [3], Op.READ, think_ms=4.0))
        completed = simulation.run()
        assert completed[0].arrival_ms == pytest.approx(54.0)


class TestInterleavedJobs:
    def test_two_jobs_share_the_disk(self, simulation):
        simulation.add_job(batch_job(0.0, [0, 100], Op.READ))
        simulation.add_job(batch_job(0.5, [200], Op.WRITE))
        completed = simulation.run()
        assert len(completed) == 3
        # Completion times strictly increase (one disk).
        finishes = [r.complete_ms for r in completed]
        assert finishes == sorted(finishes)

    def test_run_until_limit(self, simulation):
        simulation.add_job(batch_job(0.0, [0], Op.READ))
        simulation.add_job(batch_job(10_000.0, [1], Op.READ))
        first = simulation.run(until_ms=5_000.0)
        assert len(first) == 1
        rest = simulation.run()
        assert len(rest) == 1


class TestPeriodicTasks:
    def test_periodic_fires_while_work_remains(self, simulation):
        ticks = []
        simulation.add_job(
            sequential_job(0.0, list(range(30)), Op.READ, think_ms=100.0)
        )
        simulation.add_periodic(500.0, ticks.append, name="poll")
        simulation.run()
        assert len(ticks) >= 3
        assert ticks == sorted(ticks)

    def test_periodic_stops_when_workload_drains(self, simulation):
        ticks = []
        simulation.add_job(batch_job(0.0, [0], Op.READ))
        simulation.add_periodic(10.0, ticks.append)
        simulation.run()
        final = len(ticks)
        assert final <= 12  # does not spin forever
        assert not simulation.events

    def test_interval_validated(self, simulation):
        with pytest.raises(ValueError):
            simulation.add_periodic(0.0, lambda now: None)

    def test_non_finite_interval_rejected(self, simulation):
        with pytest.raises(ValueError, match="finite"):
            simulation.add_periodic(float("inf"), lambda now: None)
        with pytest.raises(ValueError, match="finite"):
            simulation.add_periodic(float("nan"), lambda now: None)

    def test_non_finite_start_offset_rejected(self, simulation):
        with pytest.raises(ValueError, match="finite"):
            simulation.add_periodic(
                100.0, lambda now: None, start_offset_ms=float("inf")
            )

    def test_registration_mid_drain_uses_fire_time_base(self, simulation):
        """A periodic registered from inside another callback schedules
        relative to the firing time, not a stale or peeked clock."""
        inner_ticks = []

        def register_inner(now_ms):
            if not inner_ticks:
                simulation.add_periodic(50.0, inner_ticks.append, name="inner")
            inner_ticks.append(now_ms)

        simulation.add_job(
            sequential_job(0.0, list(range(10)), Op.READ, think_ms=100.0)
        )
        simulation.add_periodic(
            200.0, register_inner, start_offset_ms=100.0, name="outer"
        )
        simulation.run()
        # Outer first fires at 100; the inner task registered there must
        # first fire at 100 + 50.
        assert inner_ticks[0] == 100.0
        assert 150.0 in inner_ticks


class TestStatsFlow:
    def test_completed_requests_carry_breakdowns(self, simulation):
        simulation.add_job(batch_job(0.0, [0, 42], Op.READ))
        completed = simulation.run()
        for request in completed:
            assert request.seek_distance is not None
            assert request.service_ms > 0
            assert request.complete_ms is not None


class TestClose:
    """close() breaks the sim<->bus bound-method cycle so a finished
    day's device stack is freed by reference counting, not gc timing.

    These tests build their Simulation locally — the shared fixture's
    cached value would keep the weakrefs alive."""

    @staticmethod
    def fresh_simulation():
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
        driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
        return Simulation(driver)

    def test_close_frees_simulation_without_gc(self, scalar_engine):
        import gc
        import weakref

        simulation = self.fresh_simulation()
        simulation.add_job(batch_job(0.0, [0, 1], Op.READ))
        with scalar_engine():  # returns both requests
            completed = simulation.run()
        driver = simulation.devices["disk0"].driver
        driver_ref = weakref.ref(driver)
        table_ref = weakref.ref(driver.block_table)
        sim_ref = weakref.ref(simulation)
        del driver
        simulation.close()
        assert len(completed) == 2  # caller's list survives close()
        gc.disable()
        try:
            del simulation
            assert sim_ref() is None
            assert driver_ref() is None
            assert table_ref() is None
        finally:
            gc.enable()

    def test_unclosed_simulation_needs_a_gc_pass(self):
        """The control: without close(), the cycle keeps everything
        alive — this is exactly what close() exists to prevent."""
        import gc
        import weakref

        simulation = self.fresh_simulation()
        simulation.run()
        sim_ref = weakref.ref(simulation)
        gc.disable()
        try:
            del simulation
            assert sim_ref() is not None
            gc.collect()
            assert sim_ref() is None
        finally:
            gc.enable()

    def test_closed_simulation_rejects_new_work(self, simulation):
        from repro.sim.events import JobStart, MachineCrash

        simulation.run()
        simulation.close()
        with pytest.raises(KeyError):  # devices are gone
            simulation.add_job(batch_job(0.0, [0], Op.READ), device="disk0")
        # ...and so are the bus subscriptions.
        assert not simulation.bus.handles(JobStart)
        assert not simulation.bus.handles(MachineCrash)
