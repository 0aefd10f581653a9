"""Tests for repro.core.controller — the daily rearrangement cycle."""

import pytest

from repro.core.analyzer import ReferenceStreamAnalyzer
from repro.core.controller import (
    MONITOR_POLL_INTERVAL_MS,
    RearrangementController,
)
from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.ioctl import IoctlInterface
from repro.driver.request import Op
from repro.sim.engine import Simulation
from repro.sim.jobs import batch_job


@pytest.fixture
def rig():
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
    ioctl = IoctlInterface(driver)
    controller = RearrangementController(ioctl=ioctl)
    return driver, ioctl, controller


class TestMonitoring:
    def test_paper_poll_interval_default(self, rig):
        __, __, controller = rig
        assert controller.poll_interval_ms == MONITOR_POLL_INTERVAL_MS == 120_000.0

    def test_periodic_polls_feed_the_analyzer(self, rig):
        driver, __, controller = rig
        simulation = Simulation(driver)
        controller.attach_to(simulation)
        # Spread requests across several poll intervals.
        for i in range(5):
            simulation.add_job(
                batch_job(i * 130_000.0, [7, 7, 9], Op.READ)
            )
        simulation.run()
        controller.final_poll()
        assert controller.analyzer.count_of(7) == 10
        assert controller.analyzer.count_of(9) == 5

    def test_polling_prevents_request_table_overflow(self, rig):
        driver, __, controller = rig
        driver.request_monitor.capacity = 4
        simulation = Simulation(driver)
        controller.attach_to(simulation)
        for i in range(6):
            simulation.add_job(
                batch_job(i * 125_000.0, [1, 2, 3], Op.READ)
            )
        simulation.run()
        controller.final_poll()
        assert driver.request_monitor.suspended_count == 0


class TestEndOfDay:
    def test_on_day_rearranges_from_counts(self, rig):
        driver, __, controller = rig
        for block in (1, 1, 1, 2, 2, 3):
            controller.analyzer.observe(block)
        finish = controller.end_of_day(
            now_ms=0.0, rearrange_tomorrow=True, num_blocks=2
        )
        assert finish > 0
        assert len(driver.block_table) == 2
        assert controller.last_plan is not None
        assert [block for block, __ in controller.last_plan] == [1, 2]
        # Counts reset for the next day.
        assert controller.analyzer.observed == 0

    def test_off_day_cleans_reserved_area(self, rig):
        driver, __, controller = rig
        controller.analyzer.observe(1)
        controller.end_of_day(now_ms=0.0, rearrange_tomorrow=True, num_blocks=1)
        assert len(driver.block_table) == 1
        controller.analyzer.observe(2)
        controller.end_of_day(now_ms=0.0, rearrange_tomorrow=False, num_blocks=1)
        assert len(driver.block_table) == 0
        assert controller.last_plan is None

    def test_end_of_day_drains_request_table(self, rig):
        driver, ioctl, controller = rig
        from repro.driver.request import read_request

        completion = driver.strategy(read_request(4, 0.0), 0.0)
        while completion is not None:
            __, completion = driver.complete(completion)
        controller.end_of_day(
            now_ms=1000.0, rearrange_tomorrow=True, num_blocks=5
        )
        # The final poll captured block 4 before the reset.
        assert len(driver.block_table) == 1

    def test_custom_analyzer(self):
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
        driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
        controller = RearrangementController(
            ioctl=IoctlInterface(driver),
            analyzer=ReferenceStreamAnalyzer(capacity=16),
        )
        assert controller.analyzer.capacity == 16
