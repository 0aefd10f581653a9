"""Cross-module integration tests: data integrity, recovery, and the full
monitor -> analyze -> rearrange -> redirect loop."""

import pytest

from repro.core.controller import RearrangementController
from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import FUJITSU_M2266, TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.ioctl import IoctlInterface
from repro.driver.request import Op
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig, run_onoff_campaign
from repro.sim.jobs import batch_job, sequential_job
from repro.workload.profiles import SYSTEM_FS_PROFILE


def make_rig(model=TOSHIBA_MK156F, reserved=48):
    label = DiskLabel(model.geometry, reserved_cylinders=reserved)
    driver = AdaptiveDiskDriver(disk=Disk(model), label=label)
    ioctl = IoctlInterface(driver)
    controller = RearrangementController(ioctl=ioctl)
    return driver, ioctl, controller


class TestFullAdaptiveLoop:
    def test_hot_blocks_get_redirected_next_day(self, scalar_engine):
        driver, __, controller = make_rig()
        hot_blocks = [10, 11, 500, 2000]

        # Day 1: traffic observed via the periodic poll.
        day1 = Simulation(driver)
        controller.attach_to(day1)
        for i in range(20):
            day1.add_job(batch_job(i * 10_000.0, hot_blocks, Op.READ))
        day1.run()
        controller.end_of_day(
            now_ms=day1.now_ms, rearrange_tomorrow=True, num_blocks=4
        )
        assert len(driver.block_table) == 4

        # Day 2: the same blocks are served from the reserved area.
        day2 = Simulation(driver)
        day2.add_job(batch_job(0.0, hot_blocks, Op.READ))
        with scalar_engine():  # returns every request it completes
            completed = day2.run()
        assert len(completed) == len(hot_blocks)
        assert all(r.redirected for r in completed)
        reserved_cylinders = {
            driver.disk.geometry.cylinder_of_block(r.target_block)
            for r in completed
        }
        for cylinder in reserved_cylinders:
            assert driver.label.is_reserved_cylinder(cylinder)

    def test_organ_pipe_concentration_on_day_two(self):
        """The hottest block lands on the center cylinder of the
        reserved area."""
        driver, __, controller = make_rig()
        day1 = Simulation(driver)
        controller.attach_to(day1)
        day1.add_job(batch_job(0.0, [42] * 50 + [7] * 3, Op.READ))
        day1.run()
        controller.end_of_day(
            now_ms=day1.now_ms, rearrange_tomorrow=True, num_blocks=2
        )
        physical = driver.label.virtual_to_physical_block(42)
        entry = driver.block_table.lookup(physical)
        center = driver.label.reserved_center_cylinder()
        assert driver.disk.geometry.cylinder_of_block(entry.reserved_block) == center


class TestDataIntegrityUnderWorkload:
    def test_reads_always_see_latest_write(self):
        """Writes and reads through redirection, interleaved with
        rearrangement cycles, never lose data."""
        driver, __, controller = make_rig()
        block = 1234

        sim = Simulation(driver)
        sim.add_job(batch_job(0.0, [block], Op.WRITE))
        sim.run()
        driver.disk.write_data(
            driver.label.virtual_to_physical_block(block), "v1"
        )

        for generation in range(3):
            # Monitor traffic, rearrange, then overwrite via the driver.
            sim = Simulation(driver)
            controller.attach_to(sim)
            sim.add_job(batch_job(0.0, [block] * 5, Op.READ))
            sim.run()
            controller.end_of_day(
                now_ms=10_000.0, rearrange_tomorrow=True, num_blocks=1
            )
            assert driver.read_data(block) == f"v{generation + 1}"

            sim = Simulation(driver)
            sim.add_job(
                batch_job(0.0, [block], Op.WRITE)
            )
            sim.run()  # completed; write the tag manually
            target = driver.block_table.lookup(
                driver.label.virtual_to_physical_block(block)
            ).reserved_block
            driver.disk.write_data(target, f"v{generation + 2}")
            driver.block_table.mark_dirty(
                driver.label.virtual_to_physical_block(block)
            )

        controller.end_of_day(
            now_ms=50_000.0, rearrange_tomorrow=False, num_blocks=0
        )
        assert driver.read_data(block) == "v4"


class TestCrashRecoveryMidCycle:
    def test_dirty_rearranged_block_survives_crash(self, scalar_engine):
        driver, ioctl, controller = make_rig()
        block = 77
        physical = driver.label.virtual_to_physical_block(block)
        driver.disk.write_data(physical, "original")

        controller.analyzer.observe(block)
        controller.end_of_day(now_ms=0.0, rearrange_tomorrow=True, num_blocks=1)

        # Update the block through the driver (lands in the reserved area).
        sim = Simulation(driver)
        job = batch_job(0.0, [block], Op.WRITE)
        job.steps[0] = type(job.steps[0])(block, Op.WRITE)
        sim.add_job(job)
        with scalar_engine():  # returns the request it completes
            done = sim.run()
        target = done[0].target_block
        driver.disk.write_data(target, "updated")

        # Crash before the dirty bit ever reaches the disk copy.
        driver.block_table.crash()
        driver.attach()

        # Conservative recovery marked it dirty; cleaning copies it home.
        driver.clean(now_ms=10_000.0)
        assert driver.disk.read_data(physical) == "updated"
        assert driver.read_data(block) == "updated"


class TestTrackBufferUnderRedirection:
    def test_sequential_reads_in_reserved_area_hit_buffer(self, scalar_engine):
        driver, __, controller = make_rig(model=FUJITSU_M2266, reserved=80)
        run = [100, 101, 102, 103]
        day1 = Simulation(driver)
        controller.attach_to(day1)
        day1.add_job(sequential_job(0.0, run, Op.READ, think_ms=1.0))
        day1.run()
        controller.end_of_day(
            now_ms=day1.now_ms, rearrange_tomorrow=True, num_blocks=4
        )
        day2 = Simulation(driver)
        day2.add_job(sequential_job(0.0, run, Op.READ, think_ms=1.0))
        with scalar_engine():  # returns every request it completes
            completed = day2.run()
        assert any(r.buffer_hit for r in completed)


class TestFcfsCounterfactualStability:
    def test_fcfs_distance_insensitive_to_rearrangement(self):
        """Table 3: the arrival-order (FCFS) seek distance is computed on
        original positions, so it barely moves between off and on days."""
        config = ExperimentConfig(
            profile=SYSTEM_FS_PROFILE.scaled(hours=1.0),
            disk="toshiba",
            seed=5,
        )
        result = run_onoff_campaign(config, days=4)
        off = [
            d.metrics.all.fcfs_mean_seek_distance for d in result.off_days()
        ]
        on = [d.metrics.all.fcfs_mean_seek_distance for d in result.on_days()]
        mean_off = sum(off) / len(off)
        mean_on = sum(on) / len(on)
        assert mean_on == pytest.approx(mean_off, rel=0.25)
