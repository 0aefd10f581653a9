"""Edge cases and failure injection across modules."""

import dataclasses


from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.request import Op
from repro.sim.engine import Simulation
from repro.sim.experiment import Experiment, ExperimentConfig
from repro.sim.jobs import batch_job, sequential_job
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import SYSTEM_FS_PROFILE, USERS_FS_PROFILE


def make_driver(reserved=48):
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=reserved)
    return AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)


class TestRequestMonitorOverflow:
    def test_suspension_under_slow_polling(self):
        """If the analyzer polls too slowly the table fills and recording
        suspends — requests are still *served*, only the record is lost."""
        driver = make_driver()
        driver.request_monitor.capacity = 5
        simulation = Simulation(driver)
        simulation.add_job(batch_job(0.0, list(range(20)), Op.READ))
        completed = simulation.run()
        # Service is unaffected.
        assert len(completed) + simulation.absorbed_completions == 20
        assert len(driver.request_monitor) == 5
        assert driver.request_monitor.suspended_count == 15


class TestEngineInterruption:
    def test_run_until_preserves_in_flight_work(self):
        driver = make_driver()
        simulation = Simulation(driver)
        simulation.add_job(batch_job(0.0, [0, 5000, 10000], Op.READ))
        first = simulation.run(until_ms=1.0)  # before first completion
        assert first == [] and simulation.absorbed_completions == 0
        rest = simulation.run()
        assert len(rest) + simulation.absorbed_completions == 3

    def test_interleaved_run_calls_accumulate(self):
        driver = make_driver()
        simulation = Simulation(driver)
        simulation.add_job(batch_job(0.0, [0], Op.READ))
        simulation.add_job(batch_job(500.0, [100], Op.READ))
        simulation.run(until_ms=250.0)
        simulation.run()
        assert len(simulation.completed) + simulation.absorbed_completions == 2


class TestKeepArrangement:
    def test_keep_arrangement_skips_nightly_cycle(self):
        config = ExperimentConfig(
            profile=SYSTEM_FS_PROFILE.scaled(hours=0.25),
            disk="toshiba",
            seed=3,
        )
        experiment = Experiment(config)
        experiment.run_day(rearranged=False, rearrange_tomorrow=True)
        table_before = len(experiment.driver.block_table)
        assert table_before > 0
        experiment.run_day(
            rearranged=True, rearrange_tomorrow=False, keep_arrangement=True
        )
        assert len(experiment.driver.block_table) == table_before
        # And the analyzer still reset for the next day.
        assert experiment.controller.analyzer.observed == 0


class TestTinyReservedArea:
    def test_one_reserved_cylinder_still_works(self):
        driver = make_driver(reserved=1)
        capacity = driver.label.reserved_capacity_blocks()
        assert capacity == 21 - 2
        from repro.core.arranger import BlockArranger
        from repro.driver.ioctl import IoctlInterface

        arranger = BlockArranger(IoctlInterface(driver))
        hot = [(b, 10) for b in range(100)]
        moves, __ = arranger.rearrange(hot, num_blocks=100, now_ms=0.0)
        assert len(moves) == capacity


class TestUsersProfileFallbacks:
    def test_rewrite_on_full_filesystem_degrades_gracefully(self):
        """When the FS cannot host a rewrite copy, the edit falls back to
        in-place updates instead of failing."""
        profile = dataclasses.replace(
            USERS_FS_PROFILE.scaled(hours=0.25),
            num_directories=2,
            files_per_directory=12,
            mean_file_blocks=30.0,
            edit_session_fraction=1.0,
            new_files_per_day=50,
        )
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
        # A deliberately tiny partition.
        partition = label.add_partition("home", 21 * 40)
        generator = WorkloadGenerator(profile, partition, 21, seed=3)
        workload = generator.generate_day()  # must not raise
        assert workload.num_requests > 0


class TestDriverHeadState:
    def test_head_position_persists_across_days(self, scalar_engine):
        driver = make_driver()
        sim1 = Simulation(driver)
        sim1.add_job(batch_job(0.0, [700 * 21], Op.READ))
        sim1.run()
        head = driver.disk.head_cylinder
        assert head > 600
        # A new simulation (new day) starts with the head where it was.
        sim2 = Simulation(driver)
        sim2.add_job(sequential_job(0.0, [700 * 21 + 1], Op.READ))
        with scalar_engine():  # returns the request it completes
            completed = sim2.run()
        assert completed[0].seek_distance == 0


class TestZeroLengthDay:
    def test_empty_day_produces_empty_metrics(self):
        from repro.driver.ioctl import IoctlInterface
        from repro.stats.metrics import DayMetrics

        driver = make_driver()
        ioctl = IoctlInterface(driver)
        metrics = DayMetrics.from_tables(
            ioctl.read_stats(), TOSHIBA_MK156F.seek
        )
        assert metrics.all.requests == 0
        assert metrics.all.mean_seek_time_ms == 0.0
