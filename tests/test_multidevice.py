"""Multi-device simulation: several drivers clocked by one engine.

Covers the engine's per-device bookkeeping (interleaved completions,
deterministic ordering under equal timestamps), the DeviceDriver protocol
boundary with a minimal stub device, and the paper's two-disk server shape
(one Toshiba + one Fujitsu driver on a single Simulation) with per-device
metrics and JSONL trace replay.
"""

from collections import deque

import pytest

from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import FUJITSU_M2266, TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.protocol import DeviceDriver
from repro.driver.request import Op
from repro.obs import NULL_TRACER, JsonlTraceWriter, replay_day_metrics
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig
from repro.sim.jobs import batch_job, sequential_job
from repro.sim.multifs import MultiDiskExperiment
from repro.workload.profiles import SYSTEM_FS_PROFILE


class FixedLatencyDriver:
    """Minimal DeviceDriver: FIFO service at a constant latency."""

    def __init__(self, latency_ms: float, name: str = "stub") -> None:
        self.latency_ms = latency_ms
        self.name = name
        self.tracer = NULL_TRACER
        self._pending = deque()
        self._current = None

    @property
    def busy(self) -> bool:
        return self._current is not None

    def attach(self) -> None:
        pass

    def _start(self, now_ms: float) -> float:
        self._current = self._pending.popleft()
        self._current.submit_ms = now_ms
        self._current.seek_distance = 0
        return now_ms + self.latency_ms

    def strategy(self, request, now_ms):
        self._pending.append(request)
        if not self.busy:
            return self._start(now_ms)
        return None

    def complete(self, now_ms):
        request = self._current
        self._current = None
        request.complete_ms = now_ms
        next_completion = self._start(now_ms) if self._pending else None
        return request, next_completion


def adaptive_driver(model, reserved, name):
    label = DiskLabel(model.geometry, reserved_cylinders=reserved)
    return AdaptiveDiskDriver(
        disk=Disk(model), label=label, name=name
    )


class TestDeviceRegistry:
    def test_single_driver_keeps_legacy_shape(self):
        driver = adaptive_driver(TOSHIBA_MK156F, 48, "disk0")
        simulation = Simulation(driver)
        assert simulation.driver is driver
        assert list(simulation.devices) == ["disk0"]

    def test_stub_satisfies_protocol(self):
        assert isinstance(FixedLatencyDriver(1.0), DeviceDriver)
        assert isinstance(
            adaptive_driver(TOSHIBA_MK156F, 48, "t"), DeviceDriver
        )

    def test_registered_name_wins(self):
        driver = FixedLatencyDriver(1.0, name="whatever")
        simulation = Simulation(drivers={"left": driver})
        assert driver.name == "left"
        assert list(simulation.devices) == ["left"]

    def test_duplicate_name_rejected(self):
        simulation = Simulation(FixedLatencyDriver(1.0, name="a"))
        with pytest.raises(ValueError):
            simulation.add_device(FixedLatencyDriver(1.0), device="a")

    def test_driver_property_ambiguous_with_two_devices(self):
        simulation = Simulation(
            drivers={
                "a": FixedLatencyDriver(1.0),
                "b": FixedLatencyDriver(2.0),
            }
        )
        with pytest.raises(ValueError):
            simulation.driver

    def test_add_job_requires_device_when_ambiguous(self):
        simulation = Simulation(
            drivers={
                "a": FixedLatencyDriver(1.0),
                "b": FixedLatencyDriver(2.0),
            }
        )
        with pytest.raises(ValueError):
            simulation.add_job(batch_job(0.0, [1], Op.READ))
        with pytest.raises(KeyError):
            simulation.add_job(batch_job(0.0, [1], Op.READ), device="c")


class TestInterleavedCompletions:
    def test_two_devices_interleave(self):
        """A slow and a fast device service their queues concurrently."""
        simulation = Simulation(
            drivers={
                "slow": FixedLatencyDriver(10.0),
                "fast": FixedLatencyDriver(4.0),
            }
        )
        simulation.add_job(batch_job(0.0, [0, 1], Op.READ), device="slow")
        simulation.add_job(batch_job(0.0, [0, 1, 2], Op.READ), device="fast")
        completed = simulation.run()
        finish = {
            device: [r.complete_ms for r in simulation.completed_on(device)]
            for device in ("slow", "fast")
        }
        assert finish["slow"] == [10.0, 20.0]
        assert finish["fast"] == [4.0, 8.0, 12.0]
        # Global completion order interleaves the two devices.
        assert [r.complete_ms for r in completed] == [
            4.0, 8.0, 10.0, 12.0, 20.0
        ]

    def test_equal_timestamps_resolve_in_registration_order(self):
        """Completions at the same instant fire in event-insertion order,
        so a run is reproducible tie for tie."""
        def build():
            simulation = Simulation(
                drivers={
                    "a": FixedLatencyDriver(5.0),
                    "b": FixedLatencyDriver(5.0),
                }
            )
            simulation.add_job(batch_job(0.0, [0], Op.READ), device="a")
            simulation.add_job(batch_job(0.0, [0], Op.READ), device="b")
            completed = simulation.run()
            order = []
            for request in completed:
                for device in ("a", "b"):
                    if request in simulation.completed_on(device):
                        order.append(device)
            return order, [r.complete_ms for r in completed]

        first_order, first_times = build()
        second_order, second_times = build()
        assert first_times == [5.0, 5.0]
        assert first_order == ["a", "b"]  # insertion order breaks the tie
        assert (first_order, first_times) == (second_order, second_times)

    def test_closed_loop_jobs_stay_on_their_device(self):
        simulation = Simulation(
            drivers={
                "a": FixedLatencyDriver(3.0),
                "b": FixedLatencyDriver(7.0),
            }
        )
        simulation.add_job(
            sequential_job(0.0, [0, 1, 2], Op.READ, think_ms=1.0), device="a"
        )
        simulation.add_job(
            sequential_job(0.0, [0, 1], Op.READ, think_ms=1.0), device="b"
        )
        simulation.run()
        assert len(simulation.completed_on("a")) == 3
        assert len(simulation.completed_on("b")) == 2
        # Closed loop: next arrival = previous completion + think.
        a = simulation.completed_on("a")
        assert a[1].arrival_ms == pytest.approx(a[0].complete_ms + 1.0)

    def test_per_device_outstanding_isolation(self):
        """One busy device never blocks another: both can be mid-service
        simultaneously (the old engine's single in-flight flag forbade
        this)."""
        simulation = Simulation(
            drivers={
                "a": FixedLatencyDriver(100.0),
                "b": FixedLatencyDriver(1.0),
            }
        )
        simulation.add_job(batch_job(0.0, [0], Op.READ), device="a")
        simulation.add_job(batch_job(0.0, [0], Op.READ), device="b")
        first = simulation.run(until_ms=50.0)
        assert [r.complete_ms for r in first] == [1.0]
        assert simulation.has_pending_work  # "a" still in flight
        rest = simulation.run()
        assert [r.complete_ms for r in rest] == [100.0]
        assert not simulation.has_pending_work


class TestTwoRealDisks:
    def make_simulation(self):
        toshiba = adaptive_driver(TOSHIBA_MK156F, 48, "toshiba0")
        fujitsu = adaptive_driver(FUJITSU_M2266, 80, "fujitsu0")
        return Simulation(
            drivers={"toshiba0": toshiba, "fujitsu0": fujitsu}
        )

    def test_two_adaptive_drivers_run_concurrently(self, scalar_engine):
        simulation = self.make_simulation()
        simulation.add_job(
            batch_job(0.0, [0, 500, 900], Op.READ), device="toshiba0"
        )
        simulation.add_job(
            batch_job(0.0, [0, 5000, 9000], Op.WRITE), device="fujitsu0"
        )
        with scalar_engine():  # returns every request it completes
            completed = simulation.run()
        assert len(completed) == 6
        assert len(simulation.completed_on("toshiba0")) == 3
        assert len(simulation.completed_on("fujitsu0")) == 3
        for device in ("toshiba0", "fujitsu0"):
            finishes = [
                r.complete_ms for r in simulation.completed_on(device)
            ]
            assert finishes == sorted(finishes)
            driver = simulation.devices[device].driver
            assert driver.perf_monitor.stats("all").requests == 3

    def test_same_seed_same_interleaving(self, scalar_engine):
        def run_once():
            simulation = self.make_simulation()
            simulation.add_job(
                batch_job(0.0, list(range(6)), Op.READ), device="toshiba0"
            )
            simulation.add_job(
                batch_job(0.0, list(range(6)), Op.READ), device="fujitsu0"
            )
            with scalar_engine():  # returns every request it completes
                completed = simulation.run()
            return [(r.logical_block, r.complete_ms) for r in completed]

        first = run_once()
        assert len(first) == 12
        assert first == run_once()


SHORT_PROFILE = SYSTEM_FS_PROFILE.scaled(hours=0.2)


class TestMultiDiskExperiment:
    def make_experiment(self, tracer=NULL_TRACER):
        configs = [
            ExperimentConfig(
                profile=SHORT_PROFILE, disk="toshiba", name="toshiba0", seed=11
            ),
            ExperimentConfig(
                profile=SHORT_PROFILE, disk="fujitsu", name="fujitsu0", seed=12
            ),
        ]
        return MultiDiskExperiment(configs, tracer=tracer)

    def test_per_device_metrics_end_to_end(self):
        experiment = self.make_experiment()
        off = experiment.run_day(rearranged=False, rearrange_tomorrow=True)
        assert sorted(off.per_device) == ["fujitsu0", "toshiba0"]
        for device, metrics in off.per_device.items():
            assert metrics.all.requests > 0
            assert metrics.all.requests == off.per_device_requests[device]
        on = experiment.run_day(rearranged=True, rearrange_tomorrow=False)
        # Each disk got its own reserved area populated overnight...
        assert all(count > 0 for count in on.rearranged_blocks.values())
        # ...and each disk's seek time drops on its rearranged day.
        for device in experiment.device_names:
            assert (
                on.per_device[device].all.mean_seek_time_ms
                < off.per_device[device].all.mean_seek_time_ms
            )

    def test_one_devices_night_leaves_the_others_layout(self):
        """Two devices of one geometry: device A's clean and moves change
        A's block table only.  B's reserved layout, its organ-pipe slot
        order and its (empty) block table stay as they were."""
        experiment = MultiDiskExperiment(
            [
                ExperimentConfig(profile=SHORT_PROFILE, name=name, seed=seed)
                for name, seed in (("a", 21), ("b", 22))
            ]
        )
        experiment.run_day(rearranged=False, rearrange_tomorrow=False)
        a, b = (experiment.rigs[name] for name in ("a", "b"))
        layout_a = a.controller.arranger.reserved_layout()
        layout_b = b.controller.arranger.reserved_layout()
        before = (layout_b, list(layout_b.center_out_slots()))
        assert layout_a == layout_b  # one geometry, one layout...
        assert layout_a is not layout_b  # ...but each device's own
        a.controller.analyzer.observe_blocks(list(range(0, 4000, 7)))
        a.controller.end_of_day(now_ms=0.0, rearrange_tomorrow=True,
                                num_blocks=a.num_blocks)
        assert len(a.driver.block_table) > 0
        assert len(b.driver.block_table) == 0
        after = b.controller.arranger.reserved_layout()
        assert after is layout_b
        assert (after, list(after.center_out_slots())) == before
        # A's copies went to the head of its organ-pipe order.
        slots = list(layout_a.center_out_slots())
        placed = a.driver.block_table.occupied_reserved_blocks()
        assert placed == set(slots[: len(placed)])

    def test_jsonl_trace_replays_into_same_day_metrics(self, tmp_path):
        """Acceptance: the JSONL tracer's request-lifecycle events replay
        into exactly the per-device DayMetrics the live run reported."""
        trace_path = tmp_path / "two-disks.jsonl"
        with JsonlTraceWriter(trace_path) as tracer:
            experiment = self.make_experiment(tracer=tracer)
            result = experiment.run_day(
                rearranged=False, rearrange_tomorrow=True
            )
            seek_models = {
                name: rig.model.seek
                for name, rig in experiment.rigs.items()
            }
        assert tracer.events_written > 0

        replayed = replay_day_metrics(trace_path, seek_models)
        for device, live in result.per_device.items():
            assert replayed[device] == live

    def test_trace_contains_both_devices_and_rearrangement(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(trace_path) as tracer:
            experiment = self.make_experiment(tracer=tracer)
            experiment.run_day(rearranged=False, rearrange_tomorrow=True)

        from repro.obs import iter_trace

        records = list(iter_trace(trace_path))
        devices = {record["device"] for record in records}
        kinds = {record["event"] for record in records}
        assert devices == {"toshiba0", "fujitsu0"}
        assert {
            "request-enqueued",
            "seek-started",
            "service-complete",
            "rearrangement-begin",
            "rearrangement-end",
        } <= kinds
