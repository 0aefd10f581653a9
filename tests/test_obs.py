"""Instrumentation layer: tracer hooks, metrics, JSONL traces, parallel runs."""

import io
import json
from collections import Counter

import pytest

from repro.obs import (
    NULL_TRACER,
    JsonlTraceWriter,
    NullTracer,
    Tracer,
    iter_trace,
    replay_day_metrics,
    replay_monitors,
)
from repro.parallel import resolve_workers
from repro.sim.experiment import (
    Experiment,
    ExperimentConfig,
    alternating_schedule,
    run_block_count_sweep,
    run_campaign,
    run_campaigns_parallel,
)
from repro.workload.profiles import SYSTEM_FS_PROFILE

SHORT_PROFILE = SYSTEM_FS_PROFILE.scaled(hours=0.15)
SHORT_CONFIG = ExperimentConfig(profile=SHORT_PROFILE, seed=21)


class RecordingTracer(Tracer):
    def __init__(self):
        self.calls = []
        self.closed = False
        self.max_queue_depth = 0
        self.moved_blocks = 0

    def request_enqueued(self, device, request, now_ms, queue_depth):
        self.calls.append(("enqueued", device))
        self.max_queue_depth = max(self.max_queue_depth, queue_depth)

    def seek_started(self, device, request, now_ms, seek_distance):
        self.calls.append(("seek", device))

    def service_complete(self, device, request, now_ms):
        self.calls.append(("complete", device))

    def rearrangement_begin(self, device, now_ms, num_blocks):
        self.calls.append(("rearrange-begin", device))

    def rearrangement_end(self, device, now_ms, moved_blocks):
        self.calls.append(("rearrange-end", device))
        self.moved_blocks += moved_blocks

    def close(self):
        self.closed = True


class TestTracerBasics:
    def test_base_hooks_are_no_ops(self):
        tracer = Tracer()
        tracer.request_enqueued("d", None, 0.0, 1)
        tracer.seek_started("d", None, 0.0, 5)
        tracer.service_complete("d", None, 0.0)
        tracer.rearrangement_begin("d", 0.0, 10)
        tracer.rearrangement_end("d", 0.0, 10)
        tracer.close()

    def test_null_tracer_singleton_identity(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NullTracer() is not NULL_TRACER


class TestTracerThreading:
    """The engine installs its tracer across the stack (unless overridden)."""

    def run_traced_day(self, tracer):
        experiment = Experiment(SHORT_CONFIG, tracer=tracer)
        return experiment.run_day(rearranged=False, rearrange_tomorrow=True)

    def test_experiment_threads_tracer_to_driver_and_controller(self):
        tracer = RecordingTracer()
        result = self.run_traced_day(tracer)
        assert {device for __, device in tracer.calls} == {"disk0"}
        # One enqueue, seek and completion per request the driver's
        # tables counted, and one nightly rearrangement that moved blocks.
        requests = result.metrics.all.requests
        assert Counter(kind for kind, __ in tracer.calls) == {
            "enqueued": requests,
            "seek": requests,
            "complete": requests,
            "rearrange-begin": 1,
            "rearrange-end": 1,
        }
        assert tracer.max_queue_depth >= 1
        assert tracer.moved_blocks > 0

    def test_explicit_driver_tracer_not_clobbered(self):
        from repro.sim.engine import Simulation
        from tests.test_multidevice import FixedLatencyDriver

        mine = RecordingTracer()
        driver = FixedLatencyDriver(1.0)
        driver.tracer = mine
        Simulation(driver, tracer=RecordingTracer())
        assert driver.tracer is mine

    def test_engine_tracer_installed_when_driver_has_none(self):
        from repro.sim.engine import Simulation
        from tests.test_multidevice import FixedLatencyDriver

        tracer = RecordingTracer()
        driver = FixedLatencyDriver(1.0)
        Simulation(driver, tracer=tracer)
        assert driver.tracer is tracer


class TestJsonlWriter:
    def test_writes_to_stream_without_owning_it(self):
        stream = io.StringIO()
        tracer = JsonlTraceWriter(stream)
        tracer.rearrangement_begin("disk0", 1.5, 100)
        tracer.close()
        assert stream.getvalue() != ""
        record = json.loads(stream.getvalue())
        assert record == {
            "event": "rearrangement-begin",
            "device": "disk0",
            "t": 1.5,
            "blocks": 100,
        }
        stream.write("still open\n")  # close() left the stream alone

    def test_context_manager_closes_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceWriter(path) as tracer:
            tracer.rearrangement_end("d", 2.0, 7)
        assert tracer.events_written == 1
        [record] = list(iter_trace(path))
        assert record["event"] == "rearrangement-end"
        assert record["blocks"] == 7

    def test_closed_writer_drops_events_instead_of_raising(self, tmp_path):
        """A simulation may outlive its tracer: once the writer is
        closed, further hook calls are dropped, not errors."""
        path = tmp_path / "partial.jsonl"
        with JsonlTraceWriter(path) as tracer:
            experiment = Experiment(SHORT_CONFIG, tracer=tracer)
            experiment.run_day(rearranged=False, rearrange_tomorrow=True)
            written = tracer.events_written
        assert tracer.closed
        # The driver still holds the closed tracer; the next day must
        # run cleanly and add nothing to the file.
        experiment.run_day(rearranged=True, rearrange_tomorrow=False)
        assert tracer.events_written == written
        assert len(list(iter_trace(path))) == written

    def test_single_disk_roundtrip(self, tmp_path):
        path = tmp_path / "day.jsonl"
        with JsonlTraceWriter(path) as tracer:
            experiment = Experiment(SHORT_CONFIG, tracer=tracer)
            result = experiment.run_day(
                rearranged=False, rearrange_tomorrow=False
            )
            seek_model = experiment.model.seek

        monitors = replay_monitors(path)
        assert list(monitors) == ["disk0"]
        replayed = replay_day_metrics(path, seek_model)["disk0"]
        assert replayed == result.metrics


class TestParallelCampaigns:
    def test_resolve_workers(self):
        assert resolve_workers(3, tasks=8) == 3
        with pytest.warns(RuntimeWarning):  # more workers than tasks
            assert resolve_workers(16, tasks=2) == 2
        assert resolve_workers(None, tasks=4) >= 1
        with pytest.raises(ValueError):
            resolve_workers(0, tasks=4)

    def test_parallel_matches_serial(self):
        schedule = alternating_schedule(3)
        configs = {
            "a": SHORT_CONFIG,
            "b": ExperimentConfig(profile=SHORT_PROFILE, seed=22),
        }
        serial = {
            key: run_campaign(config, schedule)
            for key, config in configs.items()
        }
        parallel = dict(
            run_campaigns_parallel(
                [(key, config, schedule) for key, config in configs.items()],
                workers=2,
            )
        )
        assert sorted(parallel) == sorted(serial)
        for key, campaign in serial.items():
            got = parallel[key]
            assert len(got.days) == len(campaign.days)
            for mine, theirs in zip(campaign.days, got.days):
                assert mine.metrics == theirs.metrics
                assert mine.rearranged_blocks == theirs.rearranged_blocks

    def test_serial_sweep_unchanged_by_parallel_variant(self):
        """The sweep chains its days the paper's way: a training day,
        then one day per count trained on the day before it."""
        points = run_block_count_sweep(SHORT_CONFIG, [25])
        assert len(points) == 1
        count, day = points[0]
        assert count == 25
        assert day.metrics.all.requests > 0
