"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per run, so every run pays its own
set-up and reports its own peak resident memory.  A :class:`SpeedProbe`
samples host speed throughout the run, and every host time is read on
its corrected clock (``probe.py``).  The last line of standard output is
one JSON object: the host timings, the simulated metrics, the digest,
the day-level check failures and, with ``--trace``, the per-layer
numbers.

    python3 perfbench/worker.py --workload system_nightly --seed 1993
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from probe import CHASE_BYTES, SpeedProbe  # noqa: E402
from tracing import (  # noqa: E402
    LAYER_ENTRY_POINTS,
    ROOT_SPAN,
    SPAN_NAMES,
    Span,
    SpanRecorder,
    check_nesting,
    self_times,
    write_spans,
)
from workloads import (  # noqa: E402
    REQUIRED_SPANS,
    WORKLOADS,
    RunOutcome,
    days_attempted,
    run_workload,
)


def check_days(
    outcome: RunOutcome, service: Any, expected_days: int
) -> list[dict[str, Any]]:
    """Day-level checks, made from outside the simulator.

    Requests are conserved: each day's generated requests all reach the
    driver's tables, split exactly into reads and writes.  No simulated
    request fails.  The run's total (for the fleet, ``FleetResult``'s sum
    over shards) equals the sum over days (device-days, read from each
    shard's ``run_day``) and the count in the merged ``service`` histogram.
    """
    failed: list[dict[str, Any]] = []
    for record in outcome.days:
        m = record.metrics
        problems = []
        if not (
            record.workload_requests
            == m.all.requests
            == m.read.requests + m.write.requests
        ):
            problems.append(
                f"requests not conserved: workload {record.workload_requests}, "
                f"all {m.all.requests}, read {m.read.requests} + write "
                f"{m.write.requests}"
            )
        reads = record.workload_reads
        if reads is not None and reads != m.read.requests:
            problems.append(
                f"reads not conserved: workload {reads}, "
                f"read {m.read.requests}"
            )
        if m.all.errors:
            problems.append(f"{m.all.errors} simulated errors")
        if problems:
            failed.append(
                {"device": record.device, "day": record.day, "problems": problems}
            )
    run_problems = []
    if len(outcome.days) != expected_days:
        run_problems.append(
            f"{len(outcome.days)} days recorded, {expected_days} expected"
        )
    day_total = sum(record.workload_requests for record in outcome.days)
    if day_total != outcome.requests or service.count != outcome.requests:
        run_problems.append(
            f"run total {outcome.requests} requests, days sum to {day_total}, "
            f"service histogram holds {service.count}"
        )
    if run_problems:
        # A run-level failure cannot be pinned on one day: all of them fail.
        failed = [{"device": "*", "day": day, "problems": run_problems}
                  for day in range(expected_days)]
    return failed


def merged_service(outcome: RunOutcome) -> Any:
    """The driver's 1 ms service-time histograms of every day, merged."""
    from repro.stats.histogram import TimeHistogram

    service = TimeHistogram()
    for record in outcome.days:
        service.merge(record.metrics.all.service_histogram)
    return service


def p99_ms(service: Any) -> float:
    """The 99th percentile, interpolated linearly inside its 1 ms bucket.

    ``TimeHistogram.percentile`` returns the bucket's upper edge, a whole
    number of milliseconds that many seeds share, and the fleet's
    32-bins-per-decade ``LogHistogram`` edge read 19.11 ms at every seed
    tried.  A simulated time that reads the same at every seed cannot be
    told from a constant.
    """
    needed = 0.99 * service.count
    running = 0
    for bucket, count in sorted(service.buckets.items()):
        if running + count >= needed:
            value = (bucket + (needed - running) / count) * service.resolution_ms
            return min(value, service.max_ms)
        running += count
    return service.max_ms


def simulated_metrics(outcome: RunOutcome, service: Any) -> dict[str, float]:
    """The paper's quantities over every foreground request in the run."""
    seek_weighted = sum(
        record.metrics.all.mean_seek_time_ms * record.metrics.all.requests
        for record in outcome.days
    )
    requests = sum(record.metrics.all.requests for record in outcome.days)
    return {
        "seek_ms_mean": seek_weighted / requests if requests else 0.0,
        "service_ms_mean": service.mean_ms,
        "service_ms_p99": p99_ms(service),
        "service_samples": service.count,
    }


class LayerCounts:
    """Counts read at layer boundaries during a traced run."""

    def __init__(self) -> None:
        self.jobs = 0
        self.events = 0
        self.completions = 0
        self.absorbed = 0

    def count_jobs(self, generate_day: Any) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            workload = generate_day(*args, **kwargs)
            self.jobs += len(workload.jobs)
            return workload

        return wrapper

    def count_events(self, run: Any) -> Any:
        def wrapper(simulation: Any, *args: Any, **kwargs: Any) -> Any:
            events = simulation.events_dispatched
            absorbed = simulation.absorbed_completions
            completed = run(simulation, *args, **kwargs)
            self.events += simulation.events_dispatched - events
            newly_absorbed = simulation.absorbed_completions - absorbed
            self.absorbed += newly_absorbed
            self.completions += len(completed) + newly_absorbed
            return completed

        return wrapper


def layer_metrics(
    spans: list[Span], counts: LayerCounts, outcome: RunOutcome
) -> dict[str, float]:
    seconds, calls = self_times(spans)
    layers: dict[str, float] = {
        f"{name}_s": seconds.get(name, 0.0) for name in SPAN_NAMES
    }
    layers["other_s"] = seconds[ROOT_SPAN]
    layers["analyze.hot_blocks.calls"] = calls.get("analyze.hot_blocks", 0)
    layers["generate.jobs"] = counts.jobs
    simulate_ns = sum(span.duration_ns for span in spans if span.name == "simulate")
    layers["simulate.events"] = counts.events
    layers["simulate.events_per_s"] = (
        counts.events / (simulate_ns / 1e9) if simulate_ns else 0.0
    )
    layers["simulate.absorbed_fraction"] = (
        counts.absorbed / counts.completions if counts.completions else 0.0
    )
    reads = sum(record.metrics.read.requests for record in outcome.days)
    hits = sum(record.metrics.read.buffer_hits for record in outcome.days)
    layers["disk.buffer_hit_ratio"] = hits / reads if reads else 0.0
    requests = sum(record.metrics.all.requests for record in outcome.days)
    waited = sum(
        record.metrics.all.mean_waiting_ms * record.metrics.all.requests
        for record in outcome.days
    )
    layers["driver.wait_ms_mean"] = waited / requests if requests else 0.0
    migration = outcome.migration
    attempts = (
        migration.moves_completed + migration.moves_skipped if migration else 0
    )
    layers["rearrange.online_move_yield"] = (
        migration.moves_completed / attempts if attempts else 0.0
    )
    return layers


def coverage_problems(spans: list[Span], workload: str) -> list[str]:
    """No self time may be negative, and every layer the workload runs
    must have left at least one span.

    ``other_s`` is the root span's self time, so the named self times
    plus ``other_s`` sum to the traced wall time whenever
    :func:`check_nesting` finds the tree sound.
    """
    seconds, _ = self_times(spans)
    problems = [
        f"{name} self time is negative"
        for name, value in seconds.items()
        if value < 0
    ]
    problems += [
        f"no {name} span: its entry point was never reached"
        for name in sorted(REQUIRED_SPANS[workload] - seconds.keys())
    ]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="SPANS.jsonl",
        help="record layer spans and write them to this file",
    )
    args = parser.parse_args(argv)

    from repro.bench.digest import metrics_digest

    # Import every layer up front (and the kernel, which the engine loads
    # lazily) so that neither run pays import time inside the measurement.
    for module_name, *_ in LAYER_ENTRY_POINTS:
        importlib.import_module(module_name)
    importlib.import_module("repro.sim.vector")

    recorder = SpanRecorder()
    counts = LayerCounts()
    if args.trace is not None:
        from repro.sim.engine import Simulation
        from repro.workload.generator import WorkloadGenerator

        recorder.patch(WorkloadGenerator, "generate_day", counts.count_jobs)
        recorder.patch(Simulation, "run", counts.count_events)
        recorder.install()
    probe = SpeedProbe()
    with probe:
        try:
            outcome = run_workload(
                args.workload, args.seed, args.scale, recorder.patch
            )
        finally:
            recorder.restore()
    reference_ns = probe.clock()
    # The probe's chase table stays resident from before the run until
    # now, so the peak without it is the peak less its size.
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        - CHASE_BYTES / 2**20
    )

    expected_days = days_attempted(args.workload, args.scale)
    service = merged_service(outcome)
    result: dict[str, Any] = {
        "wall_s": (reference_ns(outcome.end_ns) - reference_ns(outcome.start_ns))
        / 1e9,
        "setup_s": sum(reference_ns(end) - reference_ns(start)
                       for start, end in outcome.setup_ns) / 1e9,
        "host_wall_s": (outcome.end_ns - outcome.start_ns) / 1e9,
        "host_setup_s": sum(end - start for start, end in outcome.setup_ns) / 1e9,
        "slowdown": probe.slowdown(),
        "requests": outcome.requests,
        "peak_rss_mb": peak_rss_mb,
        "digest": metrics_digest(outcome.payload),
        "failed_days": check_days(outcome, service, expected_days),
        **simulated_metrics(outcome, service),
    }
    if args.trace is not None:
        # The measured run is the root span; layer calls outside any other
        # wrapped call become its children.  Spans are kept on the
        # corrected clock, which is monotone, so nesting is unchanged.
        root_id = len(recorder.spans)
        spans = [
            Span(s.span_id, s.name, reference_ns(s.start_ns),
                 reference_ns(s.end_ns), root_id if s.parent is None else s.parent)
            for s in recorder.finished()
        ]
        spans.append(Span(root_id, ROOT_SPAN, reference_ns(outcome.start_ns),
                          reference_ns(outcome.end_ns), None))
        layers = layer_metrics(spans, counts, outcome)
        problems = check_nesting(spans) + coverage_problems(spans, args.workload)
        write_spans(spans, args.trace)
        result["layers"] = layers
        result["trace_problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
