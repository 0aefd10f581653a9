"""A sequential job's first step, served in the job start's kernel entry.

When a sequential ``JobStart`` pops on a device the batch kernel serves,
the kernel admits the job's first step in the same call if that step's
issue, at ``start + think``, would be the next event popped: the heap is
empty or its head is strictly later, and the issue is within
``run(until_ms)``.  Otherwise it pushes the ``StepIssue`` as the scalar
engine does.  Each case here puts seeded job mixes (``VECTOR_STRESS_SEED``
adds a seed) around first issues at the edges of that rule and requires
the kernel and the scalar engine to agree on every device's metrics
digest, ``events_dispatched``, the completion order and the final clock.
"""

import os
import random

import pytest

from repro.bench.digest import day_metrics_payload, metrics_digest
from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import disk_model
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.ioctl import IoctlInterface
from repro.driver.queue import make_queue
from repro.driver.request import Op
from repro.faults.spec import parse_fault_spec
from repro.sim.engine import Simulation
from repro.sim.jobs import batch_job, sequential_job
from repro.stats.metrics import DayMetrics

STRESS_SEEDS = [5, 71]
if os.environ.get("VECTOR_STRESS_SEED"):
    # CI runs extra pinned seeds; a failure reproduces with
    # ``VECTOR_STRESS_SEED=<n>``.
    STRESS_SEEDS.append(int(os.environ["VECTOR_STRESS_SEED"]))

EDGES = 8
EDGE_START_MS = 60_000.0
"""The mixes start within 400 ms and drain long before this, so each edge
job starts on a quiet device and heap."""
EDGE_SPACING_MS = 2_000.0


class _CompletionLog(dict):
    """The engine's waiting-job table, logging every lookup.

    Both engines pop a request's id from it once per foreground
    completion, in completion order, whether or not a follow-up step
    waits on it."""

    def __init__(self) -> None:
        super().__init__()
        self.popped: list[int] = []

    def pop(self, key, *default):
        self.popped.append(key)
        return super().pop(key, *default)


def _driver(kind: str) -> AdaptiveDiskDriver:
    model = disk_model("toshiba")
    driver = AdaptiveDiskDriver(
        disk=Disk(model),
        label=DiskLabel(model.geometry, reserved_cylinders=48),
        queue=make_queue("fcfs" if kind == "fcfs" else "scan"),
    )
    if kind == "faults":
        driver.faults = parse_fault_spec("seed=5,transient=0.05,retries=8").injector()
    return driver


def _blocks(rng, label, length):
    total = label.virtual_total_blocks
    if rng.random() < 0.5:
        first = rng.randrange(total - length)
        return list(range(first, first + length))
    return [rng.randrange(total) for __ in range(length)]


def _mix(rng, label, count=20):
    """Closed-loop runs and cache-flush bursts within the first 400 ms."""
    jobs = []
    for __ in range(count):
        start = rng.uniform(0.0, 400.0)
        op = Op.READ if rng.random() < 0.7 else Op.WRITE
        blocks = _blocks(rng, label, rng.randint(1, 10))
        if rng.random() < 0.6:
            think = rng.choice([0.0, 0.5, 2.0, 7.0])
            jobs.append(sequential_job(start, blocks, op, think))
        else:
            jobs.append(batch_job(start, blocks, op))
    return jobs


def _run(seed, edge_devices, edges, other=None):
    """Fingerprint a seeded mix plus ``EDGES`` edge jobs, cycling through
    ``edge_devices`` and the edge kinds ``edges``.

    Edge job ``k`` starts at a quiet time ``s`` and issues its first step
    at ``t = s + think``.  A ``"probe"`` or ``"job"`` edge has an event
    pushed before that issue fire at ``t`` as well: a periodic probe of
    the device, or the start of a batch job on it.  A ``"cut"`` edge
    stops the run at a deadline in ``[s, t)`` before going on.  ``other``
    adds a device the kernel does not serve (``"fcfs"`` or ``"faults"``)
    next to the kernel's ``"dev0"``.
    """
    rng = random.Random(seed)
    drivers = {"dev0": _driver("scan")}
    if other is not None:
        drivers["dev1"] = _driver(other)
    simulation = Simulation(drivers=drivers)
    log = simulation._waiting_jobs = _CompletionLog()
    for name, driver in drivers.items():
        simulation.add_jobs(_mix(rng, driver.label), device=name)
    probes = []
    tied = []
    deadlines = []
    for k in range(EDGES):
        device = edge_devices[k % len(edge_devices)]
        driver = drivers[device]
        edge = edges[k % len(edges)]
        start = EDGE_START_MS + k * EDGE_SPACING_MS + rng.uniform(0.0, 100.0)
        think = rng.choice([0.5, 2.0, 7.0] if edge == "cut" else [0.0, 0.5, 2.0, 7.0])
        op = Op.READ if rng.random() < 0.7 else Op.WRITE
        blocks = _blocks(rng, driver.label, rng.randint(1, 6))
        simulation.add_job(sequential_job(start, blocks, op, think), device=device)
        if edge == "cut":
            deadlines.append(start + think * rng.uniform(0.0, 0.99))
        else:
            tied.append((edge, device, driver, start + think))
    # Tied events are pushed after every job start, so they precede a
    # first issue at the same time even when ``think`` is zero.
    for edge, device, driver, issue in tied:
        if edge == "job":
            blocks = _blocks(rng, driver.label, rng.randint(1, 5))
            simulation.add_job(batch_job(issue, blocks, Op.WRITE), device=device)
        else:
            simulation.add_periodic(
                1e9,
                lambda now, d=driver: probes.append(
                    (now, d.disk.accesses, len(d.queue))
                ),
                start_offset_ms=issue,
            )
    clocks = []
    for deadline in deadlines:
        simulation.run(until_ms=deadline)
        clocks.append((simulation.now_ms, simulation.events_dispatched))
        assert simulation.now_ms <= deadline
    simulation.run()
    rank = {request_id: n for n, request_id in enumerate(sorted(log.popped))}
    digests = []
    for driver in drivers.values():
        metrics = DayMetrics.from_tables(
            IoctlInterface(driver).read_stats(),
            driver.disk.model.seek,
            day=0,
            rearranged=False,
        )
        digests.append(metrics_digest(day_metrics_payload(metrics)))
    return {
        "digests": digests,
        "events": simulation.events_dispatched,
        "completion_order": [rank[request_id] for request_id in log.popped],
        "now_ms": simulation.now_ms,
        "probes": probes,
        "clocks": clocks,
        "absorbed": simulation.absorbed_completions,
    }


def _kernel_and_scalar(scalar_engine, *args, **kwargs):
    kernel = _run(*args, **kwargs)
    with scalar_engine():
        scalar = _run(*args, **kwargs)
    assert kernel.pop("absorbed") > 0
    assert scalar.pop("absorbed") == 0
    return kernel, scalar


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_first_issue_tied_with_a_heap_entry(seed, scalar_engine):
    """A periodic fire or another job start at exactly ``start + think``
    was pushed first, so it goes first: serving the first step on a tie
    would put it ahead of the probe (one more disk access seen) or of
    the other job's requests (a different service order)."""
    kernel, scalar = _kernel_and_scalar(
        scalar_engine, seed, ["dev0"], ["probe", "job"]
    )
    # Each probe fires at its tie and once more after the work drains.
    assert len(kernel["probes"]) == 2 * (EDGES // 2)
    assert kernel == scalar


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_first_issue_after_the_deadline(seed, scalar_engine):
    """``run(until_ms)`` stops between a job start and its first issue:
    the issue stays scheduled, the clock stays at the start, and the
    next ``run`` serves it.  Serving it anyway would move the clock past
    the deadline and count its events in the wrong segment."""
    kernel, scalar = _kernel_and_scalar(scalar_engine, seed, ["dev0"], ["cut"])
    assert kernel == scalar


@pytest.mark.parametrize("other", ["fcfs", "faults"])
@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_first_issue_on_a_device_the_kernel_does_not_serve(
    seed, other, scalar_engine
):
    """Edge jobs alternate between the kernel's device and one it does
    not serve (an FCFS queue, or faults attached), with ties and
    deadlines on both: the other device's first issues always go through
    the scalar ``StepIssue``, and the kernel's keep both edges."""
    kernel, scalar = _kernel_and_scalar(
        scalar_engine, seed, ["dev0", "dev1"], ["probe", "job", "cut"], other
    )
    assert kernel == scalar
