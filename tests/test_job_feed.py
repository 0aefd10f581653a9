"""Jobs fed in slices against jobs scheduled up front, at the engine level.

A day may reach the simulation in time-ordered slices: the jobs whose
start times fall below a boundary are scheduled, the simulation runs up
to (not including) the first start of the next slice, and so on.  Every
streamed job must sort among same-time events exactly as if it had been
scheduled before the run, and periodic tasks must keep re-arming while
slices are still to come.  So each case runs one set of jobs twice, fed
up front and fed in slices, and both runs must dispatch the same events.

On the scalar engine the dispatched sequence (class, time, device and
job) must match event by event.  On the batch kernel the deadlines
between slices move where the kernel hands requests back, so its
dispatched events differ by design; there the day's metrics digest, the
event count, the completions and what each periodic callback saw must
match.

The jobs are built to hit the ties that real days hit: batch writes on
multiples of 30 s (the sync interval) fall on the periodic task's
re-armed fires, and one of them falls on a scheduled crash.  Slice
boundaries are drawn from the seed, some on those very instants and
some on job starts.  Extra seeds: ``GEN_STRESS_SEED=<n>``.
"""

from __future__ import annotations

import math
import os
import random

import pytest

from repro.bench.digest import day_metrics_payload, metrics_digest
from repro.driver.request import Op
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig, build_rig
from repro.sim.jobs import Job, batch_job, sequential_job
from repro.stats.metrics import DayMetrics

SEEDS = [1993]
if os.environ.get("GEN_STRESS_SEED"):
    SEEDS.append(int(os.environ["GEN_STRESS_SEED"]))

DEVICE = "disk0"
SYNC_MS = 30_000.0
DAY_MS = 600_000.0
CRASH_MS = 450_000.0
"""A multiple of the sync interval: a sync job, the periodic task's fire
and the crash share this instant."""
QUIET = (240_000.0, 330_000.0)
"""No job starts in this stretch, so the device drains and only the
slices still to come keep the periodic task re-arming."""


def make_jobs(seed: int, blocks: int) -> list[Job]:
    """Sync bursts on every multiple of the sync interval, closed-loop
    read sessions between them (some starting exactly on one), in
    ``(start_ms, job_id)`` order, as the generator emits them."""
    rng = random.Random(seed)
    jobs = []
    for k in range(1, int(DAY_MS // SYNC_MS)):
        when = k * SYNC_MS
        if QUIET[0] <= when < QUIET[1]:
            continue
        burst = [rng.randrange(blocks) for __ in range(rng.randint(1, 12))]
        jobs.append(batch_job(when, burst, Op.WRITE, name="sync"))
    while len(jobs) < 160:
        when = rng.choice(
            [k * SYNC_MS for k in range(1, int(DAY_MS // SYNC_MS))]
            + [rng.uniform(0.0, DAY_MS) for __ in range(4)]
        )
        if QUIET[0] <= when < QUIET[1]:
            continue
        start = rng.randrange(blocks - 8)
        run = list(range(start, start + rng.randint(1, 8)))
        think = rng.choice([0.0, 1.5, 4.0])
        jobs.append(sequential_job(when, run, Op.READ, think_ms=think))
    jobs.sort(key=lambda job: (job.start_ms, job.job_id))
    return jobs


def slice_jobs(jobs: list[Job], seed: int) -> list[tuple[list[Job], float | None]]:
    """``jobs`` cut at boundaries drawn from ``seed``: each slice with the
    start of the next one (``None`` on the last)."""
    rng = random.Random(seed * 7 + 1)
    boundaries = {CRASH_MS, QUIET[0] + SYNC_MS, jobs[len(jobs) // 3].start_ms}
    boundaries |= {rng.randrange(1, 20) * SYNC_MS for __ in range(4)}
    boundaries |= {rng.uniform(0.0, DAY_MS) for __ in range(6)}
    slices: list[list[Job]] = [[]]
    cuts = iter(sorted(boundaries) + [math.inf])
    boundary = next(cuts)
    for job in jobs:
        while job.start_ms >= boundary:
            boundary = next(cuts)
            if slices[-1]:
                slices.append([])
        slices[-1].append(job)
    return [
        (piece, slices[i + 1][0].start_ms if i + 1 < len(slices) else None)
        for i, piece in enumerate(slices)
    ]


def describe(event, now_ms: float) -> tuple:
    job = getattr(event, "job", None)
    return (
        type(event).__name__,
        now_ms,
        getattr(event, "device", None),
        None if job is None else job.job_id,
        getattr(event, "index", None),
    )


def simulate(jobs, seed: int, streamed: bool, feed=None) -> dict:
    """One run of ``jobs``; every observable output."""
    rig = build_rig(ExperimentConfig(disk="toshiba", name=DEVICE))
    simulation = Simulation(drivers={DEVICE: rig.driver})
    dispatched = []
    dispatch = simulation.bus.dispatch

    def recorded(event):
        dispatched.append(describe(event, simulation.now_ms))
        dispatch(event)

    simulation.bus.dispatch = recorded
    state = simulation.devices[DEVICE]
    polls = []
    simulation.add_periodic(
        SYNC_MS,
        lambda now: polls.append((now, state.arrivals, state.outstanding)),
    )
    completed = 0
    if not streamed:
        simulation.add_jobs(jobs, device=DEVICE)
        simulation.schedule_crash(CRASH_MS)
    else:
        stream = (
            simulation.feed_jobs(DEVICE)
            if feed is None
            else feed(simulation, DEVICE)
        )
        simulation.schedule_crash(CRASH_MS)
        for piece, next_start in slice_jobs(jobs, seed):
            stream.add(piece)
            if next_start is None:
                stream.close()
            else:
                completed += len(
                    simulation.run(until_ms=math.nextafter(next_start, -math.inf))
                )
    completed += len(simulation.run())
    metrics = DayMetrics.from_tables(
        rig.ioctl.read_stats(), rig.model.seek, day=0, rearranged=False
    )
    return {
        "digest": metrics_digest(day_metrics_payload(metrics)),
        "events": simulation.events_dispatched,
        "completions": completed + simulation.absorbed_completions,
        "polls": polls,
        "end_ms": simulation.now_ms,
        "crashes": rig.driver.fault_stats.crashes,
        "dispatched": dispatched,
    }


def blocks_of_toshiba() -> int:
    return build_rig(ExperimentConfig(disk="toshiba")).label.virtual_total_blocks


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine", ["scalar", "kernel"])
def test_slices_dispatch_as_jobs_scheduled_up_front(seed, engine, scalar_engine):
    jobs = make_jobs(seed, blocks_of_toshiba())
    if engine == "scalar":
        with scalar_engine():
            up_front = simulate(jobs, seed, streamed=False)
            streamed = simulate(jobs, seed, streamed=True)
        assert streamed["dispatched"] == up_front["dispatched"]
    else:
        up_front = simulate(jobs, seed, streamed=False)
        streamed = simulate(jobs, seed, streamed=True)
    assert up_front["crashes"] == 1
    assert up_front["completions"] == sum(len(job.steps) for job in jobs)
    del up_front["dispatched"], streamed["dispatched"]
    assert streamed == up_front


@pytest.mark.parametrize("seed", SEEDS)
def test_the_cases_hold_the_ties_and_boundaries(seed):
    """The slices start on a periodic fire, on the crash and after the
    quiet stretch, so the ties the band must order are all present."""
    jobs = make_jobs(seed, blocks_of_toshiba())
    slices = slice_jobs(jobs, seed)
    starts = {piece[0].start_ms for piece, __ in slices[1:]}
    assert CRASH_MS in starts
    assert any(start % SYNC_MS == 0 and start != CRASH_MS for start in starts)
    assert QUIET[1] in starts
    assert len(slices) >= 6


def ordinary_feed(simulation: Simulation, device: str):
    """Later slices scheduled with run-time sequence numbers."""

    class Feed:
        def add(self, jobs):
            simulation.add_jobs(jobs, device=device)

        def close(self):
            pass

    return Feed()


@pytest.mark.parametrize("seed", SEEDS)
def test_run_time_sequence_numbers_would_be_caught(seed, scalar_engine):
    """A feed that gives later slices ordinary sequence numbers puts a
    re-armed periodic fire or the crash ahead of a job at the same
    instant; the harness must see that."""
    jobs = make_jobs(seed, blocks_of_toshiba())
    with scalar_engine():
        up_front = simulate(jobs, seed, streamed=False)
        wrong = simulate(jobs, seed, streamed=True, feed=ordinary_feed)
    assert wrong["dispatched"] != up_front["dispatched"]
    assert wrong["polls"] != up_front["polls"]


class TestJobFeed:
    def simulation(self) -> Simulation:
        rig = build_rig(ExperimentConfig(disk="toshiba", name=DEVICE))
        return Simulation(drivers={DEVICE: rig.driver})

    def test_an_open_feed_is_pending_work(self):
        simulation = self.simulation()
        assert not simulation.has_pending_work
        feed = simulation.feed_jobs()
        assert simulation.has_pending_work
        feed.close()
        feed.close()
        assert not simulation.has_pending_work

    def test_a_job_before_the_clock_is_refused(self):
        simulation = self.simulation()
        feed = simulation.feed_jobs(DEVICE)
        feed.add([batch_job(100.0, [1], Op.READ)])
        simulation.run(until_ms=200.0)
        with pytest.raises(ValueError, match="before now"):
            feed.add([batch_job(50.0, [2], Op.READ)])

    def test_an_unknown_device_is_refused(self):
        with pytest.raises(KeyError):
            self.simulation().feed_jobs("disk9")

    def test_a_band_holds_only_its_size(self):
        simulation = self.simulation()
        push = simulation.events.reserve(2)
        later = simulation.events.push(5.0, batch_job(5.0, [1], Op.READ))
        push(5.0, "first")
        push(5.0, "second")
        with pytest.raises(OverflowError):
            push(5.0, "third")
        assert list(simulation.events.pending()) == ["first", "second", later]
