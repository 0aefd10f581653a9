"""Day-ahead generation against in-process generation.

A single-disk ``Experiment`` may generate every day after day 0 on a
forked worker, one day ahead of the simulation.  The worker runs a forked
copy of the campaign's own generator, and a day's request stream never
depends on what the driver did the day before, so every day must come out
exactly as when the campaign generates it in its own process.

Each case runs one campaign twice: with the worker forced on (the size
rule's constant patched to 0) and forced off.  Both runs must give the
same day digests, ``DayResult`` fields and ``events_dispatched``, and each
day's workload must match job by job.  Extra seeds:
``GEN_STRESS_SEED=<n>``.

The lifecycle tests below check that the worker never outlives its
experiment and that its failures surface from ``run_day``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import time

import pytest

from repro.bench.digest import day_metrics_payload, metrics_digest
from repro.faults.spec import parse_fault_spec
from repro.parallel import WorkerTaskError, can_work_ahead, fan_out
from repro.sim import experiment as experiment_module
from repro.sim.experiment import Experiment, ExperimentConfig, alternating_schedule
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import PROFILES

SEEDS = [1993]
if os.environ.get("GEN_STRESS_SEED"):
    SEEDS.append(int(os.environ["GEN_STRESS_SEED"]))

HOURS = 0.25
DAYS = 4
FAULTS = (
    "seed=7,transient=0.002,retries=3,media=rand:4,"
    f"crash=day1@{int(HOURS * 1_800_000)},crash=copy40"
)
CASES = {
    # case: (profile, disk, rearrangement policy, fault spec)
    "system-nightly": ("system", "toshiba", None, None),
    "users-online": ("users", "fujitsu", "online", None),
    "system-faults": ("system", "toshiba", None, FAULTS),
}


def config_for(case: str, seed: int) -> ExperimentConfig:
    profile, disk, policy, faults = CASES[case]
    return ExperimentConfig(
        profile=PROFILES[profile].scaled(hours=HOURS),
        disk=disk,
        seed=seed,
        policy=policy,
        faults=parse_fault_spec(faults) if faults else None,
    )


def job_rows(workload) -> list[tuple]:
    return [
        (
            job.start_ms,
            job.sequential,
            job.name,
            [(s.logical_block, s.op, s.think_ms) for s in job.steps],
        )
        for job in workload.jobs
    ]


def run(config: ExperimentConfig, monkeypatch, ahead: bool) -> dict:
    """One campaign; every simulated output and every day's workload."""
    workloads = []
    run_rig_day = experiment_module.run_rig_day

    def captured(*args, **kwargs):
        simulated = run_rig_day(*args, **kwargs)
        workloads.extend(simulated.workloads.values())
        return simulated

    with monkeypatch.context() as patch:
        patch.setattr(
            experiment_module,
            "DAY_AHEAD_MIN_REQUESTS",
            0 if ahead else float("inf"),
        )
        patch.setattr(experiment_module, "run_rig_day", captured)
        experiment = Experiment(config)
        schedule = alternating_schedule(DAYS)
        days = []
        for day, on_today in enumerate(schedule):
            on_tomorrow = schedule[day + 1] if day + 1 < len(schedule) else False
            result = experiment.run_day(
                rearranged=on_today, rearrange_tomorrow=on_tomorrow
            )
            if day == 0:
                assert (experiment._ahead is not None) == (
                    ahead and can_work_ahead()
                )
            days.append(
                {
                    "digest": metrics_digest(day_metrics_payload(result.metrics)),
                    "workload_requests": result.workload_requests,
                    "workload_reads": result.workload_reads,
                    "read_counts": result.read_counts,
                    "all_counts": result.all_counts,
                    "rearranged_blocks": result.rearranged_blocks,
                }
            )
    return {
        "days": days,
        "events": experiment.events_dispatched,
        "workloads": [
            (
                [w.day for w in day],
                [job_rows(w) for w in day],
                [w.read_counts for w in day],
                [w.all_counts for w in day],
            )
            for day in workloads
        ],
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_day_ahead_matches_in_process(case, seed, monkeypatch):
    config = config_for(case, seed)
    ahead = run(config, monkeypatch, ahead=True)
    in_process = run(config, monkeypatch, ahead=False)
    assert len(ahead["workloads"]) == len(in_process["workloads"]) == DAYS
    assert sum(day["workload_requests"] for day in in_process["days"]) > 0
    for day, (got, want) in enumerate(
        zip(ahead["workloads"], in_process["workloads"])
    ):
        assert got == want, f"day {day} workload differs"
    assert ahead["days"] == in_process["days"]
    assert ahead["events"] == in_process["events"]


# ----------------------------------------------------------------------
# The worker's lifetime
# ----------------------------------------------------------------------

needs_worker = pytest.mark.skipif(
    not can_work_ahead(), reason="needs fork and two CPUs"
)


@pytest.fixture
def ahead(monkeypatch):
    """Every experiment in the test starts the worker after day 0."""
    monkeypatch.setattr(experiment_module, "DAY_AHEAD_MIN_REQUESTS", 0)


def small_experiment() -> Experiment:
    return Experiment(config_for("system-nightly", 1993))


def run_days(experiment: Experiment, days: int) -> None:
    for day in range(days):
        experiment.run_day(rearranged=False, rearrange_tomorrow=False)


@needs_worker
def test_dropping_the_experiment_stops_the_worker(ahead):
    experiment = small_experiment()
    run_days(experiment, 2)
    (worker,) = multiprocessing.active_children()
    del experiment
    gc.collect()
    assert multiprocessing.active_children() == []
    assert worker.exitcode is not None


@needs_worker
def test_a_generation_error_names_the_day_and_seed(ahead, monkeypatch):
    generate_day = WorkloadGenerator.generate_day

    def failing_on_day_two(self):
        if self._day == 2:
            raise RuntimeError("disk full of ideas")
        return generate_day(self)

    monkeypatch.setattr(WorkloadGenerator, "generate_day", failing_on_day_two)
    experiment = small_experiment()
    run_days(experiment, 2)
    with pytest.raises(WorkerTaskError) as info:
        run_days(experiment, 1)
    assert info.value.context == "workload day 2 (seed 1993)"
    assert "disk full of ideas" in info.value.cause
    assert "RuntimeError" in info.value.worker_traceback
    assert multiprocessing.active_children() == []


@needs_worker
def test_a_killed_worker_raises_within_a_bounded_time(ahead):
    def hung(signum, frame):
        raise AssertionError("run_day hung on a dead worker")

    experiment = small_experiment()
    run_days(experiment, 1)
    (worker,) = multiprocessing.active_children()
    os.kill(worker.pid, signal.SIGKILL)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    started = time.monotonic()
    try:
        # Day 1 may already sit in the pipe; day 2 cannot.
        with pytest.raises(WorkerTaskError, match="died") as info:
            run_days(experiment, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30
    assert "(seed 1993)" in info.value.context
    assert multiprocessing.active_children() == []


def test_one_cpu_stays_in_process(ahead, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    experiment = small_experiment()
    run_days(experiment, 2)
    assert experiment._ahead is None
    assert multiprocessing.active_children() == []


def _days_in_pool_worker(_: int) -> tuple[bool, int]:
    experiment = small_experiment()
    run_days(experiment, 2)
    return experiment._ahead is None, len(multiprocessing.active_children())


def test_a_daemonic_pool_worker_stays_in_process(ahead):
    assert fan_out(_days_in_pool_worker, [0, 1], workers=2) == [(True, 0)] * 2


class Recorded(Experiment):
    """An experiment that the test can still reach after the campaign."""

    made: list[Experiment] = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        Recorded.made.append(self)


@pytest.fixture
def recorded(monkeypatch):
    import repro.api

    Recorded.made = []
    monkeypatch.setattr(experiment_module, "Experiment", Recorded)
    monkeypatch.setattr(repro.api, "Experiment", Recorded)
    return Recorded.made


@needs_worker
def test_a_campaign_generates_no_day_past_its_last(ahead, recorded,
                                                   monkeypatch, tmp_path):
    """The worker makes days 1 to 2 of a three-day campaign and is closed
    when day 2 is taken, before it could start a day 3."""
    log = tmp_path / "days"
    generate_day = WorkloadGenerator.generate_day

    def logged(self):
        with open(log, "a") as out:  # the worker's days land here too
            out.write(f"{self._day}\n")
        return generate_day(self)

    monkeypatch.setattr(WorkloadGenerator, "generate_day", logged)
    config = config_for("system-nightly", 1993)
    result = experiment_module.run_campaign(config, [False, True, False])
    (experiment,) = recorded
    assert experiment._ahead is not None
    assert experiment._ahead._proc.exitcode is not None
    assert multiprocessing.active_children() == []
    assert log.read_text().split() == ["0", "1", "2"]
    assert len(result.days) == 3


def test_a_one_day_run_never_starts_the_worker(ahead, recorded):
    import repro.api

    config = config_for("system-nightly", 1993)
    experiment_module.run_campaign(config, [False])
    repro.api.simulate_day(config)
    repro.api.simulate_day(config, policy="online")
    assert [experiment._ahead for experiment in recorded] == [None] * 3
    assert multiprocessing.active_children() == []


@needs_worker
def test_a_nightly_simulate_day_takes_both_days_from_one_worker(ahead, recorded):
    import repro.api

    day = repro.api.simulate_day(config_for("system-nightly", 1993),
                                 policy="nightly")
    assert day.metrics.rearranged
    (experiment,) = recorded
    assert experiment._ahead._proc.exitcode is not None
    assert multiprocessing.active_children() == []
