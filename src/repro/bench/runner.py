"""Timing, report files, and the benchmark regression gate.

A :class:`BenchReport` is one scenario's timed run.  Reports serialize to
``BENCH_<scenario>.json`` at the repository root (the perf trajectory the
ROADMAP asks for) and fold into a committed *baseline* file that the CI
``bench`` job compares against.

Wall-clock comparisons across machines are normalized by a **calibration
score**: a fixed pure-Python workload timed on the same interpreter right
before the scenarios.  The gate scales the current run's wall-clock by the
ratio of calibration scores before applying the regression threshold, so a
slower CI runner does not read as a code regression (and a faster one does
not hide one).  Digests are compared exactly — they are machine-independent
by construction.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .digest import metrics_digest
from .scenarios import Scenario, ScenarioResult

SCHEMA = "repro-bench/1"
BASELINE_SCHEMA = "repro-bench-baseline/1"
DEFAULT_THRESHOLD = 0.15
"""Fractional slowdown (normalized) above which the gate fails."""

DEFAULT_MEM_THRESHOLD = 0.25
"""Fractional peak-memory growth above which the gate fails.  Wider than
the time threshold: allocator behavior shifts slightly across Python
patch versions, while a real regression (say, a dict where an array
should be) moves peak memory by whole multiples."""


class BenchError(RuntimeError):
    """A benchmark comparison failed (regression or digest mismatch)."""


def machine_metadata() -> dict[str, Any]:
    """Where this report was produced (recorded, never compared)."""
    import os

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def calibration_score(target_s: float = 0.1) -> float:
    """Iterations/second of a fixed pure-Python workload on this machine.

    The workload mixes the operations the simulator leans on — integer
    arithmetic, dict updates, list appends, attribute-free float math — so
    its throughput tracks how fast this interpreter runs the simulator,
    which is what makes cross-machine wall-clock normalization meaningful.
    """

    def unit(reps: int) -> float:
        total = 0.0
        counts: dict[int, int] = {}
        seq: list[int] = []
        for i in range(reps):
            bucket = (i * 2654435761) % 97
            counts[bucket] = counts.get(bucket, 0) + 1
            seq.append(bucket)
            total += bucket * 0.015625 + total * 1e-9
        return total + len(seq) + len(counts)

    unit(10_000)  # warm-up
    reps = 50_000
    start = time.perf_counter()
    unit(reps)
    elapsed = time.perf_counter() - start
    # Double the measured work until it fills ~target_s for stability.
    while elapsed < target_s:
        reps *= 2
        start = time.perf_counter()
        unit(reps)
        elapsed = time.perf_counter() - start
    return reps / elapsed


@dataclass
class BenchReport:
    """One timed scenario run, ready to serialize."""

    scenario: str
    mode: str  # "full" or "quick"
    wall_s: float
    wall_s_all: list[float]
    events: int
    requests: int
    metrics_digest: str
    calibration: float
    peak_mem_bytes: int | None = None
    """Peak traced allocation (``tracemalloc``) of one untimed scenario
    run; ``None`` when the memory pass was skipped."""
    sim_wall_s: float | None = None
    """Seconds spent inside :meth:`Simulation.run` during the best
    repetition — the simulator's share of :attr:`wall_s`, excluding
    workload generation, analysis and reporting.  ``None`` when the
    scenario's simulations all ran in worker processes (the process-local
    accumulator saw nothing)."""
    machine: dict[str, Any] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.events / self.wall_s

    @property
    def sim_events_per_sec(self) -> float | None:
        """Simulator-only throughput: events over time spent inside
        :meth:`Simulation.run`.  This is the number the batch kernel
        moves; :attr:`events_per_sec` also carries generation and
        analysis, which the kernel does not touch."""
        if not self.sim_wall_s or self.sim_wall_s <= 0:
            return None
        return self.events / self.sim_wall_s

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "scenario": self.scenario,
            "mode": self.mode,
            "wall_s": self.wall_s,
            "wall_s_all": self.wall_s_all,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "sim_wall_s": self.sim_wall_s,
            "sim_events_per_sec": self.sim_events_per_sec,
            "requests": self.requests,
            "metrics_digest": self.metrics_digest,
            "calibration": self.calibration,
            "peak_mem_bytes": self.peak_mem_bytes,
            "machine": self.machine,
            "detail": self.detail,
        }


def _measure_peak_memory(scenario: Scenario, quick: bool, digest: str) -> int:
    """Peak traced allocation of one extra scenario run.

    Runs *outside* the timed repetitions: ``tracemalloc`` hooks every
    allocation and roughly doubles wall-clock, so a traced run must never
    contribute a timing sample.  The run's digest is still checked — the
    memory pass is also one more determinism witness.
    """
    import tracemalloc

    tracemalloc.start()
    try:
        result = scenario.run(quick)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if metrics_digest(result.payload) != digest:
        raise BenchError(
            f"scenario {scenario.name!r} is nondeterministic: "
            f"digest changed under the memory-profiling run"
        )
    return peak


def run_scenario(
    scenario: Scenario,
    quick: bool = False,
    repeat: int = 1,
    calibration: float | None = None,
    measure_memory: bool = True,
) -> BenchReport:
    """Time ``scenario`` ``repeat`` times; keep the best wall-clock.

    Every repetition must produce the same digest (the scenarios are
    deterministic); a mismatch means nondeterminism crept into the
    simulator and is reported as :class:`BenchError` immediately.

    With ``measure_memory`` (the default) a final untimed repetition runs
    under ``tracemalloc`` and records the peak traced allocation.
    """
    # Imported here: repro.sim reaches repro.traces (replay) at package
    # init, which imports this package through the analysis layer.
    from ..sim import engine as _engine

    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if calibration is None:
        calibration = calibration_score()
    walls: list[float] = []
    sim_walls: list[float] = []
    digest: str | None = None
    result: ScenarioResult | None = None
    for _ in range(repeat):
        _engine.reset_run_wall()
        start = time.perf_counter()
        result = scenario.run(quick)
        walls.append(time.perf_counter() - start)
        sim_walls.append(_engine.run_wall_s())
        this_digest = metrics_digest(result.payload)
        if digest is None:
            digest = this_digest
        elif digest != this_digest:
            raise BenchError(
                f"scenario {scenario.name!r} is nondeterministic: "
                f"digest changed between repetitions"
            )
    assert result is not None and digest is not None
    peak_mem = (
        _measure_peak_memory(scenario, quick, digest)
        if measure_memory
        else None
    )
    machine = machine_metadata()
    if "workers" in result.detail:
        # Multi-process scenarios (the fleet): wall-clock depends on the
        # worker count, so the execution width is machine metadata — a
        # baseline timed at one width must not gate a run at another.
        machine["workers"] = result.detail["workers"]
    best = min(range(len(walls)), key=walls.__getitem__)
    return BenchReport(
        scenario=scenario.name,
        mode="quick" if quick else "full",
        wall_s=walls[best],
        wall_s_all=walls,
        events=result.events,
        requests=result.requests,
        metrics_digest=digest,
        calibration=calibration,
        peak_mem_bytes=peak_mem,
        sim_wall_s=sim_walls[best] if sim_walls[best] > 0 else None,
        machine=machine,
        detail=dict(result.detail),
    )


def run_suite(
    scenarios: list[Scenario],
    quick: bool = False,
    repeat: int = 1,
    measure_memory: bool = True,
) -> list[BenchReport]:
    """Run several scenarios with one shared calibration measurement."""
    calibration = calibration_score()
    return [
        run_scenario(
            s,
            quick=quick,
            repeat=repeat,
            calibration=calibration,
            measure_memory=measure_memory,
        )
        for s in scenarios
    ]


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------


def write_report(report: BenchReport, out_dir: str | Path = ".") -> Path:
    """Write ``BENCH_<scenario>.json`` into ``out_dir``; returns the path."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{report.scenario}.json"
    path.write_text(json.dumps(report.to_json(), indent=2) + "\n")
    return path


def write_baseline(
    reports: list[BenchReport], path: str | Path
) -> Path:
    """Fold reports into the committed-baseline format used by CI."""
    modes = {report.mode for report in reports}
    if len(modes) > 1:
        raise ValueError("cannot mix quick and full reports in a baseline")
    document = {
        "schema": BASELINE_SCHEMA,
        "mode": modes.pop() if modes else "full",
        "machine": machine_metadata(),
        "scenarios": {
            report.scenario: {
                "wall_s": report.wall_s,
                "events": report.events,
                "events_per_sec": report.events_per_sec,
                "sim_wall_s": report.sim_wall_s,
                "sim_events_per_sec": report.sim_events_per_sec,
                "metrics_digest": report.metrics_digest,
                "calibration": report.calibration,
                "peak_mem_bytes": report.peak_mem_bytes,
                **(
                    {"workers": report.machine["workers"]}
                    if "workers" in report.machine
                    else {}
                ),
            }
            for report in reports
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def load_baseline(path: str | Path) -> dict[str, Any]:
    document = json.loads(Path(path).read_text())
    if document.get("schema") != BASELINE_SCHEMA:
        raise BenchError(
            f"{path} is not a bench baseline "
            f"(schema {document.get('schema')!r}, expected "
            f"{BASELINE_SCHEMA!r})"
        )
    return document


def compare_reports(
    reports: list[BenchReport],
    baseline: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    mem_threshold: float = DEFAULT_MEM_THRESHOLD,
) -> list[str]:
    """Check reports against a baseline; returns the list of failures.

    Five checks per scenario, in order of severity:

    1. the scenario exists in the baseline and modes match;
    2. the metrics digest is byte-identical (behavior unchanged);
    3. the dispatched-event count is identical (the batch kernel accounts
       for every event it absorbs exactly as the scalar engine would
       dispatch it; skipped when the baseline lacks ``events``);
    4. normalized wall-clock has not regressed by more than ``threshold``;
    5. peak traced memory has not grown by more than ``mem_threshold``
       (skipped when either side lacks a memory measurement, e.g. a
       baseline written before memory profiling existed).

    Normalization: ``wall * (baseline_calibration / current_calibration)``
    — i.e. "how long would this run have taken on the baseline machine".
    Memory is compared raw: allocation sizes do not depend on machine
    speed.  Every baseline field is read defensively, so a stale or
    hand-edited baseline produces a named problem, never a ``KeyError``.
    """
    problems: list[str] = []
    entries = baseline.get("scenarios", {})
    for report in reports:
        entry = entries.get(report.scenario)
        if entry is None:
            problems.append(
                f"{report.scenario}: not present in baseline — "
                "regenerate it with 'repro bench --baseline'"
            )
            continue
        if baseline.get("mode") != report.mode:
            problems.append(
                f"{report.scenario}: mode mismatch (baseline "
                f"{baseline.get('mode')!r}, run {report.mode!r})"
            )
            continue
        base_digest = entry.get("metrics_digest")
        base_wall = entry.get("wall_s")
        if base_digest is None or base_wall is None:
            problems.append(
                f"{report.scenario}: baseline entry is incomplete "
                "(missing metrics_digest/wall_s) — regenerate it with "
                "'repro bench --baseline'"
            )
            continue
        if base_digest != report.metrics_digest:
            problems.append(
                f"{report.scenario}: metrics digest changed "
                f"(baseline {base_digest[:23]}..., "
                f"run {report.metrics_digest[:23]}...) — simulated "
                "behavior is no longer identical"
            )
            continue
        base_events = entry.get("events")
        if base_events is not None and base_events != report.events:
            problems.append(
                f"{report.scenario}: event count changed (baseline "
                f"{base_events}, run {report.events}) — event accounting "
                "is no longer identical"
            )
            continue
        base_workers = entry.get("workers")
        run_workers = report.machine.get("workers")
        if (
            base_workers is not None
            and run_workers is not None
            and base_workers != run_workers
        ):
            problems.append(
                f"{report.scenario}: worker-count mismatch (baseline "
                f"timed with {base_workers} worker(s), run used "
                f"{run_workers}) — wall-clock is not comparable; rerun "
                "with matching --workers or regenerate the baseline"
            )
            continue
        base_cal = float(entry.get("calibration") or 0.0)
        if base_cal > 0 and report.calibration > 0:
            speed_ratio = base_cal / report.calibration
        else:
            speed_ratio = 1.0
        normalized = report.wall_s * speed_ratio
        budget = float(base_wall) * (1.0 + threshold)
        if normalized > budget:
            problems.append(
                f"{report.scenario}: slowed beyond the {threshold:.0%} "
                f"budget (baseline {base_wall:.3f}s, normalized "
                f"run {normalized:.3f}s, raw {report.wall_s:.3f}s, "
                f"machine-speed ratio {1 / speed_ratio:.2f}x)"
            )
            continue
        base_mem = entry.get("peak_mem_bytes")
        if base_mem and report.peak_mem_bytes is not None:
            mem_budget = float(base_mem) * (1.0 + mem_threshold)
            if report.peak_mem_bytes > mem_budget:
                problems.append(
                    f"{report.scenario}: peak memory grew beyond the "
                    f"{mem_threshold:.0%} budget (baseline "
                    f"{base_mem / 1e6:.1f} MB, run "
                    f"{report.peak_mem_bytes / 1e6:.1f} MB)"
                )
    return problems


def render_report_line(report: BenchReport) -> str:
    """One human-readable summary line per scenario."""
    memory = (
        f"peak {report.peak_mem_bytes / 1e6:7.1f} MB  "
        if report.peak_mem_bytes is not None
        else ""
    )
    sim_eps = report.sim_events_per_sec
    sim = f"sim {sim_eps:>9.0f} ev/s  " if sim_eps is not None else ""
    return (
        f"{report.scenario:<18} {report.mode:<5} "
        f"wall {report.wall_s:8.3f}s  "
        f"events {report.events:>8}  "
        f"{report.events_per_sec:>10.0f} ev/s  "
        f"{sim}"
        f"requests {report.requests:>7}  "
        f"{memory}"
        f"{report.metrics_digest[:19]}..."
    )


def render_trajectory_lines(
    reports: list[BenchReport], baseline: dict[str, Any]
) -> list[str]:
    """Per-scenario events/sec trajectory against a baseline.

    Informational only — the gate never fails on throughput growth; this
    is the "are we actually getting faster" readout the ROADMAP's
    perf-trajectory item asks for.  Two ratios per scenario when the
    measurements allow: whole-wall events/sec (generation + simulation +
    analysis) and simulator-only events/sec (time inside
    ``Simulation.run``), each against the matching baseline field.  A
    baseline written before ``sim_events_per_sec`` existed yields only
    the whole-wall ratio.  Raw, machine-local ratios: no calibration
    normalization is applied (ev/s trajectories are meant to be read on
    one machine across commits).
    """
    lines: list[str] = []
    entries = baseline.get("scenarios", {})
    for report in reports:
        entry = entries.get(report.scenario)
        if not entry:
            continue
        parts = [
            f"{report.scenario:<18} {report.events_per_sec:>10.0f} ev/s"
        ]
        base_eps = entry.get("events_per_sec")
        if base_eps:
            parts.append(f"({report.events_per_sec / base_eps:5.2f}x)")
        sim_eps = report.sim_events_per_sec
        if sim_eps is not None:
            parts.append(f" sim {sim_eps:>10.0f} ev/s")
            base_sim = entry.get("sim_events_per_sec")
            if base_sim:
                parts.append(f"({sim_eps / base_sim:5.2f}x)")
        lines.append("  ".join(parts))
    return lines

