"""repro.bench — the runner, the regression gate, and digest stability."""

import json
from pathlib import Path

import pytest

from repro.bench.digest import metrics_digest
from repro.bench.runner import (
    BenchError,
    BenchReport,
    compare_reports,
    load_baseline,
    run_scenario,
    write_baseline,
)
from repro.bench.scenarios import SCENARIOS, Scenario, ScenarioResult

BASELINE_PATH = Path(__file__).parent.parent / "benchmarks/results/baseline.json"


def tiny_scenario(name="tiny", payload=None):
    def run(quick):
        return ScenarioResult(
            payload=payload or {"value": 7}, events=10, requests=5
        )

    return Scenario(name, "a constant-output scenario", run)


def make_report(**overrides):
    defaults = dict(
        scenario="tiny",
        mode="quick",
        wall_s=1.0,
        wall_s_all=[1.0],
        events=10,
        requests=5,
        metrics_digest="sha256:abc",
        calibration=100.0,
        peak_mem_bytes=1_000_000,
    )
    defaults.update(overrides)
    return BenchReport(**defaults)


def baseline_for(report, **entry_overrides):
    entry = {
        "wall_s": report.wall_s,
        "events": report.events,
        "events_per_sec": report.events_per_sec,
        "metrics_digest": report.metrics_digest,
        "calibration": report.calibration,
        "peak_mem_bytes": report.peak_mem_bytes,
    }
    entry.update(entry_overrides)
    return {
        "schema": "repro-bench-baseline/1",
        "mode": report.mode,
        "scenarios": {report.scenario: entry},
    }


class TestRunScenario:
    def test_records_peak_memory(self):
        report = run_scenario(tiny_scenario(), quick=True, calibration=1.0)
        assert report.peak_mem_bytes is not None
        assert report.peak_mem_bytes > 0
        assert report.to_json()["peak_mem_bytes"] == report.peak_mem_bytes

    def test_memory_pass_can_be_skipped(self):
        report = run_scenario(
            tiny_scenario(), quick=True, calibration=1.0, measure_memory=False
        )
        assert report.peak_mem_bytes is None

    def test_nondeterminism_in_memory_pass_is_caught(self):
        payloads = iter([{"value": 1}, {"value": 2}])

        def run(quick):
            return ScenarioResult(
                payload=next(payloads), events=1, requests=1
            )

        scenario = Scenario("flaky", "changes output", run)
        with pytest.raises(BenchError, match="nondeterministic"):
            run_scenario(scenario, quick=True, calibration=1.0)


class TestCompareGate:
    def test_clean_pass(self):
        report = make_report()
        assert compare_reports([report], baseline_for(report)) == []

    def test_missing_scenario_is_a_named_problem(self):
        report = make_report()
        baseline = baseline_for(report)
        baseline["scenarios"] = {}
        (problem,) = compare_reports([report], baseline)
        assert "not present in baseline" in problem
        assert "tiny" in problem

    def test_incomplete_entry_is_a_named_problem_not_a_keyerror(self):
        report = make_report()
        baseline = baseline_for(report)
        del baseline["scenarios"]["tiny"]["metrics_digest"]
        (problem,) = compare_reports([report], baseline)
        assert "incomplete" in problem

    def test_digest_mismatch_wins_over_timing(self):
        report = make_report(metrics_digest="sha256:other", wall_s=99.0)
        (problem,) = compare_reports([report], baseline_for(make_report()))
        assert "digest changed" in problem

    def test_event_count_mismatch_is_a_named_problem(self):
        report = make_report(events=11)
        (problem,) = compare_reports([report], baseline_for(make_report()))
        assert "event count changed" in problem
        assert "baseline 10, run 11" in problem

    def test_event_check_skipped_when_baseline_lacks_events(self):
        report = make_report(events=11)
        baseline = baseline_for(make_report())
        del baseline["scenarios"]["tiny"]["events"]
        assert compare_reports([report], baseline) == []

    def test_time_regression_detected(self):
        report = make_report(wall_s=2.0)
        baseline = baseline_for(make_report(wall_s=1.0))
        (problem,) = compare_reports([report], baseline)
        assert "slowed beyond" in problem

    def test_memory_regression_detected(self):
        report = make_report(peak_mem_bytes=2_000_000)
        baseline = baseline_for(make_report(peak_mem_bytes=1_000_000))
        (problem,) = compare_reports([report], baseline)
        assert "peak memory grew" in problem

    def test_memory_within_threshold_passes(self):
        report = make_report(peak_mem_bytes=1_200_000)
        baseline = baseline_for(make_report(peak_mem_bytes=1_000_000))
        assert compare_reports([report], baseline) == []

    def test_memory_check_skipped_for_old_baselines(self):
        report = make_report(peak_mem_bytes=10**12)
        baseline = baseline_for(make_report(), peak_mem_bytes=None)
        assert compare_reports([report], baseline) == []

    def test_worker_count_mismatch_is_a_named_problem(self):
        """A multi-process scenario timed at a different worker count
        must not be gated on wall-clock — the widths are incomparable."""
        report = make_report(machine={"workers": 4}, wall_s=0.1)
        baseline = baseline_for(make_report(wall_s=99.0), workers=1)
        (problem,) = compare_reports([report], baseline)
        assert "worker-count mismatch" in problem
        assert "baseline timed with 1 worker(s)" in problem

    def test_matching_worker_counts_compare_normally(self):
        report = make_report(machine={"workers": 2})
        baseline = baseline_for(make_report(), workers=2)
        assert compare_reports([report], baseline) == []

    def test_worker_check_skipped_when_baseline_predates_it(self):
        report = make_report(machine={"workers": 2})
        baseline = baseline_for(make_report())  # no "workers" recorded
        assert compare_reports([report], baseline) == []

    def test_baseline_roundtrip_carries_workers(self, tmp_path):
        report = make_report(machine={"workers": 3})
        path = write_baseline([report], tmp_path / "baseline.json")
        assert load_baseline(path)["scenarios"]["tiny"]["workers"] == 3

    def test_baseline_roundtrip_carries_memory(self, tmp_path):
        report = make_report()
        path = write_baseline([report], tmp_path / "baseline.json")
        entry = load_baseline(path)["scenarios"]["tiny"]
        assert entry["peak_mem_bytes"] == report.peak_mem_bytes


@pytest.fixture
def absorbed(monkeypatch):
    """The completions the batch kernel absorbs in each
    :meth:`Simulation.run` call of the test (in this process)."""
    from repro.sim.engine import Simulation

    counts = []
    run = Simulation.run

    def counted(self, *args, **kwargs):
        before = self.absorbed_completions
        try:
            return run(self, *args, **kwargs)
        finally:
            counts.append(self.absorbed_completions - before)

    monkeypatch.setattr(Simulation, "run", counted)
    return counts


class TestCommittedDigests:
    """Every scenario's quick-mode digest and event count must match the
    committed baseline bit for bit, on the batch kernel and on the
    scalar reference engine alike.  The default ``exact`` counter and
    every hot path behind it (block table, analyzer, allocator,
    placement) are pinned by this: an optimization that moves a digest
    is a behavior change, not an optimization."""

    def run_against_baseline(self, name):
        committed = json.loads(BASELINE_PATH.read_text())["scenarios"]
        assert name in committed, (
            f"{name} missing from {BASELINE_PATH}; regenerate the "
            "baseline with 'repro bench --quick --write-baseline'"
        )
        result = SCENARIOS[name].run(True)
        assert metrics_digest(result.payload) == committed[name][
            "metrics_digest"
        ]
        assert result.events == committed[name]["events"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_quick_digest_matches_committed_baseline(self, name, absorbed):
        self.run_against_baseline(name)
        # Fault injection keeps fault_stress's device off the kernel.
        assert (sum(absorbed) > 0) == (name != "fault_stress")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scalar_reference_matches_committed_baseline(
        self, name, absorbed, scalar_engine
    ):
        with scalar_engine():
            self.run_against_baseline(name)
        assert absorbed and sum(absorbed) == 0
