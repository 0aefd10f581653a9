"""Self-tests of the benchmark, on seconds-long shrunken workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from probe import REFERENCE_PROBE_NS, SpeedProbe  # noqa: E402
from tracing import (  # noqa: E402
    ROOT_SPAN,
    Span,
    SpanRecorder,
    check_nesting,
    self_times,
)
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "small",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_spec_names_the_workloads() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(
    workload: str, trace: int, section: str
) -> None:
    code, result = run_bench("--workload", workload, "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_traced_run_writes_nested_spans() -> None:
    pattern = "users_online-small-seed11-*.spans.jsonl"
    for stale in (BENCH / "out").glob(pattern):
        stale.unlink()
    code, _ = run_bench("--workload", "users_online", "--trace", "1", "--seed", "11")
    assert code == 0
    (path,) = (BENCH / "out").glob(pattern)
    spans = [
        Span(s["id"], s["name"], s["start_ns"], s["end_ns"], s["parent"])
        for s in map(json.loads, path.read_text().splitlines())
    ]
    roots = [span for span in spans if span.parent is None]
    assert [span.name for span in roots] == [ROOT_SPAN]
    assert check_nesting(spans) == []
    names = {span.name for span in spans}
    assert {"simulate", "analyze.hot_blocks", "rearrange.online_window"} <= names


def test_recorder_nests_spans_and_computes_self_time() -> None:
    recorder = SpanRecorder()
    inner = recorder.span("inner", lambda: sum(range(1000)))

    def outer_body() -> None:
        inner()
        inner()

    recorder.span("outer", outer_body)()
    spans = recorder.finished()
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    (outer,) = by_name["outer"]
    assert outer.parent is None
    assert [span.parent for span in by_name["inner"]] == [outer.span_id] * 2
    assert check_nesting(spans) == []
    seconds, calls = self_times(spans)
    assert calls == {"outer": 1, "inner": 2}
    children = sum(span.duration_ns for span in by_name["inner"])
    assert seconds["outer"] == pytest.approx((outer.duration_ns - children) / 1e9)


def test_check_nesting_reports_a_child_outside_its_parent() -> None:
    spans = [Span(0, "outer", 10, 20, None), Span(1, "inner", 15, 25, 0)]
    assert check_nesting(spans)


def test_a_layer_without_spans_fails_coverage() -> None:
    spans = [Span(0, ROOT_SPAN, 0, 100, None), Span(1, "simulate", 10, 50, 0)]
    problems = worker.coverage_problems(spans, "users_online")
    assert any("rearrange.online_window" in problem for problem in problems)
    assert not any("simulate" in problem for problem in problems)


def test_probe_clock_rescales_by_host_speed() -> None:
    probe = SpeedProbe()
    ref = REFERENCE_PROBE_NS
    # Samples at reference speed, then at half speed.
    probe.samples = [(0, ref), (10 * ref, 11 * ref), (20 * ref, 22 * ref)]
    clock = probe.clock()
    assert clock(0) == clock(ref) == 0  # the clock stands still in a sample
    assert clock(10 * ref) == 9 * ref  # full speed on both sides
    assert clock(11 * ref) == 9 * ref
    # Between a full-speed and a half-speed sample: three quarters speed.
    assert clock(20 * ref) == 9 * ref + round(9 * ref * 0.75)
    assert probe.slowdown() == 1.0
    with pytest.raises(ValueError):
        clock(-1)


def test_probe_samples_the_block_and_restores_the_handler() -> None:
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        total = sum(i * i for i in range(3_000_000))
    assert total > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 3  # entry, exit and at least one tick
    clock = probe.clock()
    readings = [clock(t) for sample in probe.samples for t in sample]
    assert readings == sorted(readings) and readings[-1] > 0


def test_recorder_restores_wrapped_classmethods() -> None:
    class Target:
        @classmethod
        def make(cls) -> type:
            return cls

    original = Target.__dict__["make"]
    recorder = SpanRecorder()
    recorder.patch(Target, "make", lambda fn: recorder.span("make", fn))
    assert Target.make() is Target
    assert [span.name for span in recorder.finished()] == ["make"]
    recorder.restore()
    assert Target.__dict__["make"] is original


@pytest.fixture
def tampered_pins(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    """Pin a wrong digest for the small ``system_nightly`` workload."""
    pins = json.loads(run.PINNED_DIGESTS.read_text())
    pins["small"]["system_nightly"] = "sha256:" + "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINNED_DIGESTS", path)


def run_in_process(capsys: pytest.CaptureFixture[str], *args: str) -> tuple[int, dict]:
    """``run.main`` in this process, so that a patched pin applies; the
    measured runs are still worker subprocesses."""
    code = run.main(["--scale", "small", "--seconds", "1", *args])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.usefixtures("tampered_pins")
def test_tampered_digest_is_a_failed_run(capsys: pytest.CaptureFixture[str]) -> None:
    code, result = run_in_process(
        capsys, "--workload", "system_nightly", "--trace", "0"
    )
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"] == {}


@pytest.mark.usefixtures("tampered_pins")
def test_other_seeds_skip_the_pinned_digest(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, result = run_in_process(
        capsys, "--workload", "system_nightly", "--trace", "0", "--seed", "7"
    )
    assert code == 0 and result["correct"] is True
