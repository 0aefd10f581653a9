"""The repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload system_nightly --seed 1993 \\
        --seconds 40 --trace 0

Each measured run of the workload is a fresh process (``worker.py``).
Runs repeat until ``--seconds`` would be exceeded, with at least
``MIN_RUNS``; the end-to-end metrics are medians over the runs.  With
``--trace 1`` half the time goes to untraced runs and the rest to traced
runs, and the per-layer metrics come from the traced run of median wall
time.  Every run is checked (see ``README.md``); a failed check marks its
days failed, and a run with failures prints no metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Progress goes to
standard error.  Must be started from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS, days_attempted  # noqa: E402

MIN_RUNS = 3
"""Runs per untraced invocation, at least.  A traced invocation makes at
least two untraced runs and one traced run."""
RUN_TIMEOUT_S = 120.0
"""One worker run that takes longer than this counts as failed."""

def with_units(values: dict[str, float], section: str) -> dict[str, dict[str, Any]]:
    """``values`` with the units ``BENCHMARK.json`` gives in ``section``,
    which must list exactly these metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    if set(values) != set(units):
        raise RuntimeError(
            f"measured {sorted(values)} but BENCHMARK.json lists {sorted(units)}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_worker(
    workload: str, seed: int, scale: str, spans: Path | None
) -> dict[str, Any]:
    """One measured run in a fresh process; ``{"error": ...}`` if it died."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
    ]
    if spans is not None:
        command += ["--trace", str(spans)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"run exceeded {RUN_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"exit code {proc.returncode}: " + " | ".join(tail)}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable result line: {lines[-1][:200]}"}


def run_problems(
    result: dict[str, Any], pinned: str | None, first: dict[str, Any] | None
) -> list[str]:
    """Checks the parent makes on one run, beyond the worker's day checks."""
    if "error" in result:
        return [result["error"]]
    problems = list(result.get("trace_problems", []))
    if pinned is not None and result["digest"] != pinned:
        problems.append(f"digest {result['digest']} differs from pinned {pinned}")
    if first is not None and result["digest"] != first["digest"]:
        problems.append(
            f"digest {result['digest']} differs from this seed's first run "
            f"{first['digest']}"
        )
    return problems


def count_failed(
    result: dict[str, Any], problems: list[str], days: int
) -> int:
    """Failed days of one run: every day if a run-level check failed."""
    if problems:
        return days
    return len({(f["device"], f["day"]) for f in result["failed_days"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "small"), default="full",
        help="small: the seconds-long shrunken workload the self-tests run",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        # Also the case in a directory holding only the benchmark's files.
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    pinned = None
    if args.seed == DEFAULT_SEED:
        pinned = json.loads(PINNED_DIGESTS.read_text())[args.scale][args.workload]

    days = days_attempted(args.workload, args.scale)
    started = perf_counter()
    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    first: dict[str, Any] | None = None
    attempted = failed = 0
    all_problems: list[str] = []

    def measure(trace: bool) -> bool:
        """One run; False once a run has failed (the result is decided)."""
        nonlocal first, attempted, failed
        index = len(untraced) + len(traced)
        spans = None
        if trace:
            name = f"{args.workload}-{args.scale}-seed{args.seed}-{index}"
            spans = SPANS_DIR / f"{name}.spans.jsonl"
        began = perf_counter()
        result = run_worker(args.workload, args.seed, args.scale, spans)
        run_seconds.append(perf_counter() - began)
        problems = run_problems(result, pinned, first)
        attempted += days
        run_failed = count_failed(result, problems, days)
        failed += run_failed
        all_problems.extend(problems)
        for day in result.get("failed_days", []):
            all_problems.extend(
                f"{day['device']} day {day['day']}: {p}" for p in day["problems"]
            )
        if "error" not in result:
            first = first or result
            (traced if trace else untraced).append(result)
        print(
            f"[perfbench] {args.workload} run {index} "
            f"{'traced' if trace else 'untraced'}: "
            f"{result.get('wall_s', float('nan')):.3f} s measured "
            f"({result.get('host_wall_s', float('nan')):.3f} s on the host, "
            f"slowdown {result.get('slowdown', float('nan')):.2f}), "
            f"{result.get('setup_s', float('nan')):.4f} s set-up, "
            f"{run_failed} of {days} days failed",
            file=sys.stderr,
        )
        return run_failed == 0

    def another_fits(budget: float) -> bool:
        return perf_counter() - started + run_seconds[-1] <= budget

    run_seconds: list[float] = []
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    min_untraced = 2 if args.trace else MIN_RUNS
    ok = True
    while ok and (len(untraced) < min_untraced or another_fits(untraced_budget)):
        ok = measure(trace=False)
    if args.trace:
        while ok and (not traced or another_fits(args.seconds)):
            ok = measure(trace=True)

    metrics: dict[str, dict[str, Any]] = {}
    if ok:
        if args.trace:
            metrics = trace_metrics(untraced, traced)
        else:
            metrics = end_to_end_metrics(untraced)
        summarize(args.workload, untraced, metrics)
    else:
        for problem in dict.fromkeys(all_problems):
            print(f"[perfbench] FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1


def end_to_end_metrics(runs: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    values = {
        "requests_per_s": statistics.median(r["requests"] / r["wall_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        # Simulated metrics are identical across runs: the digest
        # check above has already compared every run against the first.
        **{
            name: runs[0][name]
            for name in ("seek_ms_mean", "service_ms_mean", "service_ms_p99")
        },
    }
    return with_units(values, "end_to_end")


def trace_metrics(
    untraced: list[dict[str, Any]], traced: list[dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    by_wall = sorted(traced, key=lambda r: r["wall_s"])
    chosen = by_wall[(len(by_wall) - 1) // 2]
    layers = dict(chosen["layers"])
    layers["trace_overhead_s"] = chosen["wall_s"] - statistics.median(
        r["wall_s"] for r in untraced
    )
    return with_units(layers, "per_layer")


def summarize(
    workload: str, runs: list[dict[str, Any]], metrics: dict[str, dict[str, Any]]
) -> None:
    """Human-readable lines on standard error."""
    first = runs[0]
    print(
        f"[perfbench] {workload}: {len(runs)} untraced runs, "
        f"{first['requests']} requests per run, p99 over "
        f"{first['service_samples']} samples, digest {first['digest']}",
        file=sys.stderr,
    )
    print(
        f"[perfbench] median host slowdown "
        f"{statistics.median(r['slowdown'] for r in runs):.3f}, median host "
        f"requests/s {statistics.median(r['requests'] / r['host_wall_s'] for r in runs):.6g}",
        file=sys.stderr,
    )
    for name, metric in metrics.items():
        print(f"[perfbench]   {name:32s} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
