"""Ablation — analyzer list size and replacement heuristic.

Section 4.2 notes that a bounded reference-count list "can still generate
very accurate guesses using much shorter lists" ([Salem 92], [Salem 93]).
This ablation feeds one generated day's request stream to analyzers of
shrinking capacity and measures how much of the true reference mass the
estimated top-1018 hot list covers.

Expected shape: coverage degrades gracefully as capacity shrinks, and the
space-saving heuristic beats naive evict-min at small capacities.
"""

from conftest import once

from repro.core.analyzer import ReferenceStreamAnalyzer
from repro.sim.experiment import Experiment

CAPACITIES = (None, 4096, 1024, 512, 256)
TOP_N = 1018


def build_stream(campaigns):
    experiment = Experiment(campaigns.config("toshiba", "system"))
    workload = experiment.generator.generate_day()
    blocks = [step.logical_block for job in workload.jobs for step in job.steps]
    return blocks, workload.all_counts


def coverage_of(hot, true_counts):
    """Fraction of the true reference mass the hot list's blocks absorb."""
    total = sum(true_counts.values())
    if total == 0:
        return 0.0
    return sum(true_counts.get(block, 0) for block, __ in hot) / total


def coverage(blocks, true_counts, capacity, heuristic):
    analyzer = ReferenceStreamAnalyzer(capacity=capacity, heuristic=heuristic)
    analyzer.observe_blocks(blocks)
    return coverage_of(analyzer.hot_blocks(TOP_N), true_counts)


def test_ablation_analyzer_size(benchmark, campaigns, publish):
    blocks, true_counts = once(benchmark, lambda: build_stream(campaigns))

    lines = [
        "Ablation: analyzer capacity vs hot-list coverage (top 1018)",
        "=" * 60,
        f"{'capacity':>10}{'space-saving':>15}{'evict-min':>12}",
    ]
    results = {}
    for capacity in CAPACITIES:
        ss = coverage(blocks, true_counts, capacity, "space-saving")
        em = coverage(blocks, true_counts, capacity, "evict-min")
        results[capacity] = (ss, em)
        label = "unbounded" if capacity is None else str(capacity)
        lines.append(f"{label:>10}{ss:>14.1%}{em:>11.1%}")
    publish("ablation_analyzer_size", "\n".join(lines))

    exact = results[None][0]
    assert exact > 0.9  # the unbounded list nails the hot set
    # Graceful degradation: a few-hundred-entry list still covers most
    # of the mass (the paper's space-efficiency claim).
    assert results[512][0] > 0.6 * exact
    # Monotone in capacity for space-saving (within small tolerance).
    ss_values = [results[c][0] for c in CAPACITIES]
    for bigger, smaller in zip(ss_values, ss_values[1:]):
        assert smaller <= bigger + 0.02
    # Space-saving is at least as good as evict-min at every capacity.
    for capacity, (ss, em) in results.items():
        assert ss >= em - 0.02, capacity
