"""Trace characterization and synthetic-profile matching.

:func:`characterize_records` reduces a trace to the statistics the paper
reasons with — reference skew, read/write mix, working-set size,
sequentiality — in one streaming pass (memory proportional to the
working set, never to the trace length).

:func:`matching_profile` then bends a preset
:class:`~repro.workload.profiles.WorkloadProfile` until the *generator*
produces a day with the same gross character: same duration, read/write
mix, skew exponent and sequential-run structure.  That gives an
apples-to-apples comparison — replay the real trace, then run the
synthetic twin through the identical experiment harness and compare what
rearrangement buys on each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

from ..workload.distributions import top_k_share
from ..workload.profiles import PROFILES, WorkloadProfile
from .formats import BlockIO


@dataclass(frozen=True)
class TraceCharacter:
    """One trace, summarized the way Section 5 talks about workloads."""

    requests: int
    """Trace records (I/O requests, possibly multi-block)."""
    block_requests: int
    """Single-block accesses after expansion (what the simulator sees)."""
    reads: int
    writes: int
    working_set_blocks: int
    """Distinct blocks touched."""
    span_blocks: int
    """Address-space extent: max touched block - min touched block + 1."""
    duration_ms: float
    sequential_fraction: float
    """Fraction of requests starting exactly where the previous ended."""
    mean_run_blocks: float
    """Mean length (in blocks) of a maximal sequential run."""
    mean_request_blocks: float
    top_100_share: float
    top_1018_share: float
    zipf_exponent: float
    """Slope of the log-log rank/frequency line over per-block counts."""

    @property
    def write_fraction(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.writes / self.requests


def _fit_zipf_exponent(counts: list[int], max_ranks: int = 1000) -> float:
    """Least-squares slope of log(count) against log(rank), negated.

    Pure-Python closed-form accumulation: deterministic across platforms
    (no BLAS), which keeps the characterizer usable inside digest-hashed
    benchmark payloads.  Returns 0.0 when fewer than two distinct ranks
    exist.
    """
    ordered = sorted(counts, reverse=True)[:max_ranks]
    points = [
        (math.log(rank), math.log(count))
        for rank, count in enumerate(ordered, start=1)
        if count > 0
    ]
    n = len(points)
    if n < 2:
        return 0.0
    sum_x = sum(x for x, _ in points)
    sum_y = sum(y for _, y in points)
    sum_xx = sum(x * x for x, _ in points)
    sum_xy = sum(x * y for x, y in points)
    denom = n * sum_xx - sum_x * sum_x
    if denom == 0:
        return 0.0
    slope = (n * sum_xy - sum_x * sum_y) / denom
    return max(0.0, -slope)


def characterize_records(records: Iterable[BlockIO]) -> TraceCharacter:
    """Summarize a record stream in one pass."""
    counts: dict[int, int] = {}
    requests = 0
    block_requests = 0
    reads = 0
    first_ms: float | None = None
    last_ms = 0.0
    min_block: int | None = None
    max_block = 0
    sequential = 0
    prev_end: int | None = None
    run_blocks = 0
    runs = 0
    total_run_blocks = 0

    for record in records:
        requests += 1
        block_requests += record.num_blocks
        if record.op.is_read:
            reads += 1
        if first_ms is None:
            first_ms = record.time_ms
        last_ms = record.time_ms
        if min_block is None or record.block < min_block:
            min_block = record.block
        if record.end_block - 1 > max_block:
            max_block = record.end_block - 1
        for offset in range(record.num_blocks):
            block = record.block + offset
            counts[block] = counts.get(block, 0) + 1
        if prev_end is not None and record.block == prev_end:
            sequential += 1
            run_blocks += record.num_blocks
        else:
            if run_blocks:
                runs += 1
                total_run_blocks += run_blocks
            run_blocks = record.num_blocks
        prev_end = record.end_block
    if run_blocks:
        runs += 1
        total_run_blocks += run_blocks

    all_counts = list(counts.values())
    return TraceCharacter(
        requests=requests,
        block_requests=block_requests,
        reads=reads,
        writes=requests - reads,
        working_set_blocks=len(counts),
        span_blocks=(max_block - min_block + 1) if min_block is not None else 0,
        duration_ms=(last_ms - first_ms) if first_ms is not None else 0.0,
        sequential_fraction=sequential / requests if requests else 0.0,
        mean_run_blocks=total_run_blocks / runs if runs else 0.0,
        mean_request_blocks=block_requests / requests if requests else 0.0,
        top_100_share=top_k_share(all_counts, 100),
        top_1018_share=top_k_share(all_counts, 1018),
        zipf_exponent=_fit_zipf_exponent(all_counts),
    )


def matching_profile(
    character: TraceCharacter,
    base: str | WorkloadProfile = "system",
    *,
    name: str | None = None,
) -> WorkloadProfile:
    """A :class:`WorkloadProfile` whose generated day matches ``character``.

    The mapping is deliberately coarse — it matches the statistics the
    rearrangement result depends on, not the trace microstructure:

    * day length = trace duration;
    * popularity skew = the fitted Zipf exponent (floored at 0.5 so the
      generator's weighting stays well-defined);
    * sequentiality: ``single_block_read_prob`` is the trace's isolated-
      request fraction, ``multi_run_mean`` its mean run length;
    * read volume: sessions/hour chosen so sessions × mean run length
      reproduces the traced read count;
    * write volume: open sessions/hour chosen so the periodic-update
      machinery emits roughly the traced write count (writes reach the
      disk deduplicated through the cache, so this matches volume, not
      burst shape).

    The synthetic twin is a *generator* workload: its blocks live on the
    simulated file system, not at the trace's addresses — that is the
    point (same statistics, native layout).
    """
    if isinstance(base, str):
        try:
            base = PROFILES[base]
        except KeyError:
            known = ", ".join(sorted(PROFILES))
            raise KeyError(
                f"unknown profile {base!r}; known: {known}"
            ) from None
    hours = max(character.duration_ms / 3_600_000.0, 0.01)
    run_mean = max(character.mean_run_blocks, 1.0)
    read_sessions = character.reads / run_mean / hours
    write_sessions = character.writes / hours
    return replace(
        base,
        name=name or f"{base.name}-matched",
        day_hours=hours,
        file_popularity_exponent=max(character.zipf_exponent, 0.5),
        single_block_read_prob=min(
            max(1.0 - character.sequential_fraction, 0.0), 1.0
        ),
        multi_run_mean=max(run_mean, 2.0),
        read_sessions_per_hour=max(read_sessions, 1.0),
        open_sessions_per_hour=max(write_sessions, 0.0),
        edit_session_fraction=0.0,
        new_files_per_day=0,
        extend_sessions_per_day=0,
        popularity_reshuffle_fraction=0.0,
    )


def render_trace_character(character: TraceCharacter, title: str) -> str:
    """One-screen text summary (mirrors ``analysis.render_character``)."""
    lines = [
        title,
        "=" * max(len(title), 44),
        f"requests:            {character.requests:>10}"
        f"  (reads {character.reads}, writes {character.writes},"
        f" {character.write_fraction:.0%} writes)",
        f"block accesses:      {character.block_requests:>10}"
        f"  (mean {character.mean_request_blocks:.1f} blocks/request)",
        f"working set:         {character.working_set_blocks:>10} blocks"
        f"  (span {character.span_blocks})",
        f"duration:            {character.duration_ms / 1000.0:>10.1f} s",
        f"sequential fraction: {character.sequential_fraction:>10.1%}"
        f"  (mean run {character.mean_run_blocks:.1f} blocks)",
        f"top-100 share:       {character.top_100_share:>10.1%}",
        f"top-1018 share:      {character.top_1018_share:>10.1%}",
        f"zipf exponent:       {character.zipf_exponent:>10.2f}",
    ]
    return "\n".join(lines)
