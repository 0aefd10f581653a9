"""Time rescaling: turn trace arrival times into simulator jobs.

A trace records *when* each request arrived on the traced system; the
simulator wants :class:`~repro.sim.jobs.Job` objects.  Two conversion
disciplines are offered:

**open loop** (``loop="open"``)
    Every record becomes a one-shot batch job at its (rebased, scaled)
    arrival time.  The simulated disk has no say in the arrival stream —
    exactly what the trace observed, and the right choice when the trace
    comes from a system whose clients did not wait for this disk.

**closed loop** (``loop="closed"``)
    Consecutive records closer than ``gap_ms`` (after scaling) fold into
    one closed-loop sequential job whose steps carry the scaled
    inter-arrival gaps as think times: each request is issued *gap* ms
    after the previous one **completes**.  This converts the trace's
    timing into client think time, so a faster simulated disk finishes
    the day sooner — the conversion the paper's NFS clients effectively
    implement, and the one that lets rearrangement shorten sequential
    sessions.  Gaps of ``gap_ms`` or more start a new job.

``time_scale`` multiplies every rebased timestamp (and therefore every
inter-arrival gap): 0.1 compresses a day's trace into a tenth of the
time, 10.0 stretches it.  Rebasements, scaling and grouping are pure
float arithmetic over the record stream — deterministic for a given
input, so two conversions of the same trace are identical.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..sim.jobs import Job, Step
from .formats import BlockIO
from .mapping import AddressMapper

DEFAULT_GAP_MS = 50.0
"""Closed-loop session break: gaps this long or longer start a new job."""

LOOPS = ("open", "closed")
"""The timing disciplines :func:`jobs_from_records` accepts."""


def rebase_and_scale(
    records: Sequence[BlockIO], time_scale: float = 1.0
) -> list[BlockIO]:
    """Sort records by arrival and rebase the clock to zero, scaled.

    Traces merged from several CPUs (blkparse) are only approximately
    ordered; sorting first makes the rebased stream monotone.  Ties keep
    their file order (``sorted`` is stable), so the result is
    deterministic.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    ordered = sorted(records, key=lambda r: r.time_ms)
    if not ordered:
        return []
    base = ordered[0].time_ms
    return [
        BlockIO(
            time_ms=(record.time_ms - base) * time_scale,
            block=record.block,
            num_blocks=record.num_blocks,
            op=record.op,
            line_no=record.line_no,
        )
        for record in ordered
    ]


def _steps_for(
    record: BlockIO, mapper: AddressMapper, first_think_ms: float
) -> list[Step]:
    """One step per touched block; the lead step carries the think time."""
    steps = []
    for index in range(record.num_blocks):
        steps.append(
            Step(
                logical_block=mapper.map(record.block + index),
                op=record.op,
                think_ms=first_think_ms if index == 0 else 0.0,
            )
        )
    return steps


def jobs_from_records(
    records: Iterable[BlockIO],
    mapper: AddressMapper,
    *,
    time_scale: float = 1.0,
    loop: str = "open",
    gap_ms: float = DEFAULT_GAP_MS,
    name_prefix: str = "trace",
) -> list[Job]:
    """Convert normalized trace records into simulator jobs.

    Records are rebased to t=0 and scaled by ``time_scale`` first; the
    ``loop`` discipline then decides how timing is carried (see the
    module docstring).  Multi-block records expand into one step per
    block, mapped individually so compaction keeps runs contiguous.
    """
    if loop not in LOOPS:
        raise ValueError(f"loop must be 'open' or 'closed', not {loop!r}")
    if gap_ms <= 0:
        raise ValueError("gap_ms must be positive")
    ordered = rebase_and_scale(list(records), time_scale)
    jobs: list[Job] = []
    if loop == "open":
        for index, record in enumerate(ordered):
            jobs.append(
                Job(
                    start_ms=record.time_ms,
                    steps=_steps_for(record, mapper, 0.0),
                    sequential=False,
                    name=f"{name_prefix}-{index}",
                )
            )
        return jobs

    # Closed loop: fold bursts into sequential jobs with think times.
    session_steps: list[Step] = []
    session_start = 0.0
    previous_ms = 0.0

    def finish() -> None:
        if session_steps:
            jobs.append(
                Job(
                    start_ms=session_start,
                    steps=list(session_steps),
                    sequential=True,
                    name=f"{name_prefix}-{len(jobs)}",
                )
            )
            session_steps.clear()

    for record in ordered:
        gap = record.time_ms - previous_ms
        if not session_steps or gap >= gap_ms:
            finish()
            session_start = record.time_ms
            session_steps.extend(_steps_for(record, mapper, 0.0))
        else:
            session_steps.extend(_steps_for(record, mapper, max(gap, 0.0)))
        previous_ms = record.time_ms
    finish()
    return jobs
