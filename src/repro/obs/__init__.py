"""Instrumentation layer: tracer hooks and JSONL traces.

The simulation core (engine, drivers, rearrangement controller) reports
request-lifecycle milestones to a :class:`Tracer`.  This package provides
the hook interface, the default no-op tracer, and a JSONL trace writer
whose files replay into the same :class:`~repro.stats.metrics.DayMetrics`
the live run produced.
"""

from .jsonl import (
    JsonlTraceWriter,
    TraceScanStats,
    iter_trace,
    replay_day_metrics,
    replay_monitors,
)
from .progress import ShardProgress
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "JsonlTraceWriter",
    "NULL_TRACER",
    "NullTracer",
    "ShardProgress",
    "Tracer",
    "TraceScanStats",
    "iter_trace",
    "replay_day_metrics",
    "replay_monitors",
]
