"""Layer spans recorded from outside the ``repro`` package.

The benchmark times each layer by wrapping the public entry point that
leads into it (see :data:`LAYER_ENTRY_POINTS`); nothing under ``src/`` is
edited.  Every wrapped call becomes one :class:`Span` (name, start, end,
parent span) kept in memory and written out when the run ends.  A span's
self time is its duration minus the time its child spans cover; the
wrapped calls run on one thread and strictly nest, so the children of a
span never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

ROOT_SPAN = "run"
"""The span around one whole measured run; its self time is ``other_s``."""

LAYER_ENTRY_POINTS: tuple[tuple[str, str | None, str, str], ...] = (
    # (module, class or None for a module function, attribute, span name)
    ("repro.disk.disk", "Disk", "__init__", "setup.disk"),
    ("repro.driver.blocktable", "BlockTable", "reserve", "setup.blocktable"),
    (
        "repro.workload.generator",
        "WorkloadGenerator",
        "__init__",
        "setup.fs_populate",
    ),
    ("repro.workload.generator", "WorkloadGenerator", "generate_day", "generate"),
    ("repro.fs.buffercache", "BufferCache", "sync", "generate.sync"),
    ("repro.sim.engine", "Simulation", "run", "simulate"),
    ("repro.core.analyzer", "ReferenceStreamAnalyzer", "poll", "analyze"),
    (
        "repro.core.analyzer",
        "ReferenceStreamAnalyzer",
        "hot_blocks",
        "analyze.hot_blocks",
    ),
    ("repro.core.controller", "RearrangementController", "end_of_day", "rearrange"),
    (
        "repro.core.online",
        "IncrementalArranger",
        "window_opened",
        "rearrange.online_window",
    ),
    ("repro.stats.metrics", "DayMetrics", "from_tables", "report"),
    ("repro.fleet.runner", None, "build_shard_tasks", "fleet.plan"),
    ("repro.sim.multifs", "MultiDiskExperiment", "__init__", "setup.shard"),
    ("repro.fleet.result", None, "merge_histograms", "fleet.merge"),
    ("repro.fleet.result", "FleetResult", "service_percentile_ms", "fleet.merge"),
    ("repro.fleet.result", "FleetResult", "payload", "fleet.merge"),
    ("repro.fleet.result", "FleetResult", "digest", "fleet.merge"),
)

SPAN_NAMES: tuple[str, ...] = tuple(
    dict.fromkeys(name for *_, name in LAYER_ENTRY_POINTS)
)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Records nested spans around wrapped callables, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that each call records one span ``name``."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id; filled in on exit
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[span_id] = Span(span_id, name, start, end, parent)

        return traced

    def patch(
        self, owner: Any, attribute: str, wrap: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``owner.attribute`` with ``wrap(original)`` until
        :meth:`restore`; classmethods and staticmethods keep their kind."""
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(wrap(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_ENTRY_POINTS`."""
        for module_name, class_name, attribute, name in LAYER_ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self.patch(
                owner, attribute, lambda fn, name=name: self.span(name, fn)
            )

    def restore(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def finished(self) -> list[Span]:
        """Every recorded span; raises if one is still open."""
        if self._stack or any(span is None for span in self.spans):
            raise RuntimeError("spans are still open")
        return [span for span in self.spans if span is not None]


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems with the span tree: a child outside its parent's
    interval, or siblings that overlap.  Empty when the tree is sound."""
    problems: list[str] = []
    by_id = {span.span_id: span for span in spans}
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        if span.end_ns < span.start_ns:
            problems.append(f"span {span.span_id} ({span.name}) ends before it starts")
        if span.parent is not None:
            parent = by_id.get(span.parent)
            if parent is None:
                problems.append(f"span {span.span_id} has unknown parent {span.parent}")
            elif not parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns:
                problems.append(
                    f"span {span.span_id} ({span.name}) lies outside its parent "
                    f"{parent.span_id} ({parent.name})"
                )
        children.setdefault(span.parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: span.start_ns)
        for before, after in zip(siblings, siblings[1:]):
            if after.start_ns < before.end_ns:
                problems.append(
                    f"sibling spans {before.span_id} ({before.name}) and "
                    f"{after.span_id} ({after.name}) overlap"
                )
    return problems


def self_times(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts per span name."""
    child_ns: dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] = child_ns.get(span.parent, 0) + span.duration_ns
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        own = span.duration_ns - child_ns.get(span.span_id, 0)
        seconds[span.name] = seconds.get(span.name, 0.0) + own / 1e9
        calls[span.name] = calls.get(span.name, 0) + 1
    return seconds, calls


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per span, in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for span in spans:
            out.write(
                json.dumps(
                    {
                        "id": span.span_id,
                        "name": span.name,
                        "start_ns": span.start_ns,
                        "end_ns": span.end_ns,
                        "parent": span.parent,
                    }
                )
                + "\n"
            )
