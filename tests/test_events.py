"""Tests for repro.sim.events — typed events, the queue, and the bus."""

from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import (
    DeviceComplete,
    EventBus,
    EventQueue,
    JobStart,
    SimEvent,
    StepIssue,
    UnhandledEventError,
)


@dataclass(eq=False)
class Ping(SimEvent):
    tag: str = ""


@dataclass(eq=False)
class Pong(SimEvent):
    tag: str = ""


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(5.0, Ping("b"))
        queue.push(1.0, Ping("a"))
        queue.push(3.0, Ping("c"))
        assert [queue.pop().tag for __ in range(3)] == ["a", "c", "b"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        queue.push(1.0, Ping("first"))
        queue.push(1.0, Ping("second"))
        assert queue.pop().tag == "first"
        assert queue.pop().tag == "second"

    def test_clock_advances_on_pop(self):
        queue = EventQueue()
        queue.push(7.5, Ping())
        queue.pop()
        assert queue.now_ms == 7.5

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.push(5.0, Ping())
        queue.pop()
        with pytest.raises(ValueError):
            queue.push(4.0, Ping())

    def test_cannot_schedule_at_non_finite_time(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(float("inf"), Ping())
        with pytest.raises(ValueError):
            queue.push(float("nan"), Ping())

    def test_peek_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(2.0, Ping())
        assert len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestPending:
    def test_pending_is_in_firing_order(self):
        queue = EventQueue()
        queue.push(9.0, Ping("late"))
        queue.push(2.0, Pong("early"))
        queue.push(2.0, Ping("early-tie"))
        tags = [event.tag for event in queue.pending()]
        assert tags == ["early", "early-tie", "late"]

    def test_pending_filters_by_kind(self):
        queue = EventQueue()
        queue.push(1.0, Ping("p"))
        queue.push(2.0, Pong("q"))
        queue.push(3.0, Ping("r"))
        assert [e.tag for e in queue.pending(Ping)] == ["p", "r"]
        assert [e.tag for e in queue.pending((Ping, Pong))] == ["p", "q", "r"]
        assert list(queue.pending(DeviceComplete)) == []

    def test_pending_does_not_pop(self):
        queue = EventQueue()
        queue.push(1.0, Ping())
        list(queue.pending())
        assert len(queue) == 1

    def test_pending_sees_engine_event_kinds(self):
        queue = EventQueue()
        queue.push(1.0, JobStart(job=None, device="disk0"))
        queue.push(2.0, StepIssue(job=None, index=0, device="disk0"))
        queue.push(3.0, DeviceComplete(device="disk0"))
        kinds = (JobStart, StepIssue, DeviceComplete)
        assert len(list(queue.pending(kinds))) == 3


class TestEventBus:
    def test_dispatch_routes_by_exact_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(Ping, lambda e: seen.append(("ping", e.tag)))
        bus.subscribe(Pong, lambda e: seen.append(("pong", e.tag)))
        bus.dispatch(Ping("a"))
        bus.dispatch(Pong("b"))
        assert seen == [("ping", "a"), ("pong", "b")]

    def test_multiple_handlers_fire_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(Ping, lambda e: order.append(1))
        bus.subscribe(Ping, lambda e: order.append(2))
        bus.dispatch(Ping())
        assert order == [1, 2]

    def test_unhandled_event_raises(self):
        bus = EventBus()
        bus.subscribe(Ping, lambda e: None)
        with pytest.raises(UnhandledEventError):
            bus.dispatch(Pong())

    def test_handles(self):
        bus = EventBus()
        assert not bus.handles(Ping)
        bus.subscribe(Ping, lambda e: None)
        assert bus.handles(Ping)


@given(
    times=st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
def test_events_always_pop_in_nondecreasing_time(times):
    queue = EventQueue()
    for t in times:
        queue.push(t, Ping())
    popped = []
    for __ in range(len(times)):
        queue.pop()
        popped.append(queue.now_ms)
    assert popped == sorted(times)
