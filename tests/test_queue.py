"""Tests for repro.driver.queue — head-scheduling policies."""

import pytest
from hypothesis import given, strategies as st

from repro.driver.queue import (
    CScanQueue,
    FCFSQueue,
    QUEUE_POLICIES,
    SSTFQueue,
    ScanQueue,
    make_queue,
)
from repro.driver.request import read_request


def push_all(queue, cylinders):
    requests = []
    for i, cylinder in enumerate(cylinders):
        request = read_request(logical_block=i, arrival_ms=float(i))
        queue.push(request, cylinder)
        requests.append(request)
    return requests


def drain(queue, head):
    order = []
    while queue:
        request = queue.pop(head)
        order.append(request.logical_block)
    return order


class TestFCFS:
    def test_arrival_order(self):
        queue = FCFSQueue()
        push_all(queue, [500, 10, 300])
        assert drain(queue, head=0) == [0, 1, 2]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FCFSQueue().pop(0)

    def test_len_and_bool(self):
        queue = FCFSQueue()
        assert not queue
        push_all(queue, [5])
        assert queue and len(queue) == 1


class TestScan:
    def test_sweeps_upward_first(self):
        queue = ScanQueue()
        push_all(queue, [300, 100, 200])
        # Head at 150 moving up: 200, 300, then reverse to 100.
        assert drain(queue, head=150) == [2, 0, 1]

    def test_reverses_at_top(self):
        queue = ScanQueue()
        push_all(queue, [100, 50])
        assert drain(queue, head=200) == [0, 1]  # nothing above: flip down

    def test_same_cylinder_served_in_arrival_order(self):
        queue = ScanQueue()
        push_all(queue, [100, 100, 100])
        assert drain(queue, head=100) == [0, 1, 2]

    def test_request_at_head_cylinder_served_on_upsweep(self):
        queue = ScanQueue()
        push_all(queue, [100])
        assert queue.pop(100).logical_block == 0

    def test_direction_persists_between_pops(self):
        queue = ScanQueue()
        push_all(queue, [100, 300])
        first = queue.pop(200)  # up: cylinder 300
        assert first.logical_block == 1
        late = read_request(logical_block=99, arrival_ms=5.0)
        queue.push(late, 250)
        # Head now at 300 moving up; nothing above, so reverse: 250 then 100.
        assert drain(queue, head=300) == [99, 0]

    def test_descending_start(self):
        queue = ScanQueue(ascending=False)
        push_all(queue, [100, 300])
        assert queue.pop(200).logical_block == 0  # going down: 100


class TestCScan:
    def test_wraps_to_lowest(self):
        queue = CScanQueue()
        push_all(queue, [100, 300])
        assert queue.pop(200).logical_block == 1  # 300 first
        assert queue.pop(300).logical_block == 0  # wrap to 100


class TestSSTF:
    def test_picks_nearest(self):
        queue = SSTFQueue()
        push_all(queue, [100, 180])
        assert queue.pop(150).logical_block == 1  # 180 is 30 away, 100 is 50

    def test_exact_match_preferred(self):
        queue = SSTFQueue()
        push_all(queue, [100, 101])
        assert queue.pop(100).logical_block == 0

    def test_single_request(self):
        queue = SSTFQueue()
        push_all(queue, [700])
        assert queue.pop(0).logical_block == 0


#: The textbook scheduling exercise (as in the ODSA disk-scheduling
#: comparison): the head rests on cylinder 53 and all eight requests are
#: queued before the first pop.
TEXTBOOK_HEAD = 53
TEXTBOOK_CYLINDERS = [98, 183, 37, 122, 14, 124, 65, 67]


def head_movement(queue, head, cylinders):
    """Total cylinders the head travels draining ``cylinders`` from
    ``head``, every request queued before the first pop."""
    requests = push_all(queue, cylinders)
    target = {id(request): c for request, c in zip(requests, cylinders)}
    travelled = 0
    while queue:
        cylinder = target[id(queue.pop(head))]
        travelled += abs(cylinder - head)
        head = cylinder
    return travelled


class TestHeadMovementOracle:
    """Hand-computed total head movement for each policy on the textbook
    sequence: an independent check of pop order, not a comparison of the
    queue with another copy of itself."""

    def test_fcfs(self):
        """Arrival order 53→98→183→37→122→14→124→65→67:
        45 + 85 + 146 + 85 + 108 + 110 + 59 + 2 = 640."""
        movement = head_movement(FCFSQueue(), TEXTBOOK_HEAD, TEXTBOOK_CYLINDERS)
        assert movement == 640

    def test_sstf(self):
        """Nearest first 53→65→67→37→14→98→122→124→183 (from 67, 37 is 30
        away and 98 is 31): 12 + 2 + 30 + 23 + 84 + 24 + 2 + 59 = 236."""
        movement = head_movement(SSTFQueue(), TEXTBOOK_HEAD, TEXTBOOK_CYLINDERS)
        assert movement == 236

    def test_scan(self):
        """Upward first, reversing at the last pending request:
        53→65→67→98→122→124→183 is 183 − 53 = 130, then down 183→37→14 is
        146 + 23 = 169; 130 + 169 = 299."""
        movement = head_movement(ScanQueue(), TEXTBOOK_HEAD, TEXTBOOK_CYLINDERS)
        assert movement == 299

    def test_cscan(self):
        """Upward only: 53→…→183 is 130, the return seek to the lowest
        pending request 183→14 is 169, then 14→37 is 23;
        130 + 169 + 23 = 322."""
        movement = head_movement(CScanQueue(), TEXTBOOK_HEAD, TEXTBOOK_CYLINDERS)
        assert movement == 322


class TestRegistry:
    def test_make_queue(self):
        for name in ("fcfs", "scan", "cscan", "sstf"):
            assert make_queue(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_queue("elevator9000")

    def test_policy_registry(self):
        assert set(QUEUE_POLICIES) == {"fcfs", "scan", "cscan", "sstf"}


@pytest.mark.parametrize("policy", ["fcfs", "scan", "cscan", "sstf"])
@given(
    cylinders=st.lists(
        st.integers(min_value=0, max_value=814), min_size=1, max_size=40
    ),
    head=st.integers(min_value=0, max_value=814),
)
def test_every_pushed_request_is_popped_exactly_once(policy, cylinders, head):
    """No policy loses or duplicates requests (work conservation)."""
    queue = make_queue(policy)
    requests = push_all(queue, cylinders)
    seen = drain(queue, head)
    assert sorted(seen) == sorted(r.logical_block for r in requests)


@given(
    cylinders=st.lists(
        st.integers(min_value=0, max_value=814), min_size=2, max_size=40
    ),
    head=st.integers(min_value=0, max_value=814),
)
def test_scan_total_movement_bounded_by_two_sweeps(cylinders, head):
    """The elevator never travels more than ~2 full strokes for a static
    batch of requests."""
    queue = ScanQueue()
    push_all(queue, cylinders)
    position = head
    travelled = 0
    while queue:
        request = queue.pop(position)
        # Reconstruct target cylinder from the pushed order.
        target = cylinders[request.logical_block]
        travelled += abs(target - position)
        position = target
    assert travelled <= 2 * 815
