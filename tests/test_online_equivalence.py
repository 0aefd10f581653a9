"""Online migration decisions against a full-scan reference.

:class:`~repro.core.online.IncrementalArranger` decides, in every idle
window, which misplaced hot block to move into which reserved slot, or
that no candidate passes the throttle (a skip) or the budget (a
deferral).  The reference below is that decision made the simplest way:
every window copies the table's occupied reserved slots, rescans the
organ-pipe slot order, ranks the analyzer's whole count table and walks
the ranking.  This harness drives an arranger and the reference side by
side, on two identical rigs fed one analyzer, through random
interleavings of request-table polls (under the exact unbounded, exact
bounded and Space-Saving counters), ``hot_blocks(16)`` queries,
committed, cancelled and failed moves, block-table removals, clears,
crashes with recovery, and analyzer resets.  After every step both must
have started the same move (block, slot and cost) or reached the same
skip or deferral, and hold equal :class:`MigrationStats`, budgets and
tables.

CI runs extra pinned seeds; a failure reproduces with
``GEN_STRESS_SEED=<n>``.
"""

from __future__ import annotations

import os
import random
from types import SimpleNamespace

import pytest

from repro.core.analyzer import ReferenceStreamAnalyzer
from repro.core.online import IncrementalArranger, _ActiveMove
from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.ioctl import IoctlInterface
from repro.policy import OnlinePolicy

STRESS_SEEDS = [2, 7, 19]
if os.environ.get("GEN_STRESS_SEED"):
    STRESS_SEEDS.append(int(os.environ["GEN_STRESS_SEED"]))

COUNTERS = {
    "exact": dict(),
    "exact-bounded-space-saving": dict(capacity=40, heuristic="space-saving"),
    "exact-bounded-evict-min": dict(capacity=40, heuristic="evict-min"),
    "spacesaving": dict(counter="spacesaving", capacity=40),
}

POLICIES = {
    # An ample budget moves a block in most windows, the default duty
    # cycle defers every few moves, a starved one defers every move.  A
    # ratio of 0 approves every block that gains anything; 1e9 skips
    # every candidate.
    f"{budget}-ratio{ratio:g}": OnlinePolicy(
        duty_cycle=duty, min_benefit_ratio=ratio
    )
    for budget, duty, ratios in (
        ("ample", 1.0, (0.0, 1.0, 1e9)),
        ("tight", 0.05, (0.0, 1.0)),
        ("starved", 1e-6, (1.0,)),
    )
    for ratio in ratios
}


# ----------------------------------------------------------------------
# The reference: a full scan of the slots and the ranking in every window
# ----------------------------------------------------------------------


def reference_hot_blocks(analyzer, n):
    """The whole count table, sorted by decreasing count, ties by block."""
    sketch = analyzer._sketch
    counts = analyzer._counts if sketch is None else dict(sketch.items())
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:n]


class ReferenceArranger(IncrementalArranger):
    """The arranger with every window decided from scratch."""

    def _next_free_slot(self):
        occupied = self.driver.block_table.occupied_reserved_blocks()
        for slot in self._layout.center_out_slots():
            if slot not in occupied:
                return slot
        return None

    def _start_next_move(self, now_ms):
        if self._moves_left <= 0:
            return
        if self.driver.busy or self.driver.queue:
            return
        slot = self._next_free_slot()
        if slot is None:
            return
        table = self.driver.block_table
        ratio = self.policy.min_benefit_ratio
        saw_candidate = False
        for block, count in reference_hot_blocks(
            self.analyzer, self._proposal_limit
        ):
            physical = self._label.virtual_to_physical_block(block)
            if table.reserved_of(physical) >= 0:
                continue
            saw_candidate = True
            cost = self.projected_cost_ms(physical, slot)
            if self.projected_benefit_ms(count, physical, slot) < ratio * cost:
                continue
            if cost > self._budget_ms:
                self.stats.moves_deferred += 1
                return
            self._budget_ms -= cost
            self._move = _ActiveMove(
                logical_block=block,
                physical_block=physical,
                reserved_block=slot,
                start_seq=self.detector.activity_seq,
                steps=(
                    (physical, True),
                    (slot, False),
                    *((tb, False) for tb in self._table_blocks),
                ),
            )
            self._issue_step(now_ms)
            return
        if saw_candidate:
            self.stats.moves_skipped += 1


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------


def make_arranger(cls, analyzer, policy, reserved_cylinders):
    """An arranger on its own Toshiba rig.  Its steps are completed by
    the harness instead of a simulation, and a stub detector stands in
    for foreground arrivals."""
    label = DiskLabel(
        TOSHIBA_MK156F.geometry, reserved_cylinders=reserved_cylinders
    )
    driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
    arranger = cls(IoctlInterface(driver), analyzer, policy)
    arranger.detector = SimpleNamespace(activity_seq=0)
    arranger._issue_step = lambda now_ms: None
    return arranger


def state(arranger):
    move = arranger._move
    table = arranger.driver.block_table
    return (
        None
        if move is None
        else (move.logical_block, move.physical_block, move.reserved_block),
        arranger.stats.payload(),
        arranger._budget_ms,
        arranger._moves_left,
        table.entries(),
        table.disk_copy(),
    )


def poll_batch(rng, hot, virtual_blocks):
    """One request-table poll: a mix of a small hot set (ties are common)
    and blocks anywhere on the virtual disk, alone and in runs of three
    consecutive blocks."""
    size = rng.choice((3, 20, 60, 1100))
    blocks = []
    for __ in range(size):
        first = (
            rng.choice(hot)
            if rng.random() < 0.7
            else rng.randrange(virtual_blocks - 3)
        )
        blocks += range(first, first + rng.choice((1, 1, 1, 3)))
    return blocks


def finish_move(pair, rng, now_ms):
    """End the in-flight move on both rigs: committed, cancelled by a
    foreground arrival, failed at its first I/O, or lost to a crash."""
    outcome = rng.random()
    steps = len(pair[0]._move.steps)
    for arranger in pair:
        if outcome < 0.05:
            arranger.driver.crash(now_ms)
            arranger.driver.recover(now_ms)
            arranger._on_crash(None)
        elif outcome < 0.1:
            arranger._on_step_complete(
                SimpleNamespace(service_ms=0.0, failed=True), now_ms
            )
        else:
            if outcome < 0.25:
                arranger.detector.activity_seq += 1
            for __ in range(steps):
                arranger._on_step_complete(
                    SimpleNamespace(service_ms=1.0, failed=False), now_ms
                )


@pytest.mark.parametrize("seed", STRESS_SEEDS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("counter", sorted(COUNTERS))
def test_windows_match_the_full_scan_reference(counter, policy, seed):
    rng = random.Random(f"{counter}/{policy}/{seed}")
    analyzer = ReferenceStreamAnalyzer(**COUNTERS[counter])
    reserved_cylinders = rng.choice((1, 2, 48))  # 1: the area fills up
    real = make_arranger(
        IncrementalArranger, analyzer, POLICIES[policy], reserved_cylinders
    )
    reference = make_arranger(
        ReferenceArranger, analyzer, POLICIES[policy], reserved_cylinders
    )
    pair = (real, reference)
    virtual_blocks = real._label.virtual_total_blocks
    hot = [rng.randrange(virtual_blocks - 3) for __ in range(24)]
    now_ms = 0.0
    for step in range(200):
        # Now and then a long quiet gap: it refills a tight budget, so a
        # deferred verdict is acted on, and caps an ample one.
        now_ms += rng.expovariate(1 / 400.0) if rng.random() < 0.9 else 2e4
        action = rng.random()
        if action < 0.3:
            analyzer.observe_blocks(poll_batch(rng, hot, virtual_blocks))
        elif action < 0.4:
            assert analyzer.hot_blocks(16) == reference_hot_blocks(
                analyzer, 16
            ), step
        elif action < 0.48:
            kind = rng.choice(("remove", "remove", "clear", "crash"))
            placed = real.driver.block_table.entries()
            victims = [rng.choice(placed).original_block] if placed else []
            flush = rng.random() < 0.5
            for arranger in pair:
                driver = arranger.driver
                if kind == "crash":
                    driver.crash(now_ms)
                    driver.recover(now_ms)
                    arranger._on_crash(None)
                    continue
                if kind == "clear":
                    driver.block_table.clear()
                for victim in victims if kind == "remove" else ():
                    driver.block_table.remove(victim)
                if flush:
                    driver.block_table.write_to_disk()
        elif action < 0.5:
            analyzer.reset()
        else:
            for arranger in pair:
                arranger.window_opened(now_ms)
            assert state(real) == state(reference), step
            while real._move is not None:
                finish_move(pair, rng, now_ms)
                assert state(real) == state(reference), step
        assert state(real) == state(reference), step
    stats = real.stats
    assert stats.windows > 50
    if policy.startswith("ample") and not policy.endswith("1e+09"):
        assert stats.moves_completed > 0


def test_a_removal_behind_an_open_hole_changes_the_verdict():
    """The block table can change without moving the first free slot:
    with slot 0 open, removing the block in slot 1 makes it a candidate
    again.  The deferred verdict taken before must not be reused."""
    analyzer = ReferenceStreamAnalyzer()
    pair = [
        make_arranger(cls, analyzer, OnlinePolicy(duty_cycle=1.0), 48)
        for cls in (IncrementalArranger, ReferenceArranger)
    ]
    label = pair[0]._label
    slots = list(pair[0]._layout.center_out_slots())
    cool, hot = 5, 16_000  # both far from the reserved center
    analyzer.observe_blocks([cool] * 10 + [hot] * 20)
    for arranger in pair:
        table = arranger.driver.block_table
        table.add(label.virtual_to_physical_block(hot), slots[1])
        arranger.window_opened(0.0)  # no budget yet: defers the cool block
        assert arranger.stats.moves_deferred == 1
        table.remove(label.virtual_to_physical_block(hot))
        arranger.window_opened(1e4)
    assert state(pair[0]) == state(pair[1])
    assert pair[0]._move.logical_block == hot
