"""Nightly plans against the value-type pipeline they replaced.

A nightly plan is the sequence of ``(logical block, reserved block)``
copies the arranger issues as ``DKIOCBCOPY`` calls, in order.  The
plan used to be built through three value types: the analyzer's ranked
pairs became a ``HotBlockList`` of ``HotBlock`` entries, each policy
turned that into ``Placement`` records, and the arranger packed those
into a ``RearrangementPlan``.  That code lives on below, verbatim, as
the reference.  The tests feed the same random hot lists to both and
compare the move sequences for the organ-pipe, serial and interleaved
policies on the three preset reserved areas (Toshiba 48, Fujitsu 80 and
modern 64 cylinders): heavy count ties, block spans dense enough that
interleave successors exist, lists longer than the area holds, and the
empty list.  The new side always ranks through
:meth:`~repro.core.analyzer.ReferenceStreamAnalyzer.hot_blocks`; the
reference gets the same pairs shuffled and sorts them itself.

The reference interleaved placement is quadratic in the list length, so
its lists stay short of the Fujitsu and modern capacities; the Toshiba
area takes every policy past its capacity.

CI runs extra pinned seeds; a failure reproduces with
``GEN_STRESS_SEED=<n>``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.core.analyzer import ReferenceStreamAnalyzer
from repro.core.arranger import BlockArranger
from repro.core.placement import (
    CLOSE_FREQUENCY_RATIO,
    InterleavedPlacement,
    OrganPipePlacement,
    ReservedLayout,
    SerialPlacement,
)
from repro.disk.label import DiskLabel
from repro.disk.models import disk_model

STRESS_SEEDS = [4, 13]
if os.environ.get("GEN_STRESS_SEED"):
    STRESS_SEEDS.append(int(os.environ["GEN_STRESS_SEED"]))


# ----------------------------------------------------------------------
# Reference: the hot list, placement and plan value types, verbatim
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HotBlock:
    """One entry of the hot block list."""

    block: int  # logical (virtual-disk) block number
    count: int  # estimated reference count

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("reference count must be non-negative")


@dataclass(frozen=True)
class HotBlockList:
    """Blocks ordered by decreasing estimated reference frequency."""

    entries: tuple[HotBlock, ...]

    @classmethod
    def from_pairs(cls, pairs: list[tuple[int, int]]) -> "HotBlockList":
        """Build from (block, count) pairs, enforcing the ranking order."""
        ordered = sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
        return cls(tuple(HotBlock(block, count) for block, count in ordered))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> HotBlock:
        return self.entries[index]

    def top(self, n: int) -> "HotBlockList":
        """The ``n`` hottest blocks."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return HotBlockList(self.entries[:n])


@dataclass(frozen=True)
class Placement:
    """One planned copy: a hot block and its reserved-area destination."""

    logical_block: int
    reserved_block: int
    rank: int  # position in the hot block list (0 = hottest)


class ReferenceOrganPipe:
    def place(
        self, hot_list: HotBlockList, layout: ReservedLayout
    ) -> list[Placement]:
        return [
            Placement(logical_block=entry.block, reserved_block=slot, rank=rank)
            for rank, (entry, slot) in enumerate(
                zip(hot_list, layout.center_out_slots())
            )
        ]


class ReferenceSerial:
    def place(
        self, hot_list: HotBlockList, layout: ReservedLayout
    ) -> list[Placement]:
        slots = layout.blocks_in_ascending_order()
        chosen = list(hot_list)[: len(slots)]
        rank_of = {entry.block: rank for rank, entry in enumerate(hot_list)}
        ordered = sorted(chosen, key=lambda entry: entry.block)
        return [
            Placement(
                logical_block=entry.block,
                reserved_block=slot,
                rank=rank_of[entry.block],
            )
            for entry, slot in zip(ordered, slots)
        ]


class ReferenceInterleaved:
    def __init__(self, gap_blocks: int = 2) -> None:
        if gap_blocks < 1:
            raise ValueError("gap_blocks must be at least 1")
        self.gap_blocks = gap_blocks

    def place(
        self, hot_list: HotBlockList, layout: ReservedLayout
    ) -> list[Placement]:
        counts = {entry.block: entry.count for entry in hot_list}
        rank_of = {entry.block: rank for rank, entry in enumerate(hot_list)}
        unplaced = dict(counts)  # insertion order == hot order
        placements: list[Placement] = []

        cylinder_order = layout.center_out_indices()
        for cylinder_index in cylinder_order:
            cylinder = layout.cylinders[cylinder_index]
            free = [True] * len(cylinder.blocks)
            cursor = 0
            while unplaced and cursor < len(free):
                if not free[cursor]:
                    cursor += 1
                    continue
                chain_head = self._hottest(unplaced)
                slot = cursor
                block = chain_head
                while block is not None and slot < len(free) and free[slot]:
                    placements.append(
                        Placement(
                            logical_block=block,
                            reserved_block=cylinder.blocks[slot],
                            rank=rank_of[block],
                        )
                    )
                    free[slot] = False
                    del unplaced[block]
                    block = self._successor(block, counts, unplaced)
                    slot += self.gap_blocks
            if not unplaced:
                break
        return placements

    @staticmethod
    def _hottest(unplaced: dict[int, int]) -> int:
        return max(unplaced, key=lambda b: (unplaced[b], -b))

    def _successor(
        self,
        block: int,
        counts: dict[int, int],
        unplaced: dict[int, int],
    ) -> int | None:
        candidate = block + self.gap_blocks
        if candidate not in unplaced:
            return None
        if counts[candidate] < CLOSE_FREQUENCY_RATIO * counts[block]:
            return None
        return candidate


def reference_plan(policy, pairs, num_blocks, layout) -> list[tuple[int, int]]:
    """``BlockArranger.plan`` as it was: rank, take the top, place."""
    hot_list = HotBlockList.from_pairs(pairs)
    selected = hot_list.top(min(num_blocks, layout.capacity))
    return [
        (placement.logical_block, placement.reserved_block)
        for placement in policy.place(selected, layout)
    ]


# ----------------------------------------------------------------------
# The code under test
# ----------------------------------------------------------------------


def moves_of(policy, ranked, layout) -> list[tuple[int, int]]:
    """The move sequence a policy plans for a ranked hot list."""
    return policy.place(ranked, layout)


def arranger_moves(policy, ranked, num_blocks, label) -> list[tuple[int, int]]:
    """The move sequence :meth:`BlockArranger.plan` returns."""
    ioctl = SimpleNamespace(driver=SimpleNamespace(label=label))
    return BlockArranger(ioctl, policy=policy).plan(ranked, num_blocks)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

LAYOUTS = {"toshiba": 48, "fujitsu": 80, "modern": 64}
"""Preset disk → the paper's (or the modern preset's) reserved cylinders."""

POLICIES = {
    "organ-pipe": (OrganPipePlacement, ReferenceOrganPipe),
    "serial": (SerialPlacement, ReferenceSerial),
    "interleaved": (InterleavedPlacement, ReferenceInterleaved),
}

INTERLEAVED_MAX = {"toshiba": None, "fujitsu": 1200, "modern": 1200}
"""Longest list the quadratic reference interleaves per layout."""


def _label(disk: str) -> DiskLabel:
    return DiskLabel(disk_model(disk).geometry, reserved_cylinders=LAYOUTS[disk])


def _options(rng: random.Random, policy_name: str) -> dict:
    """The interleave gap, drawn per test (the policy's default is 2)."""
    if policy_name != "interleaved":
        return {}
    return dict(gap_blocks=rng.choice([1, 2, 2, 3]))


def _lengths(disk: str, policy_name: str, capacity: int) -> list[int]:
    lengths = [0, 1, 40, capacity // 2, capacity, capacity + capacity // 4]
    cap = INTERLEAVED_MAX[disk] if policy_name == "interleaved" else None
    if cap is not None:
        lengths = [n for n in lengths if n <= cap] + [cap]
    return lengths


def _hot_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """``n`` distinct blocks with random counts, unranked.

    Half the lists draw counts from a few small values (ties at every
    rank, and most neighbours within the 50% successor ratio), half
    from a wide range.  The block span is at most twice the list, so
    ``block + gap`` is often on the list too.
    """
    span = rng.choice([n + n // 8 + 3, 2 * n + 3, 40 * n + 3])
    start = rng.randrange(0, 1_000_000)
    blocks = rng.sample(range(start, start + span), n)
    if rng.random() < 0.5:
        values = (1, 2, 2, 3, 3, 3, 4, 5, 6, 8)
        return [(block, rng.choice(values)) for block in blocks]
    return [(block, rng.randint(1, 60)) for block in blocks]


def _analyzer_of(pairs) -> ReferenceStreamAnalyzer:
    """An exact analyzer that saw each block ``count`` times."""
    stream: list[int] = []
    for block, count in pairs:
        stream += [block] * count
    analyzer = ReferenceStreamAnalyzer()
    analyzer.observe_blocks(stream)
    return analyzer


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", STRESS_SEEDS)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("disk", sorted(LAYOUTS))
def test_policy_moves_match_reference(disk, policy_name, seed):
    """Every policy places a ranked hot list (possibly longer than the
    area) into the same slots, in the same order, as the reference."""
    new_policy, reference_policy = POLICIES[policy_name]
    layout = ReservedLayout.from_label(_label(disk))
    rng = random.Random(f"{seed}-{disk}-{policy_name}")
    options = _options(rng, policy_name)
    for n in _lengths(disk, policy_name, layout.capacity):
        pairs = _hot_pairs(rng, n)
        ranked = _analyzer_of(pairs).hot_blocks()
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        expected = [
            (placement.logical_block, placement.reserved_block)
            for placement in reference_policy(**options).place(
                HotBlockList.from_pairs(shuffled), layout
            )
        ]
        got = moves_of(new_policy(**options), ranked, layout)
        assert got == expected, (disk, policy_name, n)
        assert len(got) == min(n, layout.capacity)


@pytest.mark.parametrize("seed", STRESS_SEEDS)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("disk", sorted(LAYOUTS))
def test_arranger_plan_matches_reference(disk, policy_name, seed):
    """The arranger's plan from the analyzer's top ``num_blocks``, with
    ``num_blocks`` below, at and above both the list and the capacity,
    is the reference plan from the full ranking."""
    new_policy, reference_policy = POLICIES[policy_name]
    label = _label(disk)
    layout = ReservedLayout.from_label(label)
    rng = random.Random(f"plan-{seed}-{disk}-{policy_name}")
    options = _options(rng, policy_name)
    n = max(_lengths(disk, policy_name, layout.capacity))
    pairs = _hot_pairs(rng, n)
    analyzer = _analyzer_of(pairs)
    for num_blocks in sorted({0, 1, n // 3, n, n + 7, layout.capacity}):
        if (
            policy_name == "interleaved"
            and INTERLEAVED_MAX[disk] is not None
            and min(num_blocks, n) > INTERLEAVED_MAX[disk]
        ):
            continue
        expected = reference_plan(
            reference_policy(**options), pairs, num_blocks, layout
        )
        got = arranger_moves(
            new_policy(**options), analyzer.hot_blocks(num_blocks), num_blocks, label
        )
        assert got == expected, (disk, policy_name, num_blocks)


def test_inputs_exercise_ties_successors_and_overflow():
    """The generated lists hit what the harness claims to cover."""
    rng = random.Random(0)
    ties = successors = 0
    for __ in range(20):
        pairs = _hot_pairs(rng, 300)
        counts = [count for __, count in pairs]
        ties += len(counts) - len(set(counts)) > 100
        held = dict(pairs)
        successors += any(
            block + 2 in held and held[block + 2] >= 0.5 * count
            for block, count in pairs
        )
    assert ties >= 5
    assert successors >= 10
    toshiba = ReservedLayout.from_label(_label("toshiba")).capacity
    assert max(_lengths("toshiba", "interleaved", toshiba)) > toshiba
