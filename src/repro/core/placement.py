"""Placement policies for the reserved region (Section 4.2, Figure 3).

A policy takes the analyzer's ranked hot list — ``(logical block,
count)`` pairs by decreasing count, ties by block number, exactly as
:meth:`~repro.core.analyzer.ReferenceStreamAnalyzer.hot_blocks` returns
them — and the reserved area's cylinders, and returns the nightly moves:
``(logical block, reserved block)`` pairs in the order the arranger
copies them in.

* **Organ-pipe** — the hottest blocks fill the *center* cylinder of the
  reserved area; the next hottest fill one adjacent cylinder, then the
  other, alternating outward, so the cylinder reference distribution forms
  an organ pipe.

* **Interleaved** — like organ-pipe in cylinder fill order, but tries to
  preserve the file system's rotational interleaving: if block Y lies the
  interleave gap after block X on the original disk and Y's estimated
  frequency is "close" to X's (at least 50 %, the paper's arbitrary
  choice), Y is deemed X's file successor and is placed the same gap after
  X inside the reserved cylinder.  Chains of successors are followed until
  a successor cannot be placed or does not exist.

* **Serial** — frequency decides *which* blocks move, but placement is
  simply ascending original-block-number order across the reserved area.
  The paper's control policy showing that placement (not just relocation)
  matters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from ..disk.label import BLOCK_TABLE_BLOCKS, DiskLabel

CLOSE_FREQUENCY_RATIO = 0.5
"""Y is a successor of X only if count(Y) >= 0.5 * count(X) (Section 4.2)."""


@dataclass(frozen=True)
class ReservedCylinder:
    """One reserved cylinder's usable data blocks, in layout order."""

    cylinder: int
    blocks: range


@dataclass(frozen=True)
class ReservedLayout:
    """The reserved area, cylinder by cylinder, in disk order.

    Every cylinder's blocks are a ``range`` (one contiguous run), so a
    layout is one small object per reserved cylinder and holds no block
    list: each device builds its own cheaply, and nothing in it can
    change once built.
    """

    cylinders: tuple[ReservedCylinder, ...]

    @classmethod
    def from_label(cls, label: DiskLabel) -> "ReservedLayout":
        """Group the label's reserved data blocks by cylinder.

        Blocks are laid out cylinder-major, so each reserved cylinder's
        data blocks are one contiguous run; the first cylinders also host
        the on-disk block-table copy, which is carved off the front.
        """
        if not label.is_rearranged:
            raise ValueError("disk has no reserved area")
        per_cylinder = label.geometry.blocks_per_cylinder
        assert label.reserved_start_cylinder is not None
        cylinders: list[ReservedCylinder] = []
        table_blocks = BLOCK_TABLE_BLOCKS
        for cyl in range(
            label.reserved_start_cylinder, label.reserved_end_cylinder
        ):
            first = cyl * per_cylinder
            skip = min(table_blocks, per_cylinder)
            table_blocks -= skip
            if skip < per_cylinder:
                cylinders.append(
                    ReservedCylinder(
                        cylinder=cyl,
                        blocks=range(first + skip, first + per_cylinder),
                    )
                )
        return cls(tuple(cylinders))

    @property
    def capacity(self) -> int:
        return sum(len(c.blocks) for c in self.cylinders)

    def center_out_indices(self) -> list[int]:
        """Cylinder indices in organ-pipe fill order: center, then
        alternating adjacent cylinders outward."""
        n = len(self.cylinders)
        center = n // 2
        order = [center]
        for step in range(1, n):
            if center + step < n:
                order.append(center + step)
            if center - step >= 0:
                order.append(center - step)
        return order[:n]

    def blocks_in_ascending_order(self) -> list[int]:
        blocks: list[int] = []
        for cylinder in self.cylinders:
            blocks.extend(cylinder.blocks)
        return sorted(blocks)

    def center_out_slots(self) -> Iterator[int]:
        """All reserved blocks in organ-pipe fill order, produced on
        demand: a plan or a free-slot search takes only the slots it
        reaches."""
        cylinders = self.cylinders
        return chain.from_iterable(
            cylinders[index].blocks for index in self.center_out_indices()
        )


class PlacementPolicy(ABC):
    """Interface: map a ranked hot list onto the reserved layout."""

    name: str = "abstract"

    @abstractmethod
    def place(
        self, ranked: list[tuple[int, int]], layout: ReservedLayout
    ) -> list[tuple[int, int]]:
        """Plan the copies as ``(logical block, reserved block)`` moves,
        in copy order.  ``ranked`` is the hot list as
        :meth:`~repro.core.analyzer.ReferenceStreamAnalyzer.hot_blocks`
        returns it, already truncated to the number of blocks to
        rearrange; policies place every entry that fits (and silently
        drop overflow beyond the area's capacity)."""


class OrganPipePlacement(PlacementPolicy):
    """Hottest blocks to the center cylinder, alternating outward."""

    name = "organ-pipe"

    def place(
        self, ranked: list[tuple[int, int]], layout: ReservedLayout
    ) -> list[tuple[int, int]]:
        return [
            (block, slot)
            for (block, __), slot in zip(ranked, layout.center_out_slots())
        ]


class SerialPlacement(PlacementPolicy):
    """Selected blocks placed in ascending original-block-number order."""

    name = "serial"

    def place(
        self, ranked: list[tuple[int, int]], layout: ReservedLayout
    ) -> list[tuple[int, int]]:
        slots = layout.blocks_in_ascending_order()
        chosen = sorted(block for block, __ in ranked[: len(slots)])
        return list(zip(chosen, slots))


class InterleavedPlacement(PlacementPolicy):
    """Organ-pipe fill order, preserving file-successor interleave gaps."""

    name = "interleaved"

    def __init__(self, gap_blocks: int = 2) -> None:
        """``gap_blocks`` is the original-layout block-number distance
        between a block and its file successor: the file system's
        rotational interleave plus one (FFS ``rotdelay`` of one block gives
        a gap of 2 block numbers)."""
        if gap_blocks < 1:
            raise ValueError("gap_blocks must be at least 1")
        self.gap_blocks = gap_blocks

    def place(
        self, ranked: list[tuple[int, int]], layout: ReservedLayout
    ) -> list[tuple[int, int]]:
        """Each chain starts at the hottest unplaced block, which is the
        first unplaced one in ranked order: a cursor into ``ranked``
        finds it, so the whole plan is linear in the list."""
        counts = dict(ranked)
        gap = self.gap_blocks
        placed: set[int] = set()
        moves: list[tuple[int, int]] = []
        head = 0  # ranked[:head] are all placed

        for cylinder_index in layout.center_out_indices():
            blocks = layout.cylinders[cylinder_index].blocks
            free = [True] * len(blocks)
            for cursor in range(len(free)):
                if not free[cursor]:
                    continue
                while head < len(ranked) and ranked[head][0] in placed:
                    head += 1
                if head == len(ranked):
                    return moves
                block = ranked[head][0]
                slot = cursor
                while slot < len(free) and free[slot]:
                    moves.append((block, blocks[slot]))
                    free[slot] = False
                    placed.add(block)
                    # The file-successor guess of Section 4.2: the block
                    # one interleave gap later whose frequency is close
                    # to this block's.
                    successor = block + gap
                    if (
                        successor not in counts
                        or successor in placed
                        or counts[successor]
                        < CLOSE_FREQUENCY_RATIO * counts[block]
                    ):
                        break
                    block = successor
                    slot += gap
        return moves


PLACEMENT_POLICIES: dict[str, type[PlacementPolicy]] = {
    OrganPipePlacement.name: OrganPipePlacement,
    InterleavedPlacement.name: InterleavedPlacement,
    SerialPlacement.name: SerialPlacement,
}


def make_policy(name: str) -> PlacementPolicy:
    """Instantiate a placement policy by name."""
    try:
        return PLACEMENT_POLICIES[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(PLACEMENT_POLICIES))
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None
