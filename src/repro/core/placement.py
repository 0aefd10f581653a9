"""Placement policies for the reserved region (Section 4.2, Figure 3).

Given the hot block list and the reserved area's cylinders, a policy
decides which reserved-area physical block each hot block is copied to:

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
from .hotlist import HotBlockList

CLOSE_FREQUENCY_RATIO = 0.5
"""Y is a successor of X only if count(Y) >= 0.5 * count(X) (Section 4.2)."""


@dataclass(frozen=True)
class Placement:
    """One planned copy: a hot block and its reserved-area destination."""

    logical_block: int
    reserved_block: int
    rank: int  # position in the hot block list (0 = hottest)


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
    """Interface: map a hot block list onto the reserved layout."""

    name: str = "abstract"

    @abstractmethod
    def place(
        self, hot_list: HotBlockList, layout: ReservedLayout
    ) -> list[Placement]:
        """Plan the copies.  ``hot_list`` must already be truncated to the
        number of blocks to rearrange; policies place every entry that
        fits (and silently drop overflow beyond the area's capacity)."""


class OrganPipePlacement(PlacementPolicy):
    """Hottest blocks to the center cylinder, alternating outward."""

    name = "organ-pipe"

    def place(
        self, hot_list: HotBlockList, layout: ReservedLayout
    ) -> list[Placement]:
        return [
            Placement(logical_block=entry.block, reserved_block=slot, rank=rank)
            for rank, (entry, slot) in enumerate(
                zip(hot_list, layout.center_out_slots())
            )
        ]


class SerialPlacement(PlacementPolicy):
    """Selected blocks placed in ascending original-block-number order."""

    name = "serial"

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
        """The file-successor guess of Section 4.2: the block one interleave
        gap later whose frequency is close to this block's."""
        candidate = block + self.gap_blocks
        if candidate not in unplaced:
            return None
        if counts[candidate] < CLOSE_FREQUENCY_RATIO * counts[block]:
            return None
        return candidate


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
