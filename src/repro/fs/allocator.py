"""FFS-style block allocation: cylinder groups and rotational interleave.

The paper's layouts are produced by the SunOS UFS file system, which is
"closely related to the Berkeley UNIX Fast File System" (Section 3.1).  The
two FFS behaviours that matter to the experiments are reproduced here:

* **Cylinder groups** — the partition is divided into groups of consecutive
  cylinders; a file's inode and data live in one group when possible, and
  different directories land in different groups.  This spreads hot blocks
  of *different* files widely over the disk (Section 1.1: "hot blocks from
  different files may be spread widely over the disk's surface"), which is
  precisely why rearrangement pays off.

* **Rotational interleave** — "the SunOS UNIX file system ... tries to
  place successive blocks of a file interleaved by gaps" (Section 4.2).
  Successive blocks of a file are placed ``1 + interleave`` block slots
  apart so that, after per-block processing time, the next block arrives
  under the head without a full-rotation wait.  The interleaved placement
  policy of the rearranger exists to preserve exactly this property.

Addresses produced here are *partition-relative* block numbers; the file
system layer (:mod:`repro.fs.ufs`) shifts them by the partition offset.
"""

from __future__ import annotations

import mmap
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

DEFAULT_CYLINDERS_PER_GROUP = 16
DEFAULT_INODE_BLOCKS_PER_GROUP = 2
DEFAULT_INTERLEAVE = 1


class AllocationError(Exception):
    """Raised when the allocator cannot satisfy a request."""


_FREE = b"\x00"


def _zeroed_map(size: int) -> mmap.mmap:
    """``size`` zero bytes in an anonymous memory map that a forked child
    copies on write, as it does ordinary memory."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return mmap.mmap(-1, size)  # Windows: no fork, and the map is private


class FreeMap:
    """Byte-per-block free map for one group's data area.

    Replaces the old ``set[int]`` of free block numbers: membership, add,
    and remove stay O(1), but the footprint is one byte per block instead
    of a hashed ``int`` object — the difference between ~150 MB and ~2 MB
    of allocator state on a two-million-block device.

    The map is a window (first block, size, free count) onto a byte
    buffer in which 0 marks a free block and 1 a used one.
    :class:`FFSAllocator` gives every group a window onto one buffer over
    the whole partition, indexed by partition block number; a map built
    on its own gets a buffer of its own.  A new window is all free.
    """

    __slots__ = ("_bits", "_base", "_lo", "_hi", "count")

    def __init__(
        self,
        first_block: int,
        size: int,
        bits: bytearray | mmap.mmap | None = None,
    ) -> None:
        if bits is None:
            bits = bytearray(size)
            base = first_block
        else:
            base = 0
        self._bits = bits
        self._base = base  # block number of bits[0]
        self._lo = first_block - base
        self._hi = self._lo + size
        self.count = size

    def __contains__(self, block: int) -> bool:
        index = block - self._base
        return self._lo <= index < self._hi and self._bits[index] == 0

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def remove(self, block: int) -> None:
        self._bits[block - self._base] = 1
        self.count -= 1

    def add(self, block: int) -> None:
        self._bits[block - self._base] = 0
        self.count += 1

    def next_free_index(self, start: int, stop: int | None = None) -> int:
        """Index (relative to the map start) of the first free block at or
        after ``start`` (and before ``stop``), or -1 if there is none.

        Runs as a C-level byte search, which is what keeps the forward
        scan of ``allocate_near`` affordable on million-block groups."""
        lo = self._lo
        index = self._bits.find(
            _FREE, lo + start, self._hi if stop is None else lo + stop
        )
        return index - lo if index >= 0 else -1

    def take_run(self, count: int, step: int) -> int:
        """Claim the first free block and the ``count - 1`` slots ``step``
        apart after it, if all of them lie in the window and are free.

        Returns the first block, or -1 having claimed nothing.  These are
        the blocks ``count`` calls of :meth:`CylinderGroup.allocate_near`
        take for a new file: each call finds the slot one rotational gap
        on free, so the per-block scan reduces to one strided slice."""
        if self.count < count:
            return -1
        bits = self._bits
        first = bits.find(_FREE, self._lo, self._hi)
        stop = first + (count - 1) * step + 1
        if stop > self._hi:
            return -1
        run = slice(first, stop, step)
        if 1 in bits[run]:
            return -1
        bits[run] = b"\x01" * count
        self.count -= count
        return first + self._base


class CylinderGroup:
    """One cylinder group: an inode area followed by a data area."""

    __slots__ = (
        "index",
        "first_block",
        "num_blocks",
        "inode_blocks",
        "data_first_block",
        "end_block",
        "free",
    )

    def __init__(
        self,
        index: int,
        first_block: int,
        num_blocks: int,
        inode_blocks: int,
        free: FreeMap | None = None,
    ) -> None:
        if inode_blocks >= num_blocks:
            raise ValueError("inode area must leave room for data blocks")
        self.index = index
        self.first_block = first_block
        self.num_blocks = num_blocks
        self.inode_blocks = inode_blocks
        self.data_first_block = first_block + inode_blocks
        self.end_block = first_block + num_blocks
        if free is None:
            free = FreeMap(self.data_first_block, num_blocks - inode_blocks)
        self.free = free

    def __repr__(self) -> str:
        return (
            f"CylinderGroup(index={self.index}, "
            f"first_block={self.first_block}, num_blocks={self.num_blocks}, "
            f"inode_blocks={self.inode_blocks}, free_count={self.free_count})"
        )

    @property
    def free_count(self) -> int:
        return self.free.count

    def inode_block_numbers(self) -> list[int]:
        return list(range(self.first_block, self.first_block + self.inode_blocks))

    def allocate_near(self, position: int, interleave: int) -> int:
        """Allocate the first free block at or after ``position`` plus the
        rotational gap, scanning forward with wrap-around within the group.

        ``position`` is the previously allocated block (or the start of the
        data area for a file's first block).
        """
        if not self.free:
            raise AllocationError(f"cylinder group {self.index} is full")
        data_first = self.data_first_block
        data_span = self.num_blocks - self.inode_blocks
        start = (position + 1 + interleave - data_first) % data_span
        # First free slot at or after the rotational gap, else wrap around
        # to the start of the data area — the same order the old
        # block-by-block scan probed, found in two C-level byte searches.
        index = self.free.next_free_index(start)
        if index < 0:
            index = self.free.next_free_index(0, start)
        if index < 0:
            raise AllocationError(f"cylinder group {self.index} is full")
        candidate = data_first + index
        self.free.remove(candidate)
        return candidate

    def release(self, block: int) -> None:
        if not self.data_first_block <= block < self.end_block:
            raise ValueError(f"block {block} is not in group {self.index}")
        if block in self.free:
            raise ValueError(f"block {block} is already free")
        self.free.add(block)


@dataclass
class FFSAllocator:
    """Cylinder-group allocator over a partition of ``total_blocks``.

    One free map covers the partition, and every group's :class:`FreeMap`
    is a window onto it; the inode areas and a tail too short to be a
    group lie in no window.  The map is an anonymous private memory map
    rather than a ``bytearray``: a ``bytearray`` is written in full when
    it is made, which commits every page of a two-million-block device,
    while a fresh map reads as zeros (all free) and commits a page only
    when a block on it is first allocated.

    Groups are built on first use (:meth:`group`): a two-million-block
    device has hundreds of them and its files use a few.  A group not
    yet built is all free, which is what it would be if it were.
    """

    total_blocks: int
    blocks_per_cylinder: int
    cylinders_per_group: int = DEFAULT_CYLINDERS_PER_GROUP
    inode_blocks_per_group: int = DEFAULT_INODE_BLOCKS_PER_GROUP
    interleave: int = DEFAULT_INTERLEAVE

    def __post_init__(self) -> None:
        if self.total_blocks <= 0:
            raise ValueError("partition must contain at least one block")
        group_blocks = self.blocks_per_cylinder * self.cylinders_per_group
        inode_blocks = self.inode_blocks_per_group
        if group_blocks <= inode_blocks:
            raise ValueError("cylinder group too small for its inode area")
        full, tail = divmod(self.total_blocks, group_blocks)
        if tail <= inode_blocks:  # a shorter tail is left unallocated
            tail = 0
        if not full and not tail:
            raise ValueError("partition too small for any cylinder group")
        self._bits = _zeroed_map(self.total_blocks)
        self._built: list[CylinderGroup | None] = [None] * (full + bool(tail))
        self._group_blocks = group_blocks
        self._end_block = full * group_blocks + tail

    @property
    def num_groups(self) -> int:
        return len(self._built)

    def group(self, index: int) -> CylinderGroup:
        """Cylinder group ``index`` (``0 <= index < num_groups``)."""
        group = self._built[index]
        if group is None:
            first = index * self._group_blocks
            size = min(self._group_blocks, self._end_block - first)
            inode_blocks = self.inode_blocks_per_group
            window = FreeMap(first + inode_blocks, size - inode_blocks, self._bits)
            group = CylinderGroup(index, first, size, inode_blocks, window)
            self._built[index] = group
        return group

    @property
    def groups(self) -> list[CylinderGroup]:
        """Every cylinder group, in disk order (built now if not yet)."""
        return [self.group(index) for index in range(self.num_groups)]

    def group_of_block(self, block: int) -> CylinderGroup:
        if not 0 <= block < self._end_block:
            raise ValueError(f"block {block} is outside every cylinder group")
        return self.group(block // self._group_blocks)

    def _group_with_space(self, preferred: int, needed: int) -> CylinderGroup:
        """Preferred group if it has room, else the next group that does."""
        order = range(preferred, preferred + self.num_groups)
        for raw_index in order:
            group = self.group(raw_index % self.num_groups)
            if group.free_count >= needed:
                return group
        raise AllocationError("file system is full")

    def allocate_file_blocks(
        self, num_blocks: int, group_hint: int = 0
    ) -> list[int]:
        """Allocate ``num_blocks`` for a new file, interleaved, preferring
        the hinted cylinder group and spilling to later groups when full."""
        blocks = next(self.allocate_files((num_blocks,), group_hint))
        if isinstance(blocks, int):
            step = 1 + self.interleave
            return list(range(blocks, blocks + num_blocks * step, step))
        return blocks

    def allocate_files(
        self, sizes: Iterable[int], group_hint: int = 0
    ) -> Iterator[int | list[int]]:
        """Blocks for new files of ``sizes`` blocks in one directory, each
        file claimed as it is yielded.

        The same blocks, in the same order, as one
        :meth:`allocate_file_blocks` call per file.  A file whose run
        from the head of the hinted group's data area is all free is
        taken with one strided slice (:meth:`FreeMap.take_run`) and
        yielded as its first block: its blocks are every
        ``1 + interleave``-th from there.  Any other walks
        :meth:`CylinderGroup.allocate_near` block by block and is
        yielded as its list of blocks.
        """
        group = self.group(group_hint % self.num_groups)
        take_run = group.free.take_run
        step = 1 + self.interleave
        for size in sizes:
            if size <= 0:
                raise ValueError("num_blocks must be positive")
            first = take_run(size, step)
            yield first if first >= 0 else self._allocate_near_each(
                size, group.index
            )

    def _allocate_near_each(self, num_blocks: int, hint: int) -> list[int]:
        """:meth:`allocate_file_blocks` one ``allocate_near`` at a time."""
        blocks: list[int] = []
        remaining = num_blocks
        position: int | None = None
        while remaining > 0:
            group = self._group_with_space(hint, 1)
            if position is None or not (
                group.data_first_block <= position < group.end_block
            ):
                position = group.data_first_block - 1 - self.interleave
            take = min(remaining, group.free_count)
            for __ in range(take):
                position = group.allocate_near(position, self.interleave)
                blocks.append(position)
            remaining -= take
            hint = (group.index + 1) % self.num_groups
        return blocks

    def extend_file(self, last_block: int, num_blocks: int) -> list[int]:
        """Allocate blocks appended to a file whose tail is ``last_block``."""
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        blocks: list[int] = []
        position = last_block
        group = self.group_of_block(last_block)
        remaining = num_blocks
        while remaining > 0:
            if group.free_count == 0:
                group = self._group_with_space(group.index + 1, 1)
                position = group.data_first_block - 1 - self.interleave
            position = group.allocate_near(position, self.interleave)
            blocks.append(position)
            remaining -= 1
        return blocks

    def release_blocks(self, blocks: list[int]) -> None:
        for block in blocks:
            self.group_of_block(block).release(block)

    @property
    def free_blocks(self) -> int:
        return sum(group.free_count for group in self.groups)
