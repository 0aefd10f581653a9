"""The block table: redirection map for rearranged blocks.

Section 4.1.2: when a block is copied into the reserved space, its old and
new physical addresses are entered into the block table; the strategy
routine consults the table on every request.  A copy of the table is stored
at the beginning of the reserved area for start-up and recovery.  The disk
copy always correctly lists the rearranged blocks and their reserved-area
positions, but its *dirty bits* may be stale — so after a crash every entry
is conservatively marked dirty, ensuring updates to repositioned blocks are
never lost.

This module models both the in-memory table and its on-disk copy; writing
the disk copy is an explicit step (:meth:`BlockTable.write_to_disk`) so the
crash-recovery semantics can be exercised by tests.

:class:`BlockTable` keeps every map in dicts and sets bounded by the
number of *rearranged* blocks (the paper's table lists only those),
never by the size of the disk: the forward map (original physical block
→ reserved block, one ``dict.get`` per request), the reverse map, the
dirty bits, insertion order and the disk-copy shadow.  A table therefore
costs nothing to set up on a multi-million-block device.  The original
dict-of-entries implementation lives on as ``DictBlockTable`` in
``tests/test_blocktable.py``, the executable specification: the
equivalence test there drives both through randomized
add/remove/dirty/flush/crash/recover interleavings and requires
identical observable state after every step.

Because the driver rewrites the on-disk copy after *every* block move, a
full O(entries) snapshot per flush would make the nightly cycle quadratic
in the number of moved blocks.  :class:`BlockTable` instead tracks the
blocks whose state changed since the last flush and folds only those into
the shadow, reproducing the snapshot semantics (including dict insertion
order, which fixes the move-out order after a crash recovery) at
O(changes) per flush.
"""

from __future__ import annotations

from dataclasses import dataclass

_ABSENT = -1


@dataclass
class BlockTableEntry:
    """One rearranged block: original home, reserved-area copy, dirty bit."""

    original_block: int
    reserved_block: int
    dirty: bool = False


class BlockTable:
    """In-memory block table plus its on-disk shadow.

    ``capacity`` bounds the number of entries (the reserved area's data
    capacity); ``None`` means unbounded.

    :meth:`entries` and :meth:`lookup` materialize fresh
    :class:`BlockTableEntry` snapshots — mutating a returned entry does
    not write through to the table.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = capacity
        self.version = 0
        """Bumped by every change to which blocks are rearranged where
        (:meth:`add`, :meth:`remove`, :meth:`clear`, :meth:`crash`,
        :meth:`recover`); the online arranger caches its decisions under
        it.  Dirty bits and flushes leave it alone."""
        # Every map is bounded by the number of rearranged blocks (the
        # reserved area's capacity): original -> reserved, reserved ->
        # original, the originals whose reserved copy is dirty, and
        # insertion-ordered original -> sequence number.
        self._forward: dict[int, int] = {}
        self._reverse: dict[int, int] = {}
        self._dirty: set[int] = set()
        self._order: dict[int, int] = {}
        self._next_seq = 0
        # On-disk shadow, in the order a full snapshot would produce,
        # plus the sequence number each key was last written with and the
        # set of blocks whose memory state changed since the last flush.
        self._disk_map: dict[int, tuple[int, bool]] = {}
        self._disk_seq: dict[int, int] = {}
        self._unflushed: set[int] = set()

    def reserve(self, num_blocks: int) -> None:
        """Nothing to pre-size: every map holds only rearranged blocks.

        :class:`~repro.driver.driver.AdaptiveDiskDriver` still announces
        its device size here once at set-up, the call perfbench times as
        its ``setup.blocktable`` layer.
        """

    # ------------------------------------------------------------------
    # In-memory operations
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, original_block: int) -> bool:
        return original_block in self._forward

    def reserved_of(self, original_block: int) -> int:
        """Reserved-area home of ``original_block``, or ``-1`` (hot path)."""
        return self._forward.get(original_block, _ABSENT)

    def lookup(self, original_block: int) -> BlockTableEntry | None:
        """Entry for ``original_block``, or None if it is not rearranged."""
        reserved = self.reserved_of(original_block)
        if reserved == _ABSENT:
            return None
        return BlockTableEntry(
            original_block, reserved, original_block in self._dirty
        )

    def original_of(self, reserved_block: int) -> int | None:
        """Original home of the block stored at ``reserved_block``."""
        return self._reverse.get(reserved_block)

    def add(self, original_block: int, reserved_block: int) -> BlockTableEntry:
        """Register a block just copied into the reserved area (clean)."""
        if original_block < 0 or reserved_block < 0:
            raise ValueError("block numbers must be non-negative")
        if original_block in self:
            raise ValueError(f"block {original_block} is already rearranged")
        if reserved_block in self._reverse:
            raise ValueError(
                f"reserved block {reserved_block} is already occupied"
            )
        if self.capacity is not None and len(self) >= self.capacity:
            raise ValueError("block table is full")
        self._forward[original_block] = reserved_block
        self._reverse[reserved_block] = original_block
        self._order[original_block] = self._next_seq
        self._next_seq += 1
        self._unflushed.add(original_block)
        self.version += 1
        return BlockTableEntry(original_block, reserved_block)

    def remove(self, original_block: int) -> BlockTableEntry:
        """Drop the entry for a block moved back to its original home."""
        reserved = self.reserved_of(original_block)
        if reserved == _ABSENT:
            raise KeyError(
                f"block {original_block} is not in the block table"
            )
        entry = BlockTableEntry(
            original_block, reserved, original_block in self._dirty
        )
        del self._forward[original_block]
        del self._reverse[reserved]
        self._dirty.discard(original_block)
        del self._order[original_block]
        self._unflushed.add(original_block)
        self.version += 1
        return entry

    def mark_dirty(self, original_block: int) -> None:
        """Record that the reserved-area copy has been updated."""
        if original_block not in self:
            raise KeyError(f"block {original_block} is not in the block table")
        self._dirty.add(original_block)
        self._unflushed.add(original_block)

    def entries(self) -> list[BlockTableEntry]:
        """All entries, in insertion order (fresh snapshot objects)."""
        forward = self._forward
        dirty = self._dirty
        return [
            BlockTableEntry(block, forward[block], block in dirty)
            for block in self._order
        ]

    def dirty_entries(self) -> list[BlockTableEntry]:
        forward = self._forward
        dirty = self._dirty
        return [
            BlockTableEntry(block, forward[block], True)
            for block in self._order
            if block in dirty
        ]

    def occupied_reserved_blocks(self) -> set[int]:
        return set(self._reverse)

    def clear(self) -> None:
        self._drop_memory()

    def _drop_memory(self) -> None:
        self.version += 1
        self._forward.clear()
        self._unflushed.update(self._order)
        self._order.clear()
        self._reverse.clear()
        self._dirty.clear()

    # ------------------------------------------------------------------
    # On-disk copy and crash recovery
    # ------------------------------------------------------------------

    def write_to_disk(self) -> None:
        """Flush the current table to its reserved-area disk copy.

        The driver forces this after every ``DKIOCBCOPY`` and after each
        block is moved out during ``DKIOCCLEAN`` (Section 4.1.3).  Only
        the blocks whose state changed since the last flush are folded in;
        the result — contents *and* iteration order — is identical to a
        full snapshot of the in-memory table.
        """
        if not self._unflushed:
            return
        order = self._order
        disk_map = self._disk_map
        disk_seq = self._disk_seq
        present: list[int] = []
        for block in self._unflushed:
            if block in order:
                present.append(block)
            else:
                disk_map.pop(block, None)
                disk_seq.pop(block, None)
        # Blocks (re)added since their last write must land at the end of
        # the shadow in insertion order; ascending sequence number is
        # exactly that order.  Blocks only re-dirtied update in place.
        present.sort(key=order.__getitem__)
        forward = self._forward
        dirty = self._dirty
        for block in present:
            seq = order[block]
            value = (forward[block], block in dirty)
            if disk_seq.get(block) == seq:
                disk_map[block] = value
            else:
                disk_map.pop(block, None)
                disk_map[block] = value
                disk_seq[block] = seq
        self._unflushed.clear()

    def disk_copy(self) -> dict[int, tuple[int, bool]]:
        """A snapshot view of the on-disk table (for tests/inspection)."""
        return dict(self._disk_map)

    def crash(self) -> None:
        """Simulate a system crash: the in-memory table is lost."""
        self._drop_memory()

    def recover(self) -> None:
        """Rebuild the in-memory table from the disk copy after a crash.

        All entries are marked dirty regardless of their stored bits: "all
        blocks are marked as dirty when memory-resident copy of the table is
        recreated after a failure.  This conservative strategy ensures that
        updates to repositioned blocks will not be lost" (Section 4.1.2).
        """
        self._drop_memory()
        self._unflushed.clear()
        for original, (reserved, __) in self._disk_map.items():
            self._forward[original] = reserved
            self._reverse[reserved] = original
            self._dirty.add(original)
            seq = self._next_seq
            self._next_seq += 1
            self._order[original] = seq
            # Re-align the shadow's sequence numbers so the next flush
            # updates dirty bits in place without reordering.
            self._disk_seq[original] = seq
            self._unflushed.add(original)
