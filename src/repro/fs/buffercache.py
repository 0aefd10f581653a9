"""The main-memory buffer cache with a periodic update (sync) policy.

Section 3.1: "All file I/O goes through the buffer cache ... a read request
is forwarded to the disk only in case the block is not found in the cache
... the system does not immediately write modified blocks back to the disk
... periodically, all dirty blocks are copied back to the disk."

That periodic flush is what makes the measured write arrival pattern
bursty, which in turn drives the paper's waiting-time results (Section
5.2).  :class:`BufferCache` is an LRU write-back cache over logical blocks;
:meth:`sync` returns (and cleans) the dirty set, plus any dirty block
evicted since the last sync, which the workload generator turns into a
batch arrival at the driver.  Only writes go through it: the generator
issues its read sessions to the driver directly, so the cache has no
read probe.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Collection
from dataclasses import dataclass, field
from itertools import islice


@dataclass
class BufferCache:
    """LRU write-back cache of logical device blocks."""

    capacity_blocks: int
    _entries: OrderedDict[int, bool] = field(default_factory=OrderedDict)
    _evicted: list[int] = field(default_factory=list)
    """Dirty blocks evicted since the last sync, in eviction order."""
    _touches: int = 0
    """Writes since the last sync (see :meth:`dirty_blocks`)."""

    def __post_init__(self) -> None:
        if self.capacity_blocks <= 0:
            raise ValueError("cache must hold at least one block")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    # ------------------------------------------------------------------
    # The file-system-facing operations
    # ------------------------------------------------------------------

    def write(self, block: int) -> None:
        """Dirty ``block`` in the cache (write-back, no disk I/O yet).

        A dirty block that the insertion evicts goes out with the next
        :meth:`sync`.
        """
        self.write_many((block,))

    def write_many(self, blocks: Collection[int]) -> None:
        """:meth:`write` each block in turn."""
        entries = self._entries
        move_to_end = entries.move_to_end
        for block in blocks:
            try:  # a hit is the common case: no membership probe first
                move_to_end(block)
            except KeyError:
                self._insert(block)
            else:
                entries[block] = True
        self._touches += len(blocks)

    def _insert(self, block: int) -> None:
        """Cache ``block`` dirty; queue the dirty block it evicts, if any."""
        if len(self._entries) >= self.capacity_blocks:
            old_block, old_dirty = self._entries.popitem(last=False)
            if old_dirty:
                self._evicted.append(old_block)
        self._entries[block] = True

    # ------------------------------------------------------------------
    # The periodic update policy
    # ------------------------------------------------------------------

    def dirty_blocks(self) -> list[int]:
        """The cached dirty blocks, in LRU order.

        A sync cleans every block, so only a block touched since then can
        be dirty, and each touch moves its block to the newest end.  The
        scan therefore covers just the newest entries, at most one per
        touch: it costs O(accesses since the last sync), not O(cache).
        """
        newest = islice(reversed(self._entries.items()), self._touches)
        dirty = [block for block, is_dirty in newest if is_dirty]
        dirty.reverse()
        return dirty

    def sync(self) -> list[int]:
        """Flush: return every dirty block (in LRU order) and mark it clean,
        followed by the dirty blocks evicted since the last sync.

        The caller issues the returned blocks to the driver as one burst.
        """
        dirty = self.dirty_blocks()
        for block in dirty:
            self._entries[block] = False
        self._touches = 0
        dirty.extend(self._evicted)
        self._evicted.clear()
        return dirty

    def invalidate(self, block: int) -> None:
        self._entries.pop(block, None)

    def clear(self) -> None:
        """Drop every cached block, dirty or not.  Dirty blocks evicted
        earlier still go out with the next :meth:`sync`."""
        self._entries.clear()
