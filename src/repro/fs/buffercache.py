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
    hits: int = 0
    misses: int = 0
    write_backs: int = 0
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

    def write(self, block: int) -> int | None:
        """Dirty ``block`` in the cache (write-back, no disk I/O yet).

        Returns the dirty block the insertion evicted, if any.  It counts
        as a write-back at once and goes out with the next :meth:`sync`.
        """
        queued = len(self._evicted)
        self.write_many((block,))
        return self._evicted[queued] if len(self._evicted) > queued else None

    def write_many(self, blocks: Collection[int]) -> None:
        """:meth:`write` each block in turn."""
        entries = self._entries
        move_to_end = entries.move_to_end
        misses = 0
        for block in blocks:
            try:  # a hit is the common case: no membership probe first
                move_to_end(block)
            except KeyError:
                misses += 1
                evicted = self._insert(block)
                if evicted is not None:
                    self._evicted.append(evicted)
            else:
                entries[block] = True
        self.hits += len(blocks) - misses
        self.misses += misses
        self._touches += len(blocks)

    def _insert(self, block: int) -> int | None:
        """Cache ``block`` dirty; return the dirty block it evicted, if any."""
        evicted_dirty: int | None = None
        if len(self._entries) >= self.capacity_blocks:
            old_block, old_dirty = self._entries.popitem(last=False)
            if old_dirty:
                self.write_backs += 1
                evicted_dirty = old_block
        self._entries[block] = True
        return evicted_dirty

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
        self.write_backs += len(dirty)
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

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
