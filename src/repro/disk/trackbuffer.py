"""Read-ahead track buffer (the Fujitsu M2266's 256 KB buffer).

"With read-ahead buffering, when requested data is read off the recording
media into the disk's buffer, the disk continues reading data into its
buffer even after the requested piece of data is read.  Later, if blocks
that are already in the buffer are requested they are simply transferred to
the host from disk's buffer." (Section 5)

The model works at file-system-block granularity.  After a media read of
block *b*, the buffer holds *b* and the blocks that follow it on the same
cylinder, up to the buffer's capacity — the drive keeps reading as the
platter spins but will not seek on the host's behalf.  A later *read* of a
buffered block is a hit and costs only the host transfer time.  A write
invalidates any overlapping buffered block (the buffer is not a write
cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import DiskGeometry


@dataclass
class TrackBuffer:
    """Read-ahead buffer holding recently passed-over blocks.

    ``capacity_bytes`` bounds how far the drive reads ahead.
    ``host_transfer_ms`` is the time to move one block from the buffer to
    the host over the SCSI bus (the only cost of a buffer hit).
    """

    geometry: DiskGeometry
    capacity_bytes: int
    host_transfer_ms: float = 2.0
    hits: int = 0
    misses: int = 0
    # Buffer contents as a half-open interval [_start, _end) minus _holes
    # (blocks dropped by writes).  A refill is then two integer stores and
    # a set clear instead of materializing a 32-block set per media read.
    _start: int = field(default=0, repr=False)
    _end: int = field(default=0, repr=False)
    _holes: set[int] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes < self.geometry.block_bytes:
            raise ValueError("buffer must hold at least one block")
        if self.host_transfer_ms < 0:
            raise ValueError("host_transfer_ms must be non-negative")
        self._capacity_blocks = self.capacity_bytes // self.geometry.block_bytes
        self._blocks_per_cylinder = self.geometry.blocks_per_cylinder

    @property
    def capacity_blocks(self) -> int:
        return self._capacity_blocks

    def contains(self, block: int) -> bool:
        """True if a read of ``block`` would hit the buffer."""
        return self._start <= block < self._end and block not in self._holes

    def lookup_read(self, block: int) -> bool:
        """Record a read probe; returns True on a buffer hit."""
        if self._start <= block < self._end and block not in self._holes:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill_after_read(self, block: int) -> None:
        """Refill the buffer following a media read of ``block``.

        The buffer is replaced by ``block`` and its successors on the same
        cylinder, clipped to the buffer capacity: read-ahead follows the
        platter but does not seek.
        """
        per_cyl = self._blocks_per_cylinder
        cylinder_stop = (block // per_cyl + 1) * per_cyl
        self._start = block
        self._end = min(block + self._capacity_blocks, cylinder_stop)
        if self._holes:
            self._holes.clear()

    def invalidate_write(self, block: int) -> None:
        """Drop ``block`` from the buffer after it is overwritten."""
        if self._start <= block < self._end:
            self._holes.add(block)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
