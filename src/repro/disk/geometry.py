"""Disk geometry: cylinders, tracks, sectors, and block address arithmetic.

The simulator addresses data at two granularities, mirroring the paper:

* **Sectors** are the disk's native unit (512 bytes on both of the paper's
  drives).  The mechanical models (rotation, transfer) work in sectors.
* **Blocks** are file-system blocks (8 KB in the paper, i.e. 16 sectors).
  All driver requests and all rearrangement decisions are in blocks, because
  "the size of a 'block' in the rearrangement system is the size of a file
  system block" (Section 4.1.2).

A :class:`DiskGeometry` converts a physical block number into the
``(cylinder, track, start sector)`` triple the mechanical models need.
Blocks are laid out cylinder-major: block 0 occupies the first 16 sectors of
cylinder 0, and so on.  Any sectors left over at the end of a cylinder after
packing whole blocks are unused padding, which keeps every block wholly
inside one cylinder (so a block access never requires a mid-transfer seek).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

SECTOR_BYTES = 512
"""Size of one disk sector in bytes (both of the paper's drives)."""

DEFAULT_BLOCK_BYTES = 8192
"""The paper's file-system block size: 8 kilobytes (Section 5)."""


@dataclass(frozen=True, slots=True)
class BlockAddress:
    """Physical location of one file-system block on the platter."""

    block: int
    cylinder: int
    track: int
    start_sector: int  # index of the block's first sector within its track
    sector_in_cylinder: int  # index of the first sector within the cylinder


@dataclass(frozen=True)
class DiskGeometry:
    """Static geometry of a disk drive.

    Parameters mirror a UNIX disk label: cylinder count, tracks (heads) per
    cylinder, sectors per track, and the rotational speed.  ``block_bytes``
    is the file-system block size used to carve the disk into blocks.
    """

    cylinders: int
    tracks_per_cylinder: int
    sectors_per_track: int
    rpm: float = 3600.0
    block_bytes: int = DEFAULT_BLOCK_BYTES

    # Derived sizes below are ``cached_property``: the dataclass is frozen,
    # so each is a constant, and several sit on the per-request hot path.
    # Equality and hashing use the declared fields only, so the cache is
    # invisible to value semantics.

    def __post_init__(self) -> None:
        if self.cylinders <= 0:
            raise ValueError("cylinders must be positive")
        if self.tracks_per_cylinder <= 0:
            raise ValueError("tracks_per_cylinder must be positive")
        if self.sectors_per_track <= 0:
            raise ValueError("sectors_per_track must be positive")
        if self.rpm <= 0:
            raise ValueError("rpm must be positive")
        if self.block_bytes % SECTOR_BYTES != 0:
            raise ValueError("block_bytes must be a multiple of SECTOR_BYTES")
        if self.sectors_per_block > self.sectors_per_cylinder:
            raise ValueError("a block must fit within one cylinder")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------

    @cached_property
    def sectors_per_block(self) -> int:
        """Sectors occupied by one file-system block (16 for 8 KB blocks)."""
        return self.block_bytes // SECTOR_BYTES

    @cached_property
    def sectors_per_cylinder(self) -> int:
        return self.tracks_per_cylinder * self.sectors_per_track

    @cached_property
    def blocks_per_cylinder(self) -> int:
        """Whole file-system blocks that fit in one cylinder.

        The fractional remainder of a cylinder is left as padding so that no
        block straddles a cylinder boundary.
        """
        return self.sectors_per_cylinder // self.sectors_per_block

    @cached_property
    def total_blocks(self) -> int:
        return self.cylinders * self.blocks_per_cylinder

    @cached_property
    def total_sectors(self) -> int:
        return self.cylinders * self.sectors_per_cylinder

    @cached_property
    def capacity_bytes(self) -> int:
        return self.total_sectors * SECTOR_BYTES

    # ------------------------------------------------------------------
    # Timing primitives
    # ------------------------------------------------------------------

    @cached_property
    def rotation_time_ms(self) -> float:
        """Duration of one full platter revolution, in milliseconds."""
        return 60_000.0 / self.rpm

    @cached_property
    def sector_time_ms(self) -> float:
        """Time for one sector to pass under the head, in milliseconds."""
        return self.rotation_time_ms / self.sectors_per_track

    def transfer_time_ms(self, sectors: int) -> float:
        """Media transfer time for ``sectors`` contiguous sectors."""
        if sectors < 0:
            raise ValueError("sectors must be non-negative")
        return sectors * self.sector_time_ms

    def block_transfer_time_ms(self, blocks: int = 1) -> float:
        """Media transfer time for ``blocks`` file-system blocks."""
        return self.transfer_time_ms(blocks * self.sectors_per_block)

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------

    def cylinder_of_block(self, block: int) -> int:
        """Cylinder holding physical block number ``block``."""
        self._check_block(block)
        return block // self.blocks_per_cylinder

    def locate_block(self, block: int) -> BlockAddress:
        """Full physical address of ``block``."""
        self._check_block(block)
        cylinder, index = divmod(block, self.blocks_per_cylinder)
        sector_in_cyl = index * self.sectors_per_block
        track, start_sector = divmod(sector_in_cyl, self.sectors_per_track)
        return BlockAddress(
            block=block,
            cylinder=cylinder,
            track=track,
            start_sector=start_sector,
            sector_in_cylinder=sector_in_cyl,
        )

    def block_at(self, cylinder: int, index_in_cylinder: int) -> int:
        """Physical block number of the ``index``-th block of ``cylinder``."""
        if not 0 <= cylinder < self.cylinders:
            raise ValueError(f"cylinder {cylinder} out of range")
        if not 0 <= index_in_cylinder < self.blocks_per_cylinder:
            raise ValueError(f"block index {index_in_cylinder} out of range")
        return cylinder * self.blocks_per_cylinder + index_in_cylinder

    def blocks_of_cylinder(self, cylinder: int) -> range:
        """All physical block numbers of ``cylinder``, in layout order."""
        if not 0 <= cylinder < self.cylinders:
            raise ValueError(f"cylinder {cylinder} out of range")
        first = cylinder * self.blocks_per_cylinder
        return range(first, first + self.blocks_per_cylinder)

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.total_blocks:
            raise ValueError(
                f"block {block} out of range [0, {self.total_blocks})"
            )
