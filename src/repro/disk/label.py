"""Disk labels, partitions, and the hidden reserved area.

The paper's driver creates the reserved space by editing the disk label so
that "the target disk is made to look smaller than it really is"
(Section 4.1.1): the file system sees a *virtual* disk with fewer cylinders,
and the hidden cylinders in the middle of the physical disk form the
reserved area.  The driver maps virtual addresses to physical ones.

:class:`DiskLabel` implements that mapping.  Virtual cylinders below the
reserved region map 1:1; virtual cylinders at or above it are shifted past
the hidden cylinders.  The first blocks of the reserved area are set aside
for the on-disk copy of the block table (Section 4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import DiskGeometry

REARRANGED_MAGIC = 0x5EA7B10C
"""Label marker identifying a disk initialized for rearrangement."""

BLOCK_TABLE_BLOCKS = 2
"""Blocks at the start of the reserved area holding the block-table copy."""


@dataclass(frozen=True)
class Partition:
    """A logical device: a contiguous span of *virtual* blocks."""

    name: str
    start_block: int
    num_blocks: int

    @property
    def end_block(self) -> int:
        return self.start_block + self.num_blocks

    def contains(self, virtual_block: int) -> bool:
        return self.start_block <= virtual_block < self.end_block


@dataclass
class DiskLabel:
    """Geometry advertisement plus the reserved-area record.

    ``reserved_cylinders == 0`` describes an ordinary (non-rearranged) disk
    whose virtual and physical address spaces coincide.
    """

    geometry: DiskGeometry
    reserved_cylinders: int = 0
    reserved_start_cylinder: int | None = None
    partitions: list[Partition] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 <= self.reserved_cylinders < self.geometry.cylinders:
            raise ValueError(
                "reserved cylinders must leave at least one visible cylinder"
            )
        if self.reserved_start_cylinder is None:
            # Center the reserved area, as the paper does: "the reserved
            # cylinders themselves are located in the middle of the disk".
            start = (self.geometry.cylinders - self.reserved_cylinders) // 2
            self.reserved_start_cylinder = start
        end = self.reserved_start_cylinder + self.reserved_cylinders
        if not 0 <= self.reserved_start_cylinder <= end <= self.geometry.cylinders:
            raise ValueError("reserved area does not fit on the disk")
        # Hot-path constants for virtual_to_physical_block, which runs
        # once per request.  Label fields are set once at creation.
        self._per_cyl = self.geometry.blocks_per_cylinder
        self._virtual_total = self.virtual_cylinders * self._per_cyl
        self._reserved_start = self.reserved_start_cylinder
        self._reserved_count = self.reserved_cylinders

    # ------------------------------------------------------------------
    # Identity and sizes
    # ------------------------------------------------------------------

    @property
    def is_rearranged(self) -> bool:
        """True when the label marks a disk initialized for rearrangement."""
        return self.reserved_cylinders > 0

    @property
    def magic(self) -> int | None:
        return REARRANGED_MAGIC if self.is_rearranged else None

    @property
    def virtual_cylinders(self) -> int:
        """Cylinder count advertised to the file system."""
        return self.geometry.cylinders - self.reserved_cylinders

    @property
    def virtual_total_blocks(self) -> int:
        return self.virtual_cylinders * self.geometry.blocks_per_cylinder

    @property
    def reserved_end_cylinder(self) -> int:
        assert self.reserved_start_cylinder is not None
        return self.reserved_start_cylinder + self.reserved_cylinders

    # ------------------------------------------------------------------
    # Virtual <-> physical mapping
    # ------------------------------------------------------------------

    def physical_to_virtual_cylinder(self, cylinder: int) -> int:
        if self.is_reserved_cylinder(cylinder):
            raise ValueError(f"physical cylinder {cylinder} is reserved")
        if not 0 <= cylinder < self.geometry.cylinders:
            raise ValueError(f"physical cylinder {cylinder} out of range")
        assert self.reserved_start_cylinder is not None
        if cylinder < self.reserved_start_cylinder:
            return cylinder
        return cylinder - self.reserved_cylinders

    def virtual_to_physical_block(self, block: int) -> int:
        """Map a file-system (virtual) block to its home physical block."""
        if not 0 <= block < self._virtual_total:
            raise ValueError(f"virtual block {block} out of range")
        per_cyl = self._per_cyl
        cylinder, index = divmod(block, per_cyl)
        if cylinder >= self._reserved_start:
            cylinder += self._reserved_count
        return cylinder * per_cyl + index

    def physical_to_virtual_block(self, block: int) -> int:
        """Inverse of :meth:`virtual_to_physical_block`."""
        per_cyl = self.geometry.blocks_per_cylinder
        cylinder, index = divmod(block, per_cyl)
        return self.physical_to_virtual_cylinder(cylinder) * per_cyl + index

    def is_reserved_cylinder(self, cylinder: int) -> bool:
        assert self.reserved_start_cylinder is not None
        return (
            self.reserved_start_cylinder
            <= cylinder
            < self.reserved_end_cylinder
        )

    def is_reserved_block(self, physical_block: int) -> bool:
        return self.is_reserved_cylinder(
            self.geometry.cylinder_of_block(physical_block)
        )

    # ------------------------------------------------------------------
    # Reserved-area layout
    # ------------------------------------------------------------------

    def reserved_data_blocks(self) -> list[int]:
        """Physical blocks available for rearranged data.

        Excludes the blocks at the start of the reserved area that hold the
        on-disk copy of the block table.
        """
        blocks: list[int] = []
        assert self.reserved_start_cylinder is not None
        for cylinder in range(
            self.reserved_start_cylinder, self.reserved_end_cylinder
        ):
            blocks.extend(self.geometry.blocks_of_cylinder(cylinder))
        return blocks[BLOCK_TABLE_BLOCKS:]

    def reserved_capacity_blocks(self) -> int:
        if not self.is_rearranged:
            return 0
        return (
            self.reserved_cylinders * self.geometry.blocks_per_cylinder
            - BLOCK_TABLE_BLOCKS
        )

    def block_table_home_blocks(self) -> list[int]:
        """Physical blocks holding the on-disk block-table copy."""
        if not self.is_rearranged:
            return []
        assert self.reserved_start_cylinder is not None
        first = self.geometry.blocks_of_cylinder(
            self.reserved_start_cylinder
        )[0]
        return list(range(first, first + BLOCK_TABLE_BLOCKS))

    def reserved_center_cylinder(self) -> int:
        """The middle cylinder of the reserved area (organ-pipe anchor)."""
        if not self.is_rearranged:
            raise ValueError("disk has no reserved area")
        assert self.reserved_start_cylinder is not None
        return self.reserved_start_cylinder + self.reserved_cylinders // 2

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def add_partition(
        self, name: str, num_blocks: int, start_block: int | None = None
    ) -> Partition:
        """Add a partition; by default it follows the last existing one."""
        if start_block is None:
            start_block = 0
            if self.partitions:
                start_block = self.partitions[-1].end_block
        if start_block < 0:
            raise ValueError("partition start must be non-negative")
        if start_block + num_blocks > self.virtual_total_blocks:
            raise ValueError(
                f"partition {name!r} ({num_blocks} blocks at {start_block}) "
                f"exceeds virtual disk size {self.virtual_total_blocks}"
            )
        partition = Partition(
            name=name, start_block=start_block, num_blocks=num_blocks
        )
        self.partitions.append(partition)
        return partition

    def partition(self, name: str) -> Partition:
        for part in self.partitions:
            if part.name == name:
                return part
        raise KeyError(f"no partition named {name!r}")
