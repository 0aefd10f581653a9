"""A simplified UFS: files, directories, inodes, and their block layout.

This is the minimal slice of the SunOS UFS semantics the experiments
depend on (Section 3.1):

* files are arrays of logical blocks located through an **i-node**;
* i-nodes live in per-cylinder-group inode blocks, many i-nodes per block,
  so metadata writes concentrate on very few blocks;
* reading a file updates its i-node's access time — "the operating system
  itself may generate write requests to the logical device that holds a
  read-only file system.  Such requests normally represent updates to
  bookkeeping information (e.g., time stamps) in the i-nodes" — which is
  the source of the *system* file system's highly skewed write stream;
* directories steer their files' inodes to a common cylinder group.

All block numbers exposed by :class:`FileSystem` are *logical device*
(virtual-disk) addresses: partition offset plus partition-relative address.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..disk.label import Partition
from .allocator import FFSAllocator

INODES_PER_BLOCK = 64
"""I-nodes per 8 KB inode block (128-byte on-disk inodes)."""


@dataclass
class Inode:
    """File metadata: where the inode itself and the file's data live."""

    inumber: int
    inode_block: int  # logical device block holding this inode
    data_blocks: list[int] = field(default_factory=list)

    @property
    def size_blocks(self) -> int:
        return len(self.data_blocks)


@dataclass
class Directory:
    """A directory: a name and the cylinder group its files prefer."""

    name: str
    group_hint: int
    files: dict[str, Inode] = field(default_factory=dict)


class FileSystemError(Exception):
    """Raised on file-system misuse (duplicate names, missing files...)."""


@dataclass
class FileSystem:
    """One file system occupying one partition (Section 3.1).

    ``partition`` gives the virtual-disk placement; the allocator works in
    partition-relative addresses and this class translates.
    """

    partition: Partition
    blocks_per_cylinder: int
    cylinders_per_group: int = 16
    inode_blocks_per_group: int = 2
    interleave: int = 1
    directory_placement: str = "scatter"
    """How new directories pick a cylinder group: ``"scatter"`` spreads
    them over the whole disk (a long-lived, full file system such as the
    paper's *system* FS); ``"first-fit"`` prefers the emptiest (lowest)
    group, clustering a young, mostly-empty file system's data near the
    start of the partition (the paper's *users* FS)."""

    directories: dict[str, Directory] = field(default_factory=dict)
    _allocator: FFSAllocator = field(init=False, repr=False)
    _next_inumber: int = 0
    _next_group: int = 0

    def __post_init__(self) -> None:
        self._allocator = FFSAllocator(
            total_blocks=self.partition.num_blocks,
            blocks_per_cylinder=self.blocks_per_cylinder,
            cylinders_per_group=self.cylinders_per_group,
            inode_blocks_per_group=self.inode_blocks_per_group,
            interleave=self.interleave,
        )
        # A directory's own inode block is fixed at creation (group hint
        # and group layout never change), so the lookup is cacheable.
        self._dir_inode_cache: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Address translation
    # ------------------------------------------------------------------

    def _to_logical(self, partition_block: int) -> int:
        return self.partition.start_block + partition_block

    def _inode_block_for(self, inumber: int, group_hint: int) -> int:
        """Logical block holding inode ``inumber``.

        Inodes are packed :data:`INODES_PER_BLOCK` per block within their
        cylinder group's inode area, round-robin across the group's inode
        blocks as the group fills.
        """
        group = self._allocator.group(group_hint % self._allocator.num_groups)
        slot = (inumber // INODES_PER_BLOCK) % group.inode_blocks
        return self._to_logical(group.first_block + slot)

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------

    def make_directory(self, name: str) -> Directory:
        """Create a directory; FFS places each new directory in a new
        cylinder group to spread unrelated data apart.

        Groups are chosen by a golden-ratio stride so that any number of
        directories spreads across the *whole* disk — this is what makes
        "hot blocks from different files ... spread widely over the disk's
        surface" (Section 1.1).
        """
        if name in self.directories:
            raise FileSystemError(f"directory {name!r} exists")
        groups = self._allocator.num_groups
        if self.directory_placement == "first-fit":
            # The emptiest group, lowest index first: young file systems
            # cluster near the start of the partition.
            free = [group.free.count for group in self._allocator.groups]
            hint = free.index(max(free))
        else:
            hint = int(
                ((self._next_group * 0.6180339887498949) % 1.0) * groups
            )
        directory = Directory(name=name, group_hint=hint % groups)
        self._next_group += 1
        self.directories[name] = directory
        return directory

    def populate_directory(
        self, directory: str, files: Iterable[tuple[str, int]]
    ) -> list[Inode]:
        """Create ``(name, num_blocks)`` files in ``directory`` (the
        initial mkfs load).

        The same inodes and blocks as one :meth:`create_file` per file
        in order, from one batched allocator call.  A name that is taken
        (or given twice) fails before any file is created.
        """
        dir_entry = self._directory(directory)
        files = list(files)
        seen = set(dir_entry.files)
        for name, __ in files:
            if name in seen:
                raise FileSystemError(f"file {directory}/{name} exists")
            seen.add(name)
        # What _inode_block_for and _to_logical compute per file, bound
        # once for the directory's group.
        hint = dir_entry.group_hint
        allocator = self._allocator
        group = allocator.group(hint % allocator.num_groups)
        start = self.partition.start_block
        inode_area = start + group.first_block
        inode_blocks = group.inode_blocks
        step = 1 + self.interleave
        runs = allocator.allocate_files(
            [num_blocks for __, num_blocks in files], group_hint=hint
        )
        created: list[Inode] = []
        for name, num_blocks in files:
            inumber = self._next_inumber
            self._next_inumber = inumber + 1
            run = next(runs)
            if isinstance(run, int):
                first = start + run
                data = list(range(first, first + num_blocks * step, step))
            else:
                data = [start + block for block in run]
            inode = Inode(
                inumber,
                inode_area + (inumber // INODES_PER_BLOCK) % inode_blocks,
                data,
            )
            dir_entry.files[name] = inode
            created.append(inode)
        return created

    def _directory(self, name: str) -> Directory:
        try:
            return self.directories[name]
        except KeyError:
            raise FileSystemError(f"no directory {name!r}") from None

    def create_file(
        self, directory: str, name: str, num_blocks: int
    ) -> Inode:
        """Create a file of ``num_blocks`` blocks in ``directory``."""
        dir_entry = self._directory(directory)
        if name in dir_entry.files:
            raise FileSystemError(f"file {directory}/{name} exists")
        inumber = self._next_inumber
        self._next_inumber += 1
        data = self._allocator.allocate_file_blocks(
            num_blocks, group_hint=dir_entry.group_hint
        )
        inode = Inode(
            inumber=inumber,
            inode_block=self._inode_block_for(inumber, dir_entry.group_hint),
            data_blocks=[self._to_logical(block) for block in data],
        )
        dir_entry.files[name] = inode
        return inode

    def extend_file(self, directory: str, name: str, num_blocks: int) -> list[int]:
        """Append blocks to an existing file; returns the new blocks."""
        inode = self.lookup(directory, name)
        if not inode.data_blocks:
            new = self._allocator.allocate_file_blocks(
                num_blocks, group_hint=self.directories[directory].group_hint
            )
        else:
            last = inode.data_blocks[-1] - self.partition.start_block
            new = self._allocator.extend_file(last, num_blocks)
        logical = [self._to_logical(block) for block in new]
        inode.data_blocks.extend(logical)
        return logical

    def delete_file(self, directory: str, name: str) -> None:
        inode = self.lookup(directory, name)
        partition_blocks = [
            block - self.partition.start_block for block in inode.data_blocks
        ]
        self._allocator.release_blocks(partition_blocks)
        del self.directories[directory].files[name]

    def rename(self, directory: str, old_name: str, new_name: str) -> Inode:
        """Rename a file within its directory (atomic save-by-rename)."""
        files = self.directories[directory].files
        if old_name not in files:
            raise FileSystemError(f"no file {directory}/{old_name}")
        if new_name in files:
            raise FileSystemError(f"file {directory}/{new_name} exists")
        inode = files.pop(old_name)
        files[new_name] = inode
        return inode

    def lookup(self, directory: str, name: str) -> Inode:
        try:
            return self.directories[directory].files[name]
        except KeyError:
            raise FileSystemError(f"no file {directory}/{name}") from None

    # ------------------------------------------------------------------
    # Metadata blocks written by the periodic update policy
    # ------------------------------------------------------------------

    def superblock(self) -> int:
        """Logical block of the superblock (written on every sync)."""
        return self.partition.start_block

    def directory_inode_block(self, name: str) -> int:
        """Logical block holding ``name``'s own inode.

        Directory inodes take the first slot of their group's inode area;
        path lookups update their access times, so these blocks are among
        the hottest write targets.
        """
        block = self._dir_inode_cache.get(name)
        if block is not None:
            return block
        directory = self._directory(name)
        group = self._allocator.group(
            directory.group_hint % self._allocator.num_groups
        )
        block = self._to_logical(group.first_block)
        self._dir_inode_cache[name] = block
        return block

    def metadata_block_of(self, logical_block: int) -> int:
        """The cylinder-group summary block covering ``logical_block``.

        FFS updates a per-group summary whenever blocks in the group
        change; we model it as the group's first block.
        """
        relative = logical_block - self.partition.start_block
        group = self._allocator.group_of_block(relative)
        return self._to_logical(group.first_block)

    # ------------------------------------------------------------------
    # Introspection used by the workload generator
    # ------------------------------------------------------------------

    def all_files(self) -> list[tuple[str, str, Inode]]:
        return [
            (dir_name, file_name, inode)
            for dir_name, directory in self.directories.items()
            for file_name, inode in directory.files.items()
        ]

    def inode_blocks_in_use(self) -> list[int]:
        """Distinct logical blocks holding live inodes."""
        return sorted(
            {inode.inode_block for __, __, inode in self.all_files()}
        )

    @property
    def free_blocks(self) -> int:
        return self._allocator.free_blocks

    @property
    def num_groups(self) -> int:
        return self._allocator.num_groups
