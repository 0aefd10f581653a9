"""Layout-exactness harness for batched file-system population.

``FFSAllocator``, ``FileSystem`` and ``WorkloadGenerator._build_initial_tree``
lay out a new file system in batches.  The batching must not move a single
block: every inode number, inode block and data block, every group's free
count, the whole free map and the generator's ``rng.bit_generator.state``
have to match the scalar code it replaced.  That scalar code lives on
below, verbatim, as the reference: the per-block ``allocate_near`` loop of
``allocate_file_blocks`` over one byte map per group, the list-based
``_inode_block_for``, and the per-file ``_build_initial_tree``.  The tests
compare the two after every directory, over randomized geometries
(interleave 0-3, short tail groups, both directory placements, files
larger than a group) and over maps pre-fragmented by random releases.

CI runs extra pinned seeds; a failure reproduces with
``GEN_STRESS_SEED=<n>``.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

from repro.disk.label import Partition
from repro.fs.allocator import AllocationError
from repro.fs.ufs import FileSystem, FileSystemError, Inode
from repro.workload.distributions import geometric_run_length
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import (
    SYSTEM_FS_PROFILE,
    USERS_FS_PROFILE,
    profile_for_disk,
)
from repro.workload.tenancy import TenancySpec, device_profiles

STRESS_SEEDS = [3, 11, 23]
if os.environ.get("GEN_STRESS_SEED"):
    STRESS_SEEDS.append(int(os.environ["GEN_STRESS_SEED"]))

INODES_PER_BLOCK = 64


# ----------------------------------------------------------------------
# The reference: the scalar allocator and population code
# ----------------------------------------------------------------------


class FreeMap:
    """Byte-per-block free map for one group's data area."""

    __slots__ = ("_first", "_bits", "count")

    def __init__(self, first_block: int, size: int) -> None:
        self._first = first_block
        self._bits = bytearray(b"\x01" * size)
        self.count = size

    def __contains__(self, block: int) -> bool:
        index = block - self._first
        return 0 <= index < len(self._bits) and bool(self._bits[index])

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def remove(self, block: int) -> None:
        self._bits[block - self._first] = 0
        self.count -= 1

    def add(self, block: int) -> None:
        self._bits[block - self._first] = 1
        self.count += 1

    def next_free_index(self, start: int, stop: int | None = None) -> int:
        if stop is None:
            stop = len(self._bits)
        return self._bits.find(1, start, stop)


@dataclass
class CylinderGroup:
    """One cylinder group: an inode area followed by a data area."""

    index: int
    first_block: int
    num_blocks: int
    inode_blocks: int

    free: FreeMap = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.inode_blocks >= self.num_blocks:
            raise ValueError("inode area must leave room for data blocks")
        if self.free is None:
            self.free = FreeMap(
                self.data_first_block, self.num_blocks - self.inode_blocks
            )

    @property
    def data_first_block(self) -> int:
        return self.first_block + self.inode_blocks

    @property
    def end_block(self) -> int:
        return self.first_block + self.num_blocks

    @property
    def free_count(self) -> int:
        return self.free.count

    def inode_block_numbers(self) -> list[int]:
        return list(range(self.first_block, self.first_block + self.inode_blocks))

    def allocate_near(self, position: int, interleave: int) -> int:
        if not self.free:
            raise AllocationError(f"cylinder group {self.index} is full")
        data_first = self.data_first_block
        data_span = self.num_blocks - self.inode_blocks
        start = (position + 1 + interleave - data_first) % data_span
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
    """Cylinder-group allocator over a partition of ``total_blocks``."""

    total_blocks: int
    blocks_per_cylinder: int
    cylinders_per_group: int = 16
    inode_blocks_per_group: int = 2
    interleave: int = 1
    groups: list[CylinderGroup] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.total_blocks <= 0:
            raise ValueError("partition must contain at least one block")
        if self.groups:
            return
        group_blocks = self.blocks_per_cylinder * self.cylinders_per_group
        if group_blocks <= self.inode_blocks_per_group:
            raise ValueError("cylinder group too small for its inode area")
        first = 0
        index = 0
        while first < self.total_blocks:
            size = min(group_blocks, self.total_blocks - first)
            if size <= self.inode_blocks_per_group:
                break  # tail too small to be a group; leave unallocated
            self.groups.append(
                CylinderGroup(
                    index=index,
                    first_block=first,
                    num_blocks=size,
                    inode_blocks=self.inode_blocks_per_group,
                )
            )
            first += size
            index += 1
        if not self.groups:
            raise ValueError("partition too small for any cylinder group")

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def group_of_block(self, block: int) -> CylinderGroup:
        for group in self.groups:
            if group.first_block <= block < group.end_block:
                return group
        raise ValueError(f"block {block} is outside every cylinder group")

    def _group_with_space(self, preferred: int, needed: int) -> CylinderGroup:
        order = range(preferred, preferred + self.num_groups)
        for raw_index in order:
            group = self.groups[raw_index % self.num_groups]
            if group.free_count >= needed:
                return group
        raise AllocationError("file system is full")

    def allocate_file_blocks(
        self, num_blocks: int, group_hint: int = 0
    ) -> list[int]:
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        blocks: list[int] = []
        remaining = num_blocks
        hint = group_hint % self.num_groups
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

    def release_blocks(self, blocks: list[int]) -> None:
        for block in blocks:
            self.group_of_block(block).release(block)

    @property
    def free_blocks(self) -> int:
        return sum(group.free_count for group in self.groups)


class ScalarFileSystem(FileSystem):
    """The file system over the reference allocator, one file at a time."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._allocator = FFSAllocator(
            total_blocks=self.partition.num_blocks,
            blocks_per_cylinder=self.blocks_per_cylinder,
            cylinders_per_group=self.cylinders_per_group,
            inode_blocks_per_group=self.inode_blocks_per_group,
            interleave=self.interleave,
        )

    def _inode_block_for(self, inumber: int, group_hint: int) -> int:
        group = self._allocator.groups[group_hint % self._allocator.num_groups]
        inode_blocks = group.inode_block_numbers()
        slot = (inumber // INODES_PER_BLOCK) % len(inode_blocks)
        return self._to_logical(inode_blocks[slot])

    def _create(self, directory: str, name: str, num_blocks: int) -> Inode:
        try:
            dir_entry = self.directories[directory]
        except KeyError:
            raise FileSystemError(f"no directory {directory!r}") from None
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


def build_initial_tree(self) -> None:
    """``WorkloadGenerator._build_initial_tree``, one file at a time."""
    for d in range(self.profile.num_directories):
        name = f"dir{d:03d}"
        self.fs.make_directory(name)
        for f in range(self.profile.files_per_directory):
            size = geometric_run_length(
                self.rng,
                self.profile.mean_file_blocks,
                self.profile.max_file_blocks,
            )
            self.fs.create_file(name, f"file{f:03d}", size)


# ----------------------------------------------------------------------
# Running both and comparing
# ----------------------------------------------------------------------


def snapshot(fs: FileSystem, rng: np.random.Generator, full_map: bool):
    """Everything population decides, through public names only."""
    allocator = fs._allocator
    groups = []
    for group in allocator.groups:
        entry = (group.index, group.first_block, group.num_blocks, group.free_count)
        if full_map:
            free = group.free
            entry += (
                bytes(
                    block in free
                    for block in range(group.first_block, group.end_block)
                ),
            )
        groups.append(entry)
    files = [
        (d, n, inode.inumber, inode.inode_block, list(inode.data_blocks))
        for d, n, inode in fs.all_files()
    ]
    return (
        files,
        groups,
        allocator.free_blocks,
        fs._next_inumber,
        rng.bit_generator.state,
    )


def populate(fs_class, profile, partition, bpc, seed, prefill, full_map):
    """Build ``profile``'s initial tree on a fresh ``fs_class``; return the
    snapshots taken before each new directory, at the end (or at the
    allocation error that ended it) and after the log file."""
    fs = fs_class(
        partition=partition,
        blocks_per_cylinder=bpc,
        cylinders_per_group=profile.cylinders_per_group,
        inode_blocks_per_group=profile.inode_blocks_per_group,
        interleave=profile.fs_interleave,
        directory_placement=profile.directory_placement,
    )
    rng = np.random.default_rng(seed)
    if prefill is not None:
        prefill(fs._allocator)
    snapshots = []
    make_directory = fs.make_directory

    def hooked(name):
        snapshots.append(snapshot(fs, rng, full_map))
        return make_directory(name)

    fs.make_directory = hooked
    owner = SimpleNamespace(profile=profile, rng=rng, fs=fs)
    build = (
        build_initial_tree
        if fs_class is ScalarFileSystem
        else WorkloadGenerator._build_initial_tree
    )
    try:
        build(owner)
        WorkloadGenerator._create_log_file(owner)
    except AllocationError:
        # The layout up to the file that did not fit must match; the
        # generator state need not, since a batched directory has drawn
        # all of its sizes before its first file is laid out.
        snapshots.append(snapshot(fs, rng, True)[:-1])
        return "full", snapshots
    snapshots.append(snapshot(fs, rng, True))
    return "built", snapshots


def assert_same_population(profile, partition, bpc, seed, prefill=None,
                           full_map=True):
    expected = populate(
        ScalarFileSystem, profile, partition, bpc, seed, prefill, full_map
    )
    actual = populate(FileSystem, profile, partition, bpc, seed, prefill, full_map)
    assert actual[0] == expected[0]
    assert len(actual[1]) == len(expected[1])
    for step, (got, want) in enumerate(zip(actual[1], expected[1])):
        assert got == want, f"diverged before directory {step}"
    return expected[0]


def random_case(seed: int):
    """A small random geometry and profile, and maybe a prefill that
    fragments the free map."""
    r = random.Random(seed)
    bpc = r.randint(2, 12)
    cylinders = r.randint(1, 8)
    group_blocks = bpc * cylinders
    inode_blocks = r.randint(1, min(3, group_blocks - 1))
    capacity = group_blocks - inode_blocks
    files = r.randint(1, 16)
    directories = r.randint(1, 8)
    # Small files mostly take their run in one slice; large ones spill.
    mean = r.uniform(1.0, max(1.5, capacity * r.choice([0.05, 0.6])))
    cap = r.randint(1, 2 * capacity + 2)
    expected = directories * files * min(mean, cap) + 8
    fullness = r.uniform(0.4, 1.3)
    prefilled = r.random() < 0.5
    groups = max(1, int(expected / fullness / capacity) + 1)
    if prefilled:
        groups += groups // 2 + 1
    tail = r.randint(0, group_blocks - 1)
    total = groups * group_blocks + tail
    profile = dataclasses.replace(
        USERS_FS_PROFILE,
        name=f"random{seed}",
        num_directories=directories,
        files_per_directory=files,
        mean_file_blocks=mean,
        max_file_blocks=cap,
        cylinders_per_group=cylinders,
        inode_blocks_per_group=inode_blocks,
        fs_interleave=r.randint(0, 3),
        directory_placement=r.choice(["scatter", "first-fit"]),
    )
    partition = Partition("fs", r.randint(0, 1000), total)

    prefill_seed = r.getrandbits(32)

    def prefill(allocator) -> None:
        r = random.Random(prefill_seed)
        taken: list[int] = []
        target = allocator.free_blocks * r.uniform(0.2, 0.6)
        while len(taken) < target:
            size = r.randint(1, 2 * capacity)
            hint = r.randint(0, 3 * groups)
            taken += allocator.allocate_file_blocks(size, group_hint=hint)
        released = r.sample(taken, int(len(taken) * r.uniform(0.2, 0.8)))
        allocator.release_blocks(released)

    return profile, partition, bpc, prefill if prefilled else None


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_randomized_layouts_match_the_scalar_population(seed):
    outcomes = set()
    for case in range(12):
        case_seed = seed * 1000 + case
        profile, partition, bpc, prefill = random_case(case_seed)
        outcomes.add(
            assert_same_population(profile, partition, bpc, case_seed, prefill)
        )
    assert "built" in outcomes


def test_files_larger_than_a_group_spill_and_wrap():
    profile = dataclasses.replace(
        SYSTEM_FS_PROFILE,
        num_directories=3,
        files_per_directory=10,
        mean_file_blocks=30.0,
        max_file_blocks=90,
        cylinders_per_group=2,
        inode_blocks_per_group=2,
        fs_interleave=3,
    )
    partition = Partition("fs", 50, 60 * 40 + 7)
    assert assert_same_population(profile, partition, 20, 7) == "built"


@pytest.mark.parametrize("profile", [SYSTEM_FS_PROFILE, USERS_FS_PROFILE],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("disk", ["toshiba", "fujitsu"])
def test_paper_profiles_match_the_scalar_population(profile, disk):
    from repro.sim.experiment import ExperimentConfig, build_rig

    rig = build_rig(ExperimentConfig(disk=disk, name="d"))
    partition = rig.label.add_partition("fs", rig.label.virtual_total_blocks)
    assert assert_same_population(
        profile_for_disk(profile, disk),
        partition,
        rig.model.geometry.blocks_per_cylinder,
        1993,
        full_map=False,
    ) == "built"


def test_a_fleet_device_matches_the_scalar_population():
    from repro.sim.experiment import ExperimentConfig, build_rig

    rig = build_rig(ExperimentConfig(disk="modern", name="m0"))
    partition = rig.label.add_partition("fs", rig.label.virtual_total_blocks)
    profile = device_profiles(TenancySpec(), 16, hours=0.1)[0]
    assert assert_same_population(
        profile_for_disk(profile, "modern"),
        partition,
        rig.model.geometry.blocks_per_cylinder,
        4242,
        full_map=False,
    ) == "built"
