"""Tests for repro.fs.allocator — cylinder groups and interleave."""

import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.allocator import AllocationError, CylinderGroup, FFSAllocator


def make_allocator(total_blocks=2100, blocks_per_cylinder=21, **kwargs):
    return FFSAllocator(
        total_blocks=total_blocks,
        blocks_per_cylinder=blocks_per_cylinder,
        **kwargs,
    )


class TestGroupLayout:
    def test_groups_partition_the_space(self):
        allocator = make_allocator()
        # 2100 blocks / (21 * 16 = 336 per group) = 6 groups + tail.
        covered = sum(g.num_blocks for g in allocator.groups)
        assert covered <= 2100
        firsts = [g.first_block for g in allocator.groups]
        assert firsts == sorted(firsts)
        for a, b in zip(allocator.groups, allocator.groups[1:]):
            assert a.end_block == b.first_block

    def test_groups_are_built_on_first_use(self):
        """A group nothing touched is not built, and reads as the all-free
        group it would be."""
        allocator = make_allocator(total_blocks=6 * 336 + 200)
        blocks = allocator.allocate_file_blocks(3, group_hint=4)
        assert [g is not None for g in allocator._built] == [
            False, False, False, False, True, False, False
        ]
        assert allocator.group_of_block(blocks[0]).index == 4
        assert allocator.free_blocks == 6 * 334 + 198 - 3
        assert all(g is not None for g in allocator._built)
        assert allocator.groups[6].num_blocks == 200

    def test_inode_area_excluded_from_data(self):
        allocator = make_allocator(inode_blocks_per_group=2)
        group = allocator.groups[0]
        assert group.inode_block_numbers() == [0, 1]
        assert 0 not in group.free
        assert group.data_first_block == 2

    def test_too_small_partition_rejected(self):
        with pytest.raises(ValueError):
            FFSAllocator(total_blocks=0, blocks_per_cylinder=21)

    def test_group_of_block(self):
        allocator = make_allocator()
        assert allocator.group_of_block(0).index == 0
        assert allocator.group_of_block(336).index == 1
        with pytest.raises(ValueError):
            allocator.group_of_block(10**9)

    @pytest.mark.parametrize("tail", [0, 2, 3, 200])
    def test_group_of_block_matches_a_scan_of_the_groups(self, tail):
        """The O(1) lookup against a linear scan, on every block of a
        partition with no tail, a tail too short to be a group (dropped)
        and a short last group."""
        allocator = make_allocator(total_blocks=3 * 336 + tail)
        assert allocator.num_groups == 3 + (tail > 2)
        for block in range(-2, allocator.total_blocks + 5):
            owners = [
                group for group in allocator.groups
                if group.first_block <= block < group.end_block
            ]
            if owners:
                assert allocator.group_of_block(block) is owners[0]
            else:
                with pytest.raises(ValueError, match="outside every"):
                    allocator.group_of_block(block)


class TestInterleave:
    def test_consecutive_file_blocks_are_gap_separated(self):
        """FFS rotdelay: successive blocks of a file sit 1 + interleave
        slots apart (Section 4.2's premise for the interleaved policy)."""
        allocator = make_allocator(interleave=1)
        blocks = allocator.allocate_file_blocks(5)
        gaps = [b - a for a, b in zip(blocks, blocks[1:])]
        assert gaps == [2, 2, 2, 2]

    def test_interleave_zero_is_contiguous(self):
        allocator = make_allocator(interleave=0)
        blocks = allocator.allocate_file_blocks(4)
        gaps = [b - a for a, b in zip(blocks, blocks[1:])]
        assert gaps == [1, 1, 1]

    def test_second_file_fills_the_gaps(self):
        allocator = make_allocator(interleave=1)
        first = allocator.allocate_file_blocks(3)
        second = allocator.allocate_file_blocks(3, group_hint=0)
        assert not set(first) & set(second)
        # The second file occupies the gap slots of the same group.
        assert allocator.group_of_block(second[0]).index == 0


class TestGroupSelection:
    def test_hint_honored_when_space_available(self):
        allocator = make_allocator()
        blocks = allocator.allocate_file_blocks(4, group_hint=3)
        assert allocator.group_of_block(blocks[0]).index == 3

    def test_spills_to_next_group_when_full(self):
        allocator = make_allocator()
        group_capacity = allocator.groups[0].free_count
        blocks = allocator.allocate_file_blocks(group_capacity + 5, group_hint=0)
        groups_used = {allocator.group_of_block(b).index for b in blocks}
        assert groups_used == {0, 1}

    def test_full_filesystem_raises(self):
        allocator = make_allocator(total_blocks=336)
        allocator.allocate_file_blocks(allocator.free_blocks)
        with pytest.raises(AllocationError):
            allocator.allocate_file_blocks(1)

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            make_allocator().allocate_file_blocks(0)


class TestExtend:
    def test_extension_continues_interleave(self):
        allocator = make_allocator(interleave=1)
        blocks = allocator.allocate_file_blocks(3)
        more = allocator.extend_file(blocks[-1], 2)
        assert more[0] - blocks[-1] == 2

    def test_extension_spills_when_group_full(self):
        allocator = make_allocator()
        capacity = allocator.groups[0].free_count
        blocks = allocator.allocate_file_blocks(capacity)
        more = allocator.extend_file(blocks[-1], 1)
        assert allocator.group_of_block(more[0]).index == 1


class TestRelease:
    def test_release_returns_blocks_to_free_pool(self):
        allocator = make_allocator()
        before = allocator.free_blocks
        blocks = allocator.allocate_file_blocks(5)
        assert allocator.free_blocks == before - 5
        allocator.release_blocks(blocks)
        assert allocator.free_blocks == before

    def test_double_release_rejected(self):
        allocator = make_allocator()
        blocks = allocator.allocate_file_blocks(1)
        allocator.release_blocks(blocks)
        with pytest.raises(ValueError):
            allocator.release_blocks(blocks)

    def test_release_inode_block_rejected(self):
        group = make_allocator().groups[0]
        with pytest.raises(ValueError):
            group.release(0)  # inode area


@settings(deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=40), max_size=25),
    hints=st.lists(st.integers(min_value=0, max_value=100), max_size=25),
)
def test_no_block_is_ever_double_allocated(sizes, hints):
    """Allocations never overlap, regardless of sizes and hints."""
    allocator = make_allocator(total_blocks=4200)
    allocated: set[int] = set()
    hints = hints + [0] * len(sizes)
    for size, hint in zip(sizes, hints):
        try:
            blocks = allocator.allocate_file_blocks(size, group_hint=hint)
        except AllocationError:
            break
        assert not set(blocks) & allocated
        allocated.update(blocks)
    # Conservation: free + allocated covers every data block exactly once.
    data_total = sum(
        g.num_blocks - g.inode_blocks for g in allocator.groups
    )
    assert allocator.free_blocks + len(allocated) == data_total


def _fill(allocator):
    allocator.allocate_file_blocks(allocator.free_blocks)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork",
)
def test_forked_child_writes_do_not_reach_the_parent_map():
    """The partition-wide map is process-private memory: a forked child
    that fills the file system leaves the parent's map untouched."""
    allocator = make_allocator(interleave=0)
    child = multiprocessing.get_context("fork").Process(
        target=_fill, args=(allocator,)
    )
    child.start()
    child.join(timeout=60)
    assert not child.is_alive()
    assert child.exitcode == 0
    blocks = allocator.allocate_file_blocks(3)
    assert blocks == [2, 3, 4]


class TestCylinderGroupValidation:
    def test_inode_area_must_leave_data_room(self):
        with pytest.raises(ValueError):
            CylinderGroup(index=0, first_block=0, num_blocks=2, inode_blocks=2)
