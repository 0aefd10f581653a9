"""Tests for repro.fs.ufs — the simplified UFS."""

import pytest

from repro.disk.label import Partition
from repro.fs.ufs import INODES_PER_BLOCK, FileSystem, FileSystemError


def make_fs(start=1000, blocks=4200, **kwargs):
    partition = Partition(name="fs0", start_block=start, num_blocks=blocks)
    return FileSystem(partition=partition, blocks_per_cylinder=21, **kwargs)


class TestNamespace:
    def test_create_and_lookup(self):
        fs = make_fs()
        fs.make_directory("bin")
        inode = fs.create_file("bin", "ls", 4)
        assert fs.lookup("bin", "ls") is inode
        assert inode.size_blocks == 4

    def test_duplicate_directory_rejected(self):
        fs = make_fs()
        fs.make_directory("bin")
        with pytest.raises(FileSystemError):
            fs.make_directory("bin")

    def test_duplicate_file_rejected(self):
        fs = make_fs()
        fs.make_directory("bin")
        fs.create_file("bin", "ls", 1)
        with pytest.raises(FileSystemError):
            fs.create_file("bin", "ls", 1)

    def test_missing_directory_rejected(self):
        fs = make_fs()
        with pytest.raises(FileSystemError):
            fs.create_file("nope", "x", 1)

    def test_missing_file_rejected(self):
        fs = make_fs()
        fs.make_directory("bin")
        with pytest.raises(FileSystemError):
            fs.lookup("bin", "nope")

    def test_rename(self):
        fs = make_fs()
        fs.make_directory("home")
        inode = fs.create_file("home", "draft", 2)
        assert fs.rename("home", "draft", "paper") is inode
        assert fs.lookup("home", "paper") is inode
        with pytest.raises(FileSystemError):
            fs.lookup("home", "draft")

    def test_rename_collision_rejected(self):
        fs = make_fs()
        fs.make_directory("home")
        fs.create_file("home", "a", 1)
        fs.create_file("home", "b", 1)
        with pytest.raises(FileSystemError):
            fs.rename("home", "a", "b")

    def test_delete_frees_blocks(self):
        fs = make_fs()
        fs.make_directory("tmp")
        before = fs.free_blocks
        fs.create_file("tmp", "scratch", 10)
        fs.delete_file("tmp", "scratch")
        assert fs.free_blocks == before
        with pytest.raises(FileSystemError):
            fs.lookup("tmp", "scratch")


class TestAddressing:
    def test_data_blocks_are_partition_relative_plus_offset(self):
        fs = make_fs(start=1000)
        fs.make_directory("bin")
        inode = fs.create_file("bin", "ls", 3)
        assert all(block >= 1000 for block in inode.data_blocks)
        assert all(block < 1000 + 4200 for block in inode.data_blocks)

    def test_inode_block_in_directory_group(self):
        fs = make_fs(start=0)
        fs.make_directory("bin")
        inode = fs.create_file("bin", "ls", 1)
        group_hint = fs.directories["bin"].group_hint
        group = fs._allocator.groups[group_hint]
        assert inode.inode_block in group.inode_block_numbers()

    def test_many_files_share_an_inode_block(self):
        fs = make_fs(inode_blocks_per_group=1)
        fs.make_directory("bin")
        inodes = [fs.create_file("bin", f"f{i}", 1) for i in range(10)]
        inode_blocks = {inode.inode_block for inode in inodes}
        assert len(inode_blocks) == 1  # 64 inodes per block

    def test_superblock_is_partition_start(self):
        fs = make_fs(start=777)
        assert fs.superblock() == 777

    def test_metadata_block_of(self):
        fs = make_fs(start=1000)
        fs.make_directory("bin")
        inode = fs.create_file("bin", "ls", 1)
        meta = fs.metadata_block_of(inode.data_blocks[0])
        group_hint = fs.directories["bin"].group_hint
        group = fs._allocator.groups[group_hint]
        assert meta == 1000 + group.first_block

    def test_directory_inode_block(self):
        fs = make_fs(start=1000)
        fs.make_directory("bin")
        block = fs.directory_inode_block("bin")
        group_hint = fs.directories["bin"].group_hint
        group = fs._allocator.groups[group_hint]
        assert block == 1000 + group.inode_block_numbers()[0]

    def test_directory_inode_block_missing_dir(self):
        with pytest.raises(FileSystemError):
            make_fs().directory_inode_block("ghost")


class TestDirectoryPlacement:
    def test_scatter_spreads_over_groups(self):
        fs = make_fs(blocks=21 * 16 * 12, directory_placement="scatter")
        hints = [
            fs.make_directory(f"d{i}").group_hint for i in range(8)
        ]
        # Golden-ratio stride: directories land far apart.
        assert len(set(hints)) == 8
        assert max(hints) - min(hints) > fs.num_groups // 2

    def test_first_fit_clusters_low_groups(self):
        fs = make_fs(blocks=21 * 16 * 12, directory_placement="first-fit")
        first = fs.make_directory("home0")
        assert first.group_hint == 0
        fs.create_file("home0", "big", 100)
        second = fs.make_directory("home1")
        # The emptiest group now is group 1 (group 0 partly filled).
        assert second.group_hint == 1


class TestExtend:
    def test_extend_appends_blocks(self):
        fs = make_fs()
        fs.make_directory("home")
        inode = fs.create_file("home", "log", 2)
        new = fs.extend_file("home", "log", 3)
        assert len(new) == 3
        assert inode.data_blocks[-3:] == new

    def test_extend_missing_file(self):
        fs = make_fs()
        fs.make_directory("home")
        with pytest.raises(FileSystemError):
            fs.extend_file("home", "nope", 1)


class TestPopulateDirectory:
    def test_matches_one_populate_file_per_file(self):
        files = [("a", 3), ("b", 1), ("c", 7), ("d", 400)]
        one_by_one = make_fs(interleave=2)
        batched = make_fs(interleave=2)
        for fs in (one_by_one, batched):
            fs.make_directory("bin")
        expected = [one_by_one.create_file("bin", n, k) for n, k in files]
        assert batched.populate_directory("bin", files) == expected
        assert batched.all_files() == one_by_one.all_files()
        assert batched.free_blocks == one_by_one.free_blocks

    @pytest.mark.parametrize("names", [["ls", "ls"], ["cat", "old"]])
    def test_taken_name_creates_nothing(self, names):
        fs = make_fs()
        fs.make_directory("bin")
        fs.create_file("bin", "old", 1)
        free = fs.free_blocks
        with pytest.raises(FileSystemError, match="exists"):
            fs.populate_directory("bin", [(name, 2) for name in names])
        assert [name for __, name, __ in fs.all_files()] == ["old"]
        assert fs.free_blocks == free

    def test_missing_directory_rejected(self):
        with pytest.raises(FileSystemError):
            make_fs().populate_directory("nope", [("x", 1)])


class TestIntrospection:
    def test_all_files(self):
        fs = make_fs()
        fs.make_directory("a")
        fs.make_directory("b")
        fs.create_file("a", "x", 1)
        fs.create_file("b", "y", 1)
        names = {(d, n) for d, n, __ in fs.all_files()}
        assert names == {("a", "x"), ("b", "y")}

    def test_inode_blocks_in_use(self):
        fs = make_fs()
        fs.make_directory("a")
        fs.create_file("a", "x", 1)
        assert len(fs.inode_blocks_in_use()) == 1

    def test_inodes_per_block_constant(self):
        assert INODES_PER_BLOCK == 64
