"""Tests for repro.core.arranger — planning and executing rearrangement."""

import pytest

from repro.core.arranger import BlockArranger
from repro.core.placement import make_policy
from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.ioctl import IoctlInterface


@pytest.fixture
def ioctl():
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
    return IoctlInterface(driver)


class TestPlanning:
    def test_plan_respects_requested_count(self, ioctl):
        arranger = BlockArranger(ioctl)
        hot = [(b, 100 - b) for b in range(50)]
        moves = arranger.plan(hot, num_blocks=10)
        assert len(moves) == 10
        assert arranger.policy.name == "organ-pipe"
        # The ten hottest blocks are the ones chosen.
        assert sorted(block for block, __ in moves) == list(range(10))

    def test_plan_clipped_to_reserved_capacity(self, ioctl):
        arranger = BlockArranger(ioctl)
        capacity = ioctl.get_reserved_area().capacity_blocks
        hot = [(b, 2) for b in range(capacity + 500)]
        moves = arranger.plan(hot, num_blocks=capacity + 500)
        assert len(moves) == capacity

    def test_policy_choice(self, ioctl):
        arranger = BlockArranger(ioctl, policy=make_policy("serial"))
        by_block = dict(arranger.plan([(9, 5), (3, 4)], num_blocks=2))
        # Serial: ascending original order maps to ascending slots.
        assert by_block[3] < by_block[9]

    def test_negative_count_rejected(self, ioctl):
        with pytest.raises(ValueError):
            BlockArranger(ioctl).plan([], -1)


class TestExecution:
    def test_execute_populates_block_table(self, ioctl):
        arranger = BlockArranger(ioctl)
        hot = [(b, 10) for b in range(5)]
        moves, finish = arranger.rearrange(hot, num_blocks=5, now_ms=0.0)
        assert finish > 0
        assert len(ioctl.driver.block_table) == 5
        for logical_block, reserved_block in moves:
            entry = ioctl.driver.block_table.lookup(
                ioctl.driver.label.virtual_to_physical_block(logical_block)
            )
            assert entry is not None
            assert entry.reserved_block == reserved_block

    def test_execute_cleans_previous_arrangement(self, ioctl):
        arranger = BlockArranger(ioctl)
        arranger.rearrange([(1, 10), (2, 9)], num_blocks=2, now_ms=0.0)
        arranger.rearrange([(3, 10)], num_blocks=1, now_ms=1000.0)
        table = ioctl.driver.block_table
        assert len(table) == 1
        physical = ioctl.driver.label.virtual_to_physical_block(3)
        assert table.lookup(physical) is not None

    def test_execute_moves_data(self, ioctl):
        ioctl.driver.disk.write_data(0, "hot-data")
        arranger = BlockArranger(ioctl)
        moves, __ = arranger.rearrange([(0, 10)], num_blocks=1, now_ms=0.0)
        [(__, reserved)] = moves
        assert ioctl.driver.disk.read_data(reserved) == "hot-data"
        assert ioctl.driver.read_data(0) == "hot-data"

    def test_rearrangement_io_cost_is_three_per_block(self, ioctl):
        """DKIOCBCOPY costs three I/O operations per block (Section
        4.1.3)."""
        arranger = BlockArranger(ioctl)
        arranger.rearrange([(b, 10) for b in range(7)], num_blocks=7, now_ms=0.0)
        counter = ioctl.driver.io_counter
        assert counter.copy_in_ios == 14  # 2 data I/Os per block
        assert counter.table_write_ios == 7  # 1 table write per block
