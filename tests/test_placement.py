"""Tests for repro.core.placement — the three Section 4.2 policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import (
    InterleavedPlacement,
    OrganPipePlacement,
    ReservedCylinder,
    ReservedLayout,
    SerialPlacement,
    make_policy,
)
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F


def small_layout(cylinders=3, blocks_per_cylinder=4, first_cyl=100):
    """A toy reserved area like the paper's Figure 3 example: three
    cylinders with four blocks each."""
    cyls = []
    for i in range(cylinders):
        base = 10_000 + i * blocks_per_cylinder
        cyls.append(
            ReservedCylinder(
                cylinder=first_cyl + i,
                blocks=range(base, base + blocks_per_cylinder),
            )
        )
    return ReservedLayout(tuple(cyls))


class TestReservedLayout:
    def test_from_label_groups_by_cylinder(self):
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
        layout = ReservedLayout.from_label(label)
        assert len(layout.cylinders) == 48
        assert layout.capacity == label.reserved_capacity_blocks()
        # First cylinder misses the block-table home blocks.
        assert len(layout.cylinders[0].blocks) == 21 - 2
        assert all(len(c.blocks) == 21 for c in layout.cylinders[1:])

    def test_from_label_requires_reserved_area(self):
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=0)
        with pytest.raises(ValueError):
            ReservedLayout.from_label(label)

    def test_center_out_order(self):
        layout = small_layout(cylinders=5)
        assert layout.center_out_indices() == [2, 3, 1, 4, 0]

    def test_center_out_order_even(self):
        layout = small_layout(cylinders=4)
        assert layout.center_out_indices() == [2, 3, 1, 0]

    def test_blocks_in_ascending_order(self):
        layout = small_layout()
        blocks = layout.blocks_in_ascending_order()
        assert blocks == sorted(blocks)


class TestOrganPipe:
    def test_hottest_blocks_fill_center_cylinder_first(self):
        """Figure 3 semantics: the four hottest blocks land on the middle
        cylinder, the next four on one adjacent cylinder, and so on."""
        layout = small_layout()
        hot = [(b, 100 - b) for b in range(12)]
        by_block = dict(OrganPipePlacement().place(hot, layout))
        center_blocks = set(layout.cylinders[1].blocks)
        assert {by_block[b] for b in range(4)} == center_blocks
        upper_blocks = set(layout.cylinders[2].blocks)
        assert {by_block[b] for b in range(4, 8)} == upper_blocks
        lower_blocks = set(layout.cylinders[0].blocks)
        assert {by_block[b] for b in range(8, 12)} == lower_blocks

    def test_moves_in_hot_list_order(self):
        layout = small_layout()
        moves = OrganPipePlacement().place([(5, 10), (6, 9)], layout)
        assert [block for block, __ in moves] == [5, 6]

    def test_overflow_dropped(self):
        layout = small_layout(cylinders=1)  # 4 slots
        hot = [(b, 10) for b in range(9)]
        assert len(OrganPipePlacement().place(hot, layout)) == 4


class TestSerial:
    def test_ascending_block_number_order(self):
        """Blocks are placed in ascending order of their *original* block
        numbers, regardless of frequency."""
        layout = small_layout()
        hot = [(30, 100), (20, 75), (10, 50)]
        by_block = dict(SerialPlacement().place(hot, layout))
        slots = layout.blocks_in_ascending_order()
        assert by_block[10] == slots[0]
        assert by_block[20] == slots[1]
        assert by_block[30] == slots[2]

    def test_frequency_still_selects_which_blocks_move(self):
        layout = small_layout(cylinders=1)  # 4 slots
        hot = [(b, 100 - b) for b in range(10)]
        moves = SerialPlacement().place(hot, layout)
        assert sorted(block for block, __ in moves) == [0, 1, 2, 3]


class TestInterleaved:
    def test_successor_chain_preserves_gap(self):
        """X at slot s puts its file successor (original gap 2) at slot
        s + 2 inside the reserved cylinder."""
        layout = small_layout(blocks_per_cylinder=6)
        # Blocks 100, 102, 104 form a chain with close frequencies.
        hot = [(100, 100), (102, 90), (104, 85)]
        by_block = dict(InterleavedPlacement(gap_blocks=2).place(hot, layout))
        center = layout.cylinders[1].blocks
        assert by_block[100] == center[0]
        assert by_block[102] == center[2]
        assert by_block[104] == center[4]

    def test_cold_successor_breaks_chain(self):
        """Y is only a successor if count(Y) >= 50% of count(X)."""
        layout = small_layout(blocks_per_cylinder=6)
        hot = [(100, 100), (102, 10)]
        by_block = dict(InterleavedPlacement(gap_blocks=2).place(hot, layout))
        center = layout.cylinders[1].blocks
        assert by_block[100] == center[0]
        # 102 starts its own chain at the next free slot, not slot 2.
        assert by_block[102] == center[1]

    def test_gap_slots_filled_by_new_chains(self):
        layout = small_layout(blocks_per_cylinder=4)
        hot = [(100, 100), (102, 90), (7, 80), (9, 40)]
        moves = InterleavedPlacement(gap_blocks=2).place(hot, layout)
        assert len(moves) == 4  # everything fits in the center cylinder
        center = set(layout.cylinders[1].blocks)
        assert {slot for __, slot in moves} == center

    def test_all_blocks_placed_without_duplicates(self):
        layout = small_layout(cylinders=5, blocks_per_cylinder=8)
        hot = [(b * 2, 100 - b) for b in range(30)]
        moves = InterleavedPlacement().place(hot, layout)
        assert len(moves) == 30
        targets = [slot for __, slot in moves]
        assert len(set(targets)) == len(targets)

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            InterleavedPlacement(gap_blocks=0)


class TestRegistry:
    def test_make_policy(self):
        assert make_policy("organ-pipe").name == "organ-pipe"
        assert make_policy("interleaved").name == "interleaved"
        assert make_policy("serial").name == "serial"

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_policy("random")


@pytest.mark.parametrize("policy_name", ["organ-pipe", "interleaved", "serial"])
@settings(deadline=None, max_examples=25)
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5000),
            st.integers(min_value=1, max_value=1000),
        ),
        max_size=60,
        unique_by=lambda p: p[0],
    )
)
def test_policies_produce_valid_injective_placements(policy_name, pairs):
    """Every policy: no duplicate sources, no duplicate targets, all
    targets inside the reserved area, never exceeding capacity."""
    layout = small_layout(cylinders=5, blocks_per_cylinder=8)
    hot = sorted(pairs, key=lambda pair: (-pair[1], pair[0]))  # ranked
    moves = make_policy(policy_name).place(hot, layout)
    sources = [block for block, __ in moves]
    targets = [slot for __, slot in moves]
    assert len(set(sources)) == len(sources)
    assert len(set(targets)) == len(targets)
    all_slots = {b for c in layout.cylinders for b in c.blocks}
    assert set(targets) <= all_slots
    assert len(moves) == min(len(pairs), layout.capacity)
