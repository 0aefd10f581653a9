"""Tests for repro.driver.blocktable — redirection map and recovery.

Both implementations — the array-backed :class:`BlockTable` (the default)
and the dict-of-entries :class:`DictBlockTable` (the reference) — must pass
the same contract tests, and a randomized mirror test drives them through
identical add/remove/dirty/flush/crash/recover interleavings (seeded like
the fault stress suite; reproduce with ``FAULT_STRESS_SEED=<n>``) and
requires identical observable state after every step.
"""

import os
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.driver.blocktable import BlockTable, DictBlockTable

IMPLEMENTATIONS = [BlockTable, DictBlockTable]

STRESS_SEEDS = [3, 17, 1993]
if os.environ.get("FAULT_STRESS_SEED"):
    STRESS_SEEDS.append(int(os.environ["FAULT_STRESS_SEED"]))


@pytest.fixture(params=IMPLEMENTATIONS, ids=lambda cls: cls.__name__)
def make_table(request):
    return request.param


class TestBasicOperations:
    def test_empty_table(self, make_table):
        table = make_table()
        assert len(table) == 0
        assert table.lookup(5) is None
        assert 5 not in table

    def test_add_and_lookup(self, make_table):
        table = make_table()
        entry = table.add(100, 9000)
        assert table.lookup(100) == entry
        assert entry.reserved_block == 9000
        assert not entry.dirty
        assert 100 in table

    def test_reserved_of(self, make_table):
        table = make_table()
        table.add(100, 9000)
        assert table.reserved_of(100) == 9000
        assert table.reserved_of(101) == -1

    def test_reverse_lookup(self, make_table):
        table = make_table()
        table.add(100, 9000)
        assert table.original_of(9000) == 100
        assert table.original_of(9001) is None

    def test_duplicate_original_rejected(self, make_table):
        table = make_table()
        table.add(100, 9000)
        with pytest.raises(ValueError):
            table.add(100, 9001)

    def test_occupied_reserved_slot_rejected(self, make_table):
        table = make_table()
        table.add(100, 9000)
        with pytest.raises(ValueError):
            table.add(200, 9000)

    def test_remove(self, make_table):
        table = make_table()
        table.add(100, 9000)
        entry = table.remove(100)
        assert entry.original_block == 100
        assert table.lookup(100) is None
        assert table.original_of(9000) is None
        # The freed slot can be reused.
        table.add(300, 9000)

    def test_remove_missing_raises(self, make_table):
        with pytest.raises(KeyError):
            make_table().remove(4)

    def test_capacity_enforced(self, make_table):
        table = make_table(capacity=1)
        table.add(1, 9000)
        with pytest.raises(ValueError):
            table.add(2, 9001)

    def test_entries_in_insertion_order(self, make_table):
        table = make_table()
        table.add(5, 9000)
        table.add(3, 9001)
        assert [e.original_block for e in table.entries()] == [5, 3]

    def test_readd_moves_to_end_of_insertion_order(self, make_table):
        table = make_table()
        table.add(5, 9000)
        table.add(3, 9001)
        table.remove(5)
        table.add(5, 9002)
        assert [e.original_block for e in table.entries()] == [3, 5]

    def test_clear(self, make_table):
        table = make_table()
        table.add(5, 9000)
        table.clear()
        assert len(table) == 0


class TestDirtyBits:
    def test_mark_dirty(self, make_table):
        table = make_table()
        table.add(100, 9000)
        table.mark_dirty(100)
        assert table.lookup(100).dirty
        assert [e.original_block for e in table.dirty_entries()] == [100]

    def test_mark_dirty_missing_raises(self, make_table):
        with pytest.raises(KeyError):
            make_table().mark_dirty(100)


class TestPersistenceAndRecovery:
    def test_disk_copy_reflects_writes(self, make_table):
        table = make_table()
        table.add(100, 9000)
        table.write_to_disk()
        assert table.disk_copy() == {100: (9000, False)}

    def test_disk_copy_is_stale_until_written(self, make_table):
        """The disk copy lags the memory table — in particular, dirty bits
        'may not always be up-to-date in the disk-resident copy'."""
        table = make_table()
        table.add(100, 9000)
        table.write_to_disk()
        table.mark_dirty(100)  # not flushed
        assert table.disk_copy()[100] == (9000, False)

    def test_crash_loses_memory_table(self, make_table):
        table = make_table()
        table.add(100, 9000)
        table.write_to_disk()
        table.crash()
        assert len(table) == 0

    def test_recover_marks_everything_dirty(self, make_table):
        """Section 4.1.2: after a failure all entries are conservatively
        marked dirty so updates are never lost."""
        table = make_table()
        table.add(100, 9000)
        table.add(200, 9001)
        table.write_to_disk()
        table.crash()
        table.recover()
        assert len(table) == 2
        assert all(entry.dirty for entry in table.entries())
        assert table.lookup(100).reserved_block == 9000

    def test_entries_added_after_flush_are_lost_in_crash(self, make_table):
        table = make_table()
        table.add(100, 9000)
        table.write_to_disk()
        table.add(200, 9001)  # never flushed
        table.crash()
        table.recover()
        assert table.lookup(200) is None
        assert table.lookup(100) is not None

    def test_recover_restores_reverse_index(self, make_table):
        table = make_table()
        table.add(100, 9000)
        table.write_to_disk()
        table.crash()
        table.recover()
        assert table.original_of(9000) == 100

    def test_readd_between_flushes_reorders_disk_copy(self, make_table):
        """An entry removed and re-added lands at the end of the disk copy,
        exactly as a full snapshot of the memory table would place it."""
        table = make_table()
        table.add(1, 9000)
        table.add(2, 9001)
        table.add(3, 9002)
        table.write_to_disk()
        table.remove(2)
        table.add(2, 9003)
        table.mark_dirty(1)
        table.write_to_disk()
        assert list(table.disk_copy().items()) == [
            (1, (9000, True)),
            (3, (9002, False)),
            (2, (9003, False)),
        ]


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=20_000, max_value=30_000),
        ),
        max_size=50,
        unique_by=(lambda p: p[0], lambda p: p[1]),
    )
)
def test_mapping_is_always_a_bijection(pairs):
    """At all times the table is a bijection original <-> reserved."""
    table = BlockTable()
    for original, reserved in pairs:
        table.add(original, reserved)
    originals = [e.original_block for e in table.entries()]
    reserveds = [e.reserved_block for e in table.entries()]
    assert len(set(originals)) == len(originals)
    assert len(set(reserveds)) == len(reserveds)
    for entry in table.entries():
        assert table.original_of(entry.reserved_block) == entry.original_block


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=2000, max_value=3000),
        ),
        min_size=1,
        max_size=30,
        unique_by=(lambda p: p[0], lambda p: p[1]),
    ),
    dirty_index=st.integers(min_value=0, max_value=29),
)
def test_crash_recovery_preserves_flushed_mapping(pairs, dirty_index):
    """Recovery reproduces exactly the flushed mapping, all-dirty."""
    table = BlockTable()
    for original, reserved in pairs:
        table.add(original, reserved)
    table.mark_dirty(pairs[dirty_index % len(pairs)][0])
    table.write_to_disk()
    table.crash()
    table.recover()
    assert sorted((e.original_block, e.reserved_block) for e in table.entries()) == sorted(pairs)
    assert all(e.dirty for e in table.entries())


def _observable_state(table):
    return {
        "len": len(table),
        "entries": [
            (e.original_block, e.reserved_block, e.dirty)
            for e in table.entries()
        ],
        "dirty": [e.original_block for e in table.dirty_entries()],
        "occupied": sorted(table.occupied_reserved_blocks()),
        "disk": list(table.disk_copy().items()),
    }


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_array_table_matches_dict_table_under_stress(seed):
    """The array table is observably identical to the dict reference.

    Drives both implementations through the same seeded interleaving of
    add / remove / mark_dirty / write_to_disk / crash / recover (the same
    operation mix the fault-injection paths use: media-error evictions
    remove and later re-add blocks between flushes) and compares the full
    observable state — entry order, dirty bits, reverse map, and the
    on-disk copy's contents *and* iteration order — after every step.
    """
    rng = random.Random(seed)
    _drive_mirror(
        rng,
        BlockTable(capacity=64),
        DictBlockTable(capacity=64),
        originals=list(range(0, 400)),
        reserveds=list(range(5000, 5400)),
    )


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_presized_array_table_matches_dict_table_under_stress(seed):
    """The same mirror, with both tables pre-sized as the driver does.

    Half of the original blocks lie beyond the reserved size, so ``add``
    and ``recover`` take the forward map's growth path, and the reserved
    blocks are spread across a whole ``modern`` address space, so the
    reverse map holds sparse keys far beyond the forward map's length.
    """
    rng = random.Random(seed)
    presize = 4096
    array_table = BlockTable(capacity=64)
    dict_table = DictBlockTable(capacity=64)
    array_table.reserve(presize)
    dict_table.reserve(presize)
    originals = sorted(
        {presize - 1, presize, *rng.sample(range(2 * presize), 400)}
    )
    reserveds = rng.sample(range(2_097_152), 400)
    _drive_mirror(rng, array_table, dict_table, originals, reserveds)


def _drive_mirror(rng, array_table, dict_table, originals, reserveds):
    for _ in range(600):
        op = rng.choices(
            ["add", "remove", "dirty", "flush", "crash_recover", "lookup"],
            weights=[40, 20, 20, 10, 3, 7],
        )[0]
        if op == "add":
            original = rng.choice(originals)
            reserved = rng.choice(reserveds)
            try:
                a = array_table.add(original, reserved)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    dict_table.add(original, reserved)
            else:
                d = dict_table.add(original, reserved)
                assert a == d
        elif op == "remove":
            original = rng.choice(originals)
            try:
                a = array_table.remove(original)
            except KeyError:
                with pytest.raises(KeyError):
                    dict_table.remove(original)
            else:
                d = dict_table.remove(original)
                assert a == d
        elif op == "dirty":
            original = rng.choice(originals)
            try:
                array_table.mark_dirty(original)
            except KeyError:
                with pytest.raises(KeyError):
                    dict_table.mark_dirty(original)
            else:
                dict_table.mark_dirty(original)
        elif op == "flush":
            array_table.write_to_disk()
            dict_table.write_to_disk()
        elif op == "crash_recover":
            array_table.crash()
            dict_table.crash()
            assert _observable_state(array_table) == _observable_state(
                dict_table
            )
            array_table.recover()
            dict_table.recover()
        else:
            probe = rng.choice(originals)
            assert array_table.lookup(probe) == dict_table.lookup(probe)
            assert array_table.reserved_of(probe) == dict_table.reserved_of(
                probe
            )
            reserved_probe = rng.choice(reserveds)
            assert array_table.original_of(
                reserved_probe
            ) == dict_table.original_of(reserved_probe)
        assert _observable_state(array_table) == _observable_state(dict_table)


def test_reserve_peak_memory_is_the_forward_array():
    """Reserving a ``modern`` device allocates the forward map and nothing
    else of its size: no n-element temporary list, and no address-space
    sized reverse map or dirty bits.  Entries added afterwards, however
    far apart, cost per-entry memory only."""
    num_blocks = 2_097_152
    forward_bytes = num_blocks * array("i").itemsize  # 8 MiB
    slack = 256 * 1024
    tracemalloc.start()
    try:
        table = BlockTable()
        table.reserve(num_blocks)
        for i in range(64):
            original = num_blocks - 1 - i * 30_000
            table.add(original, i * 32_000)
            table.mark_dirty(original)
        table.write_to_disk()
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 64
    assert peak <= forward_bytes + slack, peak
