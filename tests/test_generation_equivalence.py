"""Stream-exactness harness for the batched workload generator.

``poisson_arrivals``, the generator's day loop (timeline, file opens,
sessions, churn, syncs) and ``BufferCache`` were rewritten to batch their
numpy draws and cache writes.  The rewrite must not change a single draw:
every job, step, reference count, cached entry and the final
``rng.bit_generator.state`` has to match the scalar code it replaced.
That scalar code lives on below, verbatim, as the reference; the tests
compare the two over randomized profiles and several days.

CI runs extra pinned seeds; a failure reproduces with
``GEN_STRESS_SEED=<n>``.
"""

from __future__ import annotations

import dataclasses
import os
import random
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.request import Op
from repro.fs.allocator import AllocationError
from repro.fs.buffercache import BufferCache
from repro.fs.ufs import FileSystemError, Inode
from repro.sim.jobs import Job, batch_job, sequential_job
from repro.workload import generator as generator_module
from repro.workload.distributions import geometric_run_length, zipf_weights
from repro.workload.distributions import poisson_arrivals as batched_arrivals
from repro.workload.generator import DayWorkload, WorkloadGenerator
from repro.workload.profiles import SYSTEM_FS_PROFILE, USERS_FS_PROFILE

STRESS_SEEDS = [5, 17, 29]
if os.environ.get("GEN_STRESS_SEED"):
    STRESS_SEEDS.append(int(os.environ["GEN_STRESS_SEED"]))


# ----------------------------------------------------------------------
# The reference: the scalar code the batched generator replaced
# ----------------------------------------------------------------------


def poisson_arrivals(
    rng: np.random.Generator,
    rate_per_ms: float,
    duration_ms: float,
    clump_mean: float = 1.0,
    clump_spread_ms: float = 200.0,
) -> list[float]:
    """Arrival times of a (possibly clumped) Poisson process.

    With ``clump_mean > 1`` the process is a Poisson cluster process:
    cluster centers arrive at ``rate / clump_mean`` and each center spawns a
    geometric number of arrivals spread over ``clump_spread_ms``.  This
    models the bursty multi-client request pattern the paper observed
    ("the request arrival pattern was very bursty", Section 5.2).
    """
    if rate_per_ms < 0:
        raise ValueError("rate must be non-negative")
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    if clump_mean < 1.0:
        raise ValueError("clump_mean must be at least 1")
    arrivals: list[float] = []
    center_rate = rate_per_ms / clump_mean
    t = 0.0
    while True:
        if center_rate <= 0:
            break
        t += rng.exponential(1.0 / center_rate)
        if t >= duration_ms:
            break
        size = int(rng.geometric(1.0 / clump_mean)) if clump_mean > 1 else 1
        for __ in range(size):
            offset = rng.uniform(0.0, clump_spread_ms) if size > 1 else 0.0
            when = t + offset
            if when < duration_ms:
                arrivals.append(when)
    arrivals.sort()
    return arrivals


@dataclass
class ReferenceBufferCache:
    """LRU write-back cache of logical device blocks."""

    capacity_blocks: int
    _entries: OrderedDict[int, bool] = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        if self.capacity_blocks <= 0:
            raise ValueError("cache must hold at least one block")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    # ------------------------------------------------------------------
    # The file-system-facing operations
    # ------------------------------------------------------------------

    def write(self, block: int) -> int | None:
        """Dirty ``block`` in the cache (write-back, no disk I/O yet).

        Returns an evicted dirty block if the insertion displaced one.
        """
        if block in self._entries:
            self._entries.move_to_end(block)
            self._entries[block] = True
            return None
        return self._insert(block)

    def _insert(self, block: int) -> int | None:
        evicted_dirty: int | None = None
        if len(self._entries) >= self.capacity_blocks:
            old_block, old_dirty = self._entries.popitem(last=False)
            if old_dirty:
                evicted_dirty = old_block
        self._entries[block] = True
        return evicted_dirty

    # ------------------------------------------------------------------
    # The periodic update policy
    # ------------------------------------------------------------------

    def dirty_blocks(self) -> list[int]:
        return [block for block, dirty in self._entries.items() if dirty]

    def sync(self) -> list[int]:
        """Flush: return every dirty block (in LRU order) and mark it clean.

        The caller issues the returned blocks to the driver as one burst.
        """
        dirty = self.dirty_blocks()
        for block in dirty:
            self._entries[block] = False
        return dirty

    def invalidate(self, block: int) -> None:
        self._entries.pop(block, None)

    def clear(self) -> None:
        self._entries.clear()


class ReferenceGenerator(WorkloadGenerator):
    """The scalar day loop: one event tuple, one numpy call and one cache
    write at a time, with evicted blocks queued on the generator."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cache = ReferenceBufferCache(self.profile.cache_blocks)
        self._pending_evicted: list[int] = []

    def _register_file(self, inode: Inode) -> None:
        """Add a newly created file to the popularity model.

        A new file occasionally becomes immediately popular (a fresh
        document everyone opens); usually it starts cool.
        """
        self._inodes.append(inode)
        n = len(self._inodes)
        self._weights = zipf_weights(
            n, self.profile.file_popularity_exponent
        )
        self._rank_of = np.append(self._rank_of, n - 1)
        if self.rng.random() < 0.25:
            other = int(self.rng.integers(0, n - 1))
            self._rank_of[n - 1], self._rank_of[other] = (
                self._rank_of[other],
                self._rank_of[n - 1],
            )
        self._probs_dirty = True

    def generate_day(self) -> DayWorkload:
        """Produce the next day's jobs (advances the generator's day)."""
        profile = self.profile
        day = self._day
        self._day += 1
        if day > 0:
            self._apply_drift()

        timeline = self._build_timeline()
        jobs: list[Job] = []
        sync_ms = profile.sync_interval_s * 1000.0
        next_sync = sync_ms
        for when, kind in timeline:
            while next_sync <= when:
                self._flush_sync(next_sync, jobs)
                next_sync += sync_ms
            if kind == "session":
                self._emit_session(when, jobs)
            elif kind == "open":
                self._emit_open(when)
            elif kind == "spike":
                self._emit_spike(when, jobs)
            elif kind == "create":
                self._emit_create(when)
            elif kind == "extend":
                self._emit_extend(when)
        while next_sync <= profile.day_ms:
            self._flush_sync(next_sync, jobs)
            next_sync += sync_ms

        jobs.sort(key=lambda job: (job.start_ms, job.job_id))
        workload = DayWorkload(day=day, jobs=jobs)
        self._count(workload)
        return workload

    def _build_timeline(self) -> list[tuple[float, str]]:
        profile = self.profile
        events: list[tuple[float, str]] = []
        rate_per_ms = profile.read_sessions_per_hour / 3_600_000.0
        for when in poisson_arrivals(
            self.rng,
            rate_per_ms,
            profile.day_ms,
            clump_mean=profile.session_clump_mean,
            clump_spread_ms=profile.clump_spread_ms,
        ):
            events.append((when, "session"))
        if profile.open_sessions_per_hour > 0:
            open_rate = profile.open_sessions_per_hour / 3_600_000.0
            for when in poisson_arrivals(
                self.rng,
                open_rate,
                profile.day_ms,
                clump_mean=profile.session_clump_mean,
                clump_spread_ms=profile.clump_spread_ms,
            ):
                events.append((when, "open"))
        if profile.spike_interval_s > 0:
            interval_ms = profile.spike_interval_s * 1000.0
            t = interval_ms
            while t < profile.day_ms:
                events.append((t, "spike"))
                t += interval_ms
        for __ in range(profile.new_files_per_day):
            events.append((self.rng.uniform(0, profile.day_ms), "create"))
        for __ in range(profile.extend_sessions_per_day):
            events.append((self.rng.uniform(0, profile.day_ms), "extend"))
        events.sort(key=lambda pair: pair[0])
        return events

    def _pick_session_file(self) -> int:
        """Choose the session's file, honoring user (directory) locality."""
        profile = self.profile
        probs = self._file_probabilities()
        if (
            profile.user_locality > 0
            and self._last_dir is not None
            and self.rng.random() < profile.user_locality
        ):
            indices = [
                i
                for i, (d, __) in enumerate(self._file_keys)
                if d == self._last_dir
            ]
            if indices:
                weights = probs[indices]
                total = weights.sum()
                if total > 0:
                    pick = self.rng.choice(len(indices), p=weights / total)
                    return indices[int(pick)]
        return self._pick_file()

    def _emit_session(self, when: float, jobs: list[Job]) -> None:
        profile = self.profile
        index = self._pick_session_file()
        self._last_dir = self._file_keys[index][0]
        inode = self._inodes[index]
        if not inode.data_blocks:
            return
        run = self._run_blocks(inode)
        if not run:
            return
        jobs.append(
            sequential_job(
                when, run, Op.READ, think_ms=profile.think_ms, name="session"
            )
        )
        is_edit = (
            profile.edit_session_fraction > 0
            and self.rng.random() < profile.edit_session_fraction
        )
        if is_edit:
            edit_index = index
            if self.rng.random() < profile.edit_uniform_prob:
                edit_index = int(self.rng.integers(0, len(self._inodes)))
            self._rewrite_file(edit_index)
            self._cache_write(self._inodes[edit_index].inode_block)
        self._cache_write(self._inodes[index].inode_block)
        if profile.dir_atime_updates:
            # The path lookup updates the directory's own inode too.
            directory = self._file_keys[index][0]
            self._cache_write(self.fs.directory_inode_block(directory))

    def _emit_open(self, when: float) -> None:
        """A cache-served file open: only the atime updates reach the disk."""
        index = self._pick_file()
        inode = self._inodes[index]
        self._cache_write(inode.inode_block)
        if self.profile.dir_atime_updates:
            directory = self._file_keys[index][0]
            self._cache_write(self.fs.directory_inode_block(directory))

    def _rewrite_file(self, index: int) -> None:
        """Save an edited file the way editors do: write a fresh copy.

        The old blocks are freed and brand-new blocks are allocated and
        written — "write requests resulting from new file creation and
        file expansion operations.  It is very unlikely that seek times
        for such requests will be reduced" (Section 5.3).  The file keeps
        its name, popularity and inode; only its data blocks move.
        """
        dir_name, file_name = self._file_keys[index]
        old = self._inodes[index]
        size = max(1, len(old.data_blocks))
        temp_name = f".#{file_name}.{self._new_file_serial}"
        self._new_file_serial += 1
        try:
            # Write the temporary copy first (while the old file still
            # holds its blocks, the copy necessarily lands elsewhere) ...
            inode = self.fs.create_file(dir_name, temp_name, size)
            # ... then unlink the original and rename the copy over it.
            self.fs.delete_file(dir_name, file_name)
            self.fs.rename(dir_name, temp_name, file_name)
        except (FileSystemError, AllocationError):
            # Full: fall back to updating in place.
            for block in old.data_blocks:
                self._cache_write(block)
            return
        for block in old.data_blocks:
            self.cache.invalidate(block)
        self._inodes[index] = inode
        self._note_allocation(inode.data_blocks)
        for block in inode.data_blocks:
            self._cache_write(block)

    def _cache_write(self, block: int) -> None:
        evicted = self.cache.write(block)
        if evicted is not None:
            self._pending_evicted.append(evicted)

    def _emit_spike(self, when: float, jobs: list[Job]) -> None:
        profile = self.profile
        if profile.spike_reads > 0:
            # Cron jobs re-read the same configuration/binary files every
            # period, so spike reads follow the file popularity too.
            picks = self._file_cdf().searchsorted(
                self.rng.random(profile.spike_reads), side="right"
            )
            blocks = []
            for index in picks:
                data = self._inodes[int(index)].data_blocks
                if data:
                    blocks.append(
                        data[int(self.rng.integers(0, len(data)))]
                    )
            if blocks:
                # Cron jobs read files one after another (closed loop), so
                # they lengthen the busy period without stacking the queue.
                jobs.append(
                    sequential_job(
                        when,
                        blocks,
                        Op.READ,
                        think_ms=5.0,
                        name="spike-read",
                    )
                )
        log_blocks = self._log_file.data_blocks
        for __ in range(profile.spike_writes):
            block = log_blocks[int(self.rng.integers(0, len(log_blocks)))]
            self._cache_write(block)
        if profile.spike_writes > 0:
            self._cache_write(self._log_file.inode_block)

    def _emit_create(self, when: float) -> None:
        profile = self.profile
        directory = f"dir{int(self.rng.integers(0, profile.num_directories)):03d}"
        name = f"new{self._day:03d}_{self._new_file_serial:06d}"
        self._new_file_serial += 1
        size = geometric_run_length(
            self.rng, profile.new_file_mean_blocks, profile.max_file_blocks
        )
        try:
            inode = self.fs.create_file(directory, name, size)
        except (FileSystemError, AllocationError):
            return  # file system full: drop the creation
        self._register_file(inode)
        self._file_keys.append((directory, name))
        self._note_allocation(inode.data_blocks)
        for block in inode.data_blocks:
            self._cache_write(block)
        self._cache_write(inode.inode_block)

    def _emit_extend(self, when: float) -> None:
        profile = self.profile
        index = int(self.rng.integers(0, len(self._inodes)))
        inode = self._inodes[index]
        dir_name, file_name = self._file_keys[index]
        count = geometric_run_length(
            self.rng, profile.extend_mean_blocks, profile.max_file_blocks
        )
        try:
            new_blocks = self.fs.extend_file(dir_name, file_name, count)
        except (FileSystemError, AllocationError):
            return
        self._note_allocation(new_blocks)
        for block in new_blocks:
            self._cache_write(block)
        self._cache_write(inode.inode_block)

    def _flush_sync(self, when: float, jobs: list[Job]) -> None:
        """The periodic update policy: flush all dirty blocks as one burst.

        Besides the cache's dirty blocks, the burst carries the superblock
        (timestamp update) and the cylinder-group summary of every group
        that *allocated* blocks since the last sync — FFS only rewrites a
        group's free maps when blocks are allocated or freed, so pure
        access-time traffic dirties no summaries.
        """
        dirty = self.cache.sync()
        dirty.extend(self._pending_evicted)
        self._pending_evicted = []
        if not dirty and not self._groups_allocated:
            return
        burst: list[int] = []
        if self.profile.superblock_updates:
            burst.append(self.fs.superblock())
            burst.extend(sorted(self._groups_allocated))
        self._groups_allocated.clear()
        # Order-preserving dedup via a set shadow: the burst keeps exactly
        # the sequence the old list-membership scan produced, without the
        # O(len(burst)) probe per dirty block.
        in_burst = set(burst)
        for block in dirty:
            if block not in in_burst:
                in_burst.add(block)
                burst.append(block)
        jobs.append(batch_job(when, burst, Op.WRITE, name="sync"))

    def _count(self, workload: DayWorkload) -> None:
        """Tally per-block reference counts for the day's jobs.

        Counting goes through ``numpy.unique`` instead of a per-step dict
        update; the count *values* are identical and no consumer depends
        on the dicts' insertion order.
        """
        all_blocks: list[int] = []
        read_blocks: list[int] = []
        for job in workload.jobs:
            for step in job.steps:
                all_blocks.append(step.logical_block)
                if step.op is Op.READ:
                    read_blocks.append(step.logical_block)
        for blocks, counts in (
            (all_blocks, workload.all_counts),
            (read_blocks, workload.read_counts),
        ):
            if blocks:
                unique, tallies = np.unique(
                    np.asarray(blocks, dtype=np.int64), return_counts=True
                )
                counts.update(zip(unique.tolist(), tallies.tolist()))


# ----------------------------------------------------------------------
# The numpy identities the batched code relies on
# ----------------------------------------------------------------------


def _twins(seed: int = 7) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def test_installed_numpy_keeps_the_sampler_identities():
    """``poisson_arrivals`` and the generator's batched draws assume three
    identities of numpy's samplers.  If a numpy upgrade breaks one, the
    workload stream would change silently; this test fails loudly."""
    # 1. exponential(scale) == scale * standard_exponential()
    a, b = _twins()
    for scale in (0.5, 3.0, 1234.5, 720_000.0):
        for __ in range(2_000):
            assert a.exponential(scale) == scale * b.standard_exponential()
    assert _same_state(a, b)
    # 2. uniform(0, s) == s * random(), also as one random(n) call
    a, b = _twins()
    for spread in (0.0, 1.0, 400.0, 54_000_000.0):
        for n in (1, 2, 5, 17):
            scalar = [a.uniform(0.0, spread) for __ in range(n)]
            assert scalar == (spread * b.random(n)).tolist()
    assert _same_state(a, b)
    # 3. n random() calls == one random(n) call, and bisect_right over
    # the CDF picks what searchsorted(side="right") picks
    a, b = _twins()
    cdf = np.cumsum(np.linspace(1.0, 2.0, 97))
    cdf /= cdf[-1]
    cdf_list = cdf.tolist()
    for n in (1, 3, 14, 200):
        scalar = [bisect_right(cdf_list, a.random()) for __ in range(n)]
        assert scalar == cdf.searchsorted(b.random(n), "right").tolist()
    assert _same_state(a, b)


# ----------------------------------------------------------------------
# poisson_arrivals
# ----------------------------------------------------------------------


@pytest.mark.parametrize("clump_mean", [1.0, 1.3, 1.6, 2.0, 3.0, 5.0])
def test_arrivals_match_the_scalar_process(clump_mean):
    """Both geometric branches (numpy searches for p >= 1/3 and inverts an
    exponential below) and the unclumped process."""
    for seed in range(12):
        a, b = _twins(seed)
        spread = (0.0, 50.0, 400.0)[seed % 3]
        expected = poisson_arrivals(a, 0.004, 120_000.0, clump_mean, spread)
        got = batched_arrivals(b, 0.004, 120_000.0, clump_mean, spread)
        assert got == expected
        assert _same_state(a, b)


def test_arrivals_with_zero_rate_draw_nothing():
    a, b = _twins()
    assert batched_arrivals(b, 0.0, 1_000.0, 2.0) == poisson_arrivals(
        a, 0.0, 1_000.0, 2.0
    )
    assert _same_state(a, b)


# ----------------------------------------------------------------------
# BufferCache
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_cache_matches_the_scalar_cache(seed):
    """Random writes, batches, invalidations and syncs against the scalar
    cache with the generator's pending-eviction queue around it."""
    rng = random.Random(seed)
    for capacity in (1, 3, 8, 40):
        new = BufferCache(capacity)
        ref = ReferenceBufferCache(capacity)
        pending: list[int] = []

        def ref_write(block: int) -> None:
            evicted = ref.write(block)
            if evicted is not None:
                pending.append(evicted)

        for __ in range(600):
            block = rng.randrange(3 * capacity + 2)
            op = rng.random()
            if op < 0.4:
                ref_write(block)
                new.write(block)
            elif op < 0.7:
                blocks = [rng.randrange(3 * capacity + 2) for __ in range(5)]
                for b in blocks:
                    ref_write(b)
                new.write_many(blocks)
            elif op < 0.8:
                ref.invalidate(block)
                new.invalidate(block)
            elif op < 0.9:
                assert new.dirty_blocks() == ref.dirty_blocks()
            else:
                assert new.sync() == ref.sync() + pending
                pending.clear()
            assert list(new._entries.items()) == list(ref._entries.items())


# ----------------------------------------------------------------------
# The generator, day by day
# ----------------------------------------------------------------------


def _random_profile(rng: random.Random):
    base = rng.choice([SYSTEM_FS_PROFILE, USERS_FS_PROFILE])
    return dataclasses.replace(
        base,
        day_hours=rng.choice([0.05, 0.1, 0.2]),
        num_directories=rng.randint(2, 12),
        files_per_directory=rng.randint(1, 20),
        inode_blocks_per_group=rng.choice([1, 2, 4]),
        read_sessions_per_hour=rng.choice([200.0, 1500.0]),
        session_clump_mean=rng.choice([1.0, 1.3, 1.6, 2.0, 3.0, 5.0]),
        clump_spread_ms=rng.choice([0.0, 50.0, 400.0]),
        user_locality=rng.choice([0.0, 0.5, 0.9]),
        open_sessions_per_hour=rng.choice([0.0, 50.0, 3000.0]),
        sync_interval_s=rng.choice([5.0, 30.0]),
        dir_atime_updates=rng.random() < 0.6,
        superblock_updates=rng.random() < 0.7,
        edit_session_fraction=rng.choice([0.0, 0.1, 0.4]),
        new_files_per_day=rng.choice([0, 5, 30]),
        extend_sessions_per_day=rng.choice([0, 5, 30]),
        spike_interval_s=rng.choice([0.0, 60.0, 150.0]),
        spike_reads=rng.randint(0, 12),
        spike_writes=rng.randint(0, 6),
        popularity_reshuffle_fraction=rng.choice([0.0, 0.05]),
        cache_blocks=rng.choice([2, 8, 64, 1024]),
    )


def _make(cls, profile, seed):
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    partition = label.add_partition("fs0", label.virtual_total_blocks)
    return cls(
        profile=profile,
        partition=partition,
        blocks_per_cylinder=TOSHIBA_MK156F.geometry.blocks_per_cylinder,
        seed=seed,
    )


def _jobs(workload: DayWorkload) -> list[tuple]:
    return [
        (job.start_ms, job.name, job.sequential, job.steps)
        for job in workload.jobs
    ]


def _assert_days_match(profile, seed: int, days: int = 3) -> None:
    new = _make(WorkloadGenerator, profile, seed)
    ref = _make(ReferenceGenerator, profile, seed)
    for day in range(days):
        got = new.generate_day()
        expected = ref.generate_day()
        context = f"day {day}, seed {seed}, {profile}"
        assert _jobs(got) == _jobs(expected), context
        assert got.read_counts == expected.read_counts, context
        assert got.all_counts == expected.all_counts, context
        assert _same_state(new.rng, ref.rng), context
        assert new._file_keys == ref._file_keys, context


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_randomized_days_match_the_scalar_generator(seed):
    """Seeded sweep over random profiles: clumping on both geometric
    branches and off, directory-atime updates on and off, caches
    small enough to evict, the *users* churn paths (edits, creates,
    extends) and user locality."""
    rng = random.Random(seed)
    for __ in range(12):
        _assert_days_match(_random_profile(rng), rng.randrange(1, 10_000))


@pytest.mark.parametrize(
    "profile", [SYSTEM_FS_PROFILE, USERS_FS_PROFILE], ids=["system", "users"]
)
def test_paper_profiles_match_the_scalar_generator(profile):
    _assert_days_match(profile.scaled(hours=0.5), seed=1993, days=2)


def test_equal_times_keep_the_scalar_tie_order(monkeypatch):
    """Arrivals on grids that share instants with each other, the spikes
    and the syncs: at equal times sessions come first, then opens, then
    spikes, creations and extensions, and a sync due at an event's time is
    flushed before it.  Sessions sit on every sync instant in the first
    half of the day and between them in the second, so opens there meet a
    sync with no session in front of it."""
    calls = []

    def grid(rng, rate_per_ms, duration_ms, clump_mean=1.0, clump_spread_ms=0.0):
        calls.append(rate_per_ms)
        half = duration_ms / 2
        if len(calls) % 2:  # sessions
            times = [t if t < half else t + 1_250 for t in range(0, int(duration_ms), 2_500)]
        else:  # opens
            times = list(range(0, int(duration_ms), 1_250))
        return sorted(float(t) for t in times * 2 if t < duration_ms)

    monkeypatch.setattr(generator_module, "poisson_arrivals", grid)
    monkeypatch.setitem(globals(), "poisson_arrivals", grid)
    profile = dataclasses.replace(
        USERS_FS_PROFILE,
        day_hours=0.05,
        open_sessions_per_hour=100.0,
        dir_atime_updates=True,
        sync_interval_s=5.0,
        spike_interval_s=10.0,
        cache_blocks=6,
        new_files_per_day=8,
        extend_sessions_per_day=8,
    )
    _assert_days_match(profile, seed=3, days=2)


def test_every_counted_write_back_reaches_a_sync(monkeypatch):
    """A write that evicts a dirty block still writes it back: in a cache
    of four blocks, every block the day writes reaches a sync burst."""
    profile = dataclasses.replace(USERS_FS_PROFILE.scaled(hours=0.2), cache_blocks=4)
    generator = _make(WorkloadGenerator, profile, seed=11)
    written: set[int] = set()
    synced: list[int] = []
    write_many, sync = generator.cache.write_many, generator.cache.sync

    def recording_write_many(blocks) -> None:
        written.update(blocks)
        write_many(blocks)

    def recording_sync() -> list[int]:
        blocks = sync()
        synced.extend(blocks)
        return blocks

    monkeypatch.setattr(generator.cache, "write_many", recording_write_many)
    monkeypatch.setattr(generator.cache, "sync", recording_sync)
    generator.generate_day()
    generator.cache.sync()  # what the day left dirty
    assert len(written) > 4 * profile.cache_blocks
    assert written <= set(synced)
