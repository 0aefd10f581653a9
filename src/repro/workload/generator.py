"""Multi-day synthetic workload generation.

The generator owns a simulated file system (for realistic FFS block
layout), a buffer cache (for the periodic-update write bursts), and a
file-popularity model (for the paper's skewed reference distributions).
Each call to :meth:`WorkloadGenerator.generate_day` produces one day's
worth of :class:`~repro.sim.jobs.Job` objects:

* **read sessions** — closed-loop sequential runs through popular files
  (clients reading executables / documents via NFS), arriving as a clumped
  Poisson process;
* **edit sessions** (*users* profile) — read runs whose blocks are written
  back through the buffer cache;
* **sync bursts** — every ``sync_interval_s`` the cache's dirty blocks
  (i-node access-time updates, edited data, superblock and cylinder-group
  summaries) are issued to the driver as one batch, reproducing the bursty
  write arrivals of Section 5.2;
* **background spikes** — periodic cron-style batches (log appends plus a
  scatter of cold reads) that add the heavy tail observed in the
  waiting-time distributions;
* **new-file creation and extension** (*users* profile) — writes to blocks
  that did not exist the previous day and therefore defeat rearrangement
  (Section 5.3).

Day-to-day drift is controlled by ``popularity_reshuffle_fraction``: each
new day that fraction of files exchange popularity ranks, modelling the
changing access patterns that made the *users* results weaker.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from ..driver.request import Op
from ..fs.allocator import AllocationError
from ..fs.buffercache import BufferCache
from ..fs.ufs import FileSystem, FileSystemError, Inode
from ..sim.jobs import Job, Step
from .distributions import (
    geometric_run_length,
    geometric_run_lengths,
    poisson_arrivals,
    zipf_weights,
)
from .profiles import WorkloadProfile

if TYPE_CHECKING:  # avoid importing tenancy on the generator hot path
    from .tenancy import SharedHotSet


@dataclass
class DayWorkload:
    """One generated day: jobs plus per-block reference counts."""

    day: int
    jobs: list[Job]
    read_counts: dict[int, int] = field(default_factory=dict)
    all_counts: dict[int, int] = field(default_factory=dict)

    @property
    def num_requests(self) -> int:
        """Total requests, from the reference counts (which equal the
        jobs' request total for generated days, but also work for
        count-only records rebuilt from measurements)."""
        return sum(self.all_counts.values())

    @property
    def num_reads(self) -> int:
        return sum(self.read_counts.values())

    @property
    def num_writes(self) -> int:
        return self.num_requests - self.num_reads

    def __reduce__(self):
        """Pickle the jobs as columns, one list per field.

        Pickled job by job, each job's state is a dict that the
        unpickler's memo holds until the whole day is loaded; as columns,
        a day that crosses a pipe (from the day-ahead worker, see
        :class:`~repro.parallel.AheadWorker`) costs its receiver about
        half the transient memory and less time.  Steps stay shared.
        """
        jobs = self.jobs
        return _day_from_columns, (
            self.day,
            [job.start_ms for job in jobs],
            [job.steps for job in jobs],
            [job.sequential for job in jobs],
            [job.name for job in jobs],
            [job.job_id for job in jobs],
            self.read_counts,
            self.all_counts,
        )


def _day_from_columns(
    day, starts, steps, sequential, names, job_ids, read_counts, all_counts
) -> DayWorkload:
    jobs = list(map(Job, starts, steps, sequential, names, job_ids))
    return DayWorkload(day, jobs, read_counts, all_counts)


def _merge_sessions(
    sessions: list[float], others: list[tuple[float, str]]
) -> Iterator[tuple[float, str]]:
    """Two time-sorted event streams as one; a session goes first at equal
    times."""
    k = 0
    for when in sessions:
        while k < len(others) and others[k][0] < when:
            yield others[k]
            k += 1
        yield when, "session"
    yield from others[k:]


class WorkloadGenerator:
    """Reproducible multi-day workload for one file system on one disk."""

    def __init__(
        self,
        profile: WorkloadProfile,
        partition,
        blocks_per_cylinder: int,
        seed: int = 1993,
        shared_hot: SharedHotSet | None = None,
    ) -> None:
        self.profile = profile
        self.shared_hot = shared_hot
        self.rng = np.random.default_rng(seed)
        self.fs = FileSystem(
            partition=partition,
            blocks_per_cylinder=blocks_per_cylinder,
            cylinders_per_group=profile.cylinders_per_group,
            inode_blocks_per_group=profile.inode_blocks_per_group,
            interleave=profile.fs_interleave,
            directory_placement=profile.directory_placement,
        )
        self.cache = BufferCache(profile.cache_blocks)
        self._groups_allocated: set[int] = set()
        self._day = 0
        self._new_file_serial = 0
        self._build_initial_tree()
        self._log_file = self._create_log_file()
        files = self.fs.all_files()
        self._inodes: list[Inode] = [inode for __, __, inode in files]
        self._file_keys: list[tuple[str, str]] = [
            (d, n) for d, n, __ in files
        ]
        # Filled by _index_files when generation starts.
        self._dir_files: dict[str, list[int]] = {}
        self._atime_writes: list[tuple[int, ...]] = []
        self._atime_tuples: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._weights = zipf_weights(
            len(self._inodes), profile.file_popularity_exponent
        )
        # _rank_of[i] is file i's popularity rank (0 = hottest).
        self._rank_of = self.rng.permutation(len(self._inodes))
        if shared_hot is not None:
            # Fleet mode: the hottest ranks are occupied by the
            # fleet-wide shared file choice; the device's own draw above
            # still happens (and still advances the rng identically), it
            # just ranks only the tenant-private remainder.
            self._rank_of = shared_hot.apply(self._rank_of)
        self._probs_dirty = True
        self._probs: np.ndarray | None = None
        self._cdf: np.ndarray | None = None
        self._cdf_list: list[float] | None = None
        self._dir_cdfs: dict[str, list[float] | None] = {}
        self._last_dir: str | None = None
        self._day_steps: dict[tuple[Op, float | None], dict[int, Step]] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _build_initial_tree(self) -> None:
        """Lay out the directories and files the day starts with.

        Each directory draws its file sizes in one call and is laid out
        in one call; both give what one draw and one file at a time
        would, and the generator state matches at every directory."""
        profile = self.profile
        names = [f"file{f:03d}" for f in range(profile.files_per_directory)]
        for d in range(profile.num_directories):
            name = f"dir{d:03d}"
            self.fs.make_directory(name)
            sizes = geometric_run_lengths(
                self.rng,
                profile.mean_file_blocks,
                profile.max_file_blocks,
                len(names),
            )
            self.fs.populate_directory(name, zip(names, sizes))

    def _create_log_file(self) -> Inode:
        """A system log whose blocks receive the cron-spike writes."""
        self.fs.make_directory("var")
        return self.fs.create_file("var", "syslog", 8)

    def _index_files(self) -> None:
        """Index the file table for generation: each directory's file
        indices, in ``_file_keys`` order, and per file the blocks that one
        access to it dirties.  Creations and rewrites keep both up to
        date."""
        for index, (directory, __) in enumerate(self._file_keys):
            self._dir_files.setdefault(directory, []).append(index)
        self._atime_writes = self._atime_blocks(
            zip(self._inodes, map(itemgetter(0), self._file_keys))
        )

    # ------------------------------------------------------------------
    # Popularity and drift
    # ------------------------------------------------------------------

    def _file_probabilities(self) -> np.ndarray:
        if self._probs_dirty or self._probs is None:
            probs = self._weights[self._rank_of]
            self._probs = probs / probs.sum()
            self._probs_dirty = False
            self._cdf = None
            self._cdf_list = None
            self._dir_cdfs = {}
        return self._probs

    def _file_cdf(self) -> np.ndarray:
        """Popularity CDF, cached alongside ``_probs``.

        ``Generator.choice(n, p=probs)`` validates ``p``, cumsums it and
        inverts the CDF against uniform draws on every call.  Sampling
        through this cached CDF with ``searchsorted`` consumes the same
        uniforms in the same order, so the picks and the generator state
        are bit-identical to ``choice`` — only the per-call setup work
        disappears.
        """
        probs = self._file_probabilities()
        if self._cdf is None:
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            self._cdf = cdf
        return self._cdf

    def _pick_file(self) -> int:
        """One popularity-weighted file pick.

        ``bisect_right`` over the CDF as a Python list is the scalar
        twin of ``searchsorted(..., side="right")``: the same single
        uniform is consumed and ``float``/``float64`` compare by value,
        so the pick and the generator state match the array path bit for
        bit — without the per-call ndarray dispatch.
        """
        self._file_probabilities()  # refresh drift; invalidates the list
        cdf = self._cdf_list
        if cdf is None:
            cdf = self._cdf_list = self._file_cdf().tolist()
        return bisect_right(cdf, self.rng.random())

    def _apply_drift(self) -> None:
        """Exchange popularity ranks among a fraction of the files."""
        fraction = self.profile.popularity_reshuffle_fraction
        if fraction <= 0:
            return
        n = len(self._rank_of)
        count = max(2, int(round(fraction * n)))
        chosen = self.rng.choice(n, size=min(count, n), replace=False)
        shuffled = self.rng.permutation(chosen)
        self._rank_of[chosen] = self._rank_of[shuffled]
        self._probs_dirty = True

    def _register_file(self, directory: str, name: str, inode: Inode) -> None:
        """Add a newly created file to the popularity model.

        A new file occasionally becomes immediately popular (a fresh
        document everyone opens); usually it starts cool.
        """
        self._inodes.append(inode)
        self._file_keys.append((directory, name))
        n = len(self._inodes)
        self._dir_files.setdefault(directory, []).append(n - 1)
        self._atime_writes += self._atime_blocks([(inode, directory)])
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

    # ------------------------------------------------------------------
    # Day generation
    # ------------------------------------------------------------------

    def generate_day(self) -> DayWorkload:
        """Produce the next day's jobs (advances the generator's day).

        The day's events are walked in time order, with the periodic syncs
        in between; at equal times, sessions come first, then file opens,
        spikes, creations and extensions, and a due sync before them all.
        The opens, by far the most numerous, are emitted in runs.
        """
        profile = self.profile
        day = self._day
        self._day += 1
        if day == 0:
            self._index_files()
        else:
            self._apply_drift()

        sessions, opens, others = self._build_timeline()
        jobs: list[Job] = []
        self._day_steps = {}
        sync_ms = profile.sync_interval_s * 1000.0
        next_sync = sync_ms
        opened = 0
        for when, kind in _merge_sessions(sessions, others):
            # The opens due first; one at this very instant follows a
            # session but precedes every other kind.
            cut = bisect_left if kind == "session" else bisect_right
            due = cut(opens, when, opened)
            next_sync = self._emit_opens(
                opens, opened, due, next_sync, sync_ms, jobs
            )
            opened = due
            while next_sync <= when:
                self._flush_sync(next_sync, jobs)
                next_sync += sync_ms
            if kind == "session":
                self._emit_session(when, jobs)
            elif kind == "spike":
                self._emit_spike(when, jobs)
            elif kind == "create":
                self._emit_create(when)
            else:
                self._emit_extend(when)
        next_sync = self._emit_opens(
            opens, opened, len(opens), next_sync, sync_ms, jobs
        )
        while next_sync <= profile.day_ms:
            self._flush_sync(next_sync, jobs)
            next_sync += sync_ms

        jobs.sort(key=lambda job: (job.start_ms, job.job_id))
        workload = DayWorkload(day=day, jobs=jobs)
        self._count(workload)
        return workload

    def _build_timeline(
        self,
    ) -> tuple[list[float], list[float], list[tuple[float, str]]]:
        """The day's session and open arrival times, each sorted, and its
        few spike, create and extend events as ``(when, kind)`` pairs in
        time order (a stable sort, so ties keep that kind order)."""
        profile = self.profile
        rate_per_ms = profile.read_sessions_per_hour / 3_600_000.0
        sessions = poisson_arrivals(
            self.rng,
            rate_per_ms,
            profile.day_ms,
            clump_mean=profile.session_clump_mean,
            clump_spread_ms=profile.clump_spread_ms,
        )
        opens: list[float] = []
        if profile.open_sessions_per_hour > 0:
            open_rate = profile.open_sessions_per_hour / 3_600_000.0
            opens = poisson_arrivals(
                self.rng,
                open_rate,
                profile.day_ms,
                clump_mean=profile.session_clump_mean,
                clump_spread_ms=profile.clump_spread_ms,
            )
        others: list[tuple[float, str]] = []
        if profile.spike_interval_s > 0:
            interval_ms = profile.spike_interval_s * 1000.0
            t = interval_ms
            while t < profile.day_ms:
                others.append((t, "spike"))
                t += interval_ms
        kinds = ["create"] * profile.new_files_per_day
        kinds += ["extend"] * profile.extend_sessions_per_day
        if kinds:
            # ``uniform(0, day_ms)`` is ``day_ms * random()``, one draw each.
            times = profile.day_ms * self.rng.random(len(kinds))
            others.extend(zip(times.tolist(), kinds))
        others.sort(key=lambda pair: pair[0])
        return sessions, opens, others

    # -- sessions -----------------------------------------------------

    def _pick_session_file(self) -> int:
        """Choose the session's file, honoring user (directory) locality.

        A local pick is ``choice(len(indices), p=weights / total)`` over
        the directory's files, drawn as :meth:`_pick_file` draws: through
        the CDF ``choice`` would build, kept per directory until the
        popularities change, with the same single uniform."""
        profile = self.profile
        self._file_probabilities()  # refresh drift; invalidates the CDFs
        if (
            profile.user_locality > 0
            and self._last_dir is not None
            and self.rng.random() < profile.user_locality
        ):
            indices = self._dir_files.get(self._last_dir)
            if indices:
                cdf = self._dir_cdf(self._last_dir, indices)
                if cdf is not None:
                    return indices[bisect_right(cdf, self.rng.random())]
        return self._pick_file()

    def _dir_cdf(self, directory: str, indices: list[int]) -> list[float] | None:
        """``directory``'s local popularity CDF, or None if its files
        have no weight."""
        try:
            return self._dir_cdfs[directory]
        except KeyError:
            pass
        weights = self._probs[indices]
        total = weights.sum()
        cdf = None
        if total > 0:
            cdf = (weights / total).cumsum()
            cdf /= cdf[-1]
            cdf = cdf.tolist()
        self._dir_cdfs[directory] = cdf
        return cdf

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
        jobs.append(self._job(when, run, Op.READ, "session", profile.think_ms))
        is_edit = (
            profile.edit_session_fraction > 0
            and self.rng.random() < profile.edit_session_fraction
        )
        if is_edit:
            edit_index = index
            if self.rng.random() < profile.edit_uniform_prob:
                edit_index = int(self.rng.integers(0, len(self._inodes)))
            self._rewrite_file(edit_index)
            self.cache.write(self._inodes[edit_index].inode_block)
        self.cache.write_many(self._atime_writes[index])

    def _atime_blocks(
        self, files: Iterable[tuple[Inode, str]]
    ) -> list[tuple[int, ...]]:
        """For each ``(inode, directory)`` file, the blocks one access to
        it dirties: its inode's access time and, since the path lookup
        reads the directory, the directory inode's.

        Files whose inodes share a block get one shared tuple, so the
        table holds a few objects per directory, not one per file.
        """
        if not self.profile.dir_atime_updates:
            blocks = [(inode.inode_block,) for inode, __ in files]
        else:
            directory_block = self.fs.directory_inode_block
            blocks = [
                (inode.inode_block, directory_block(directory))
                for inode, directory in files
            ]
        shared = self._atime_tuples
        return [shared.setdefault(key, key) for key in blocks]

    def _emit_opens(
        self,
        opens: list[float],
        start: int,
        stop: int,
        next_sync: float,
        sync_ms: float,
        jobs: list[Job],
    ) -> float:
        """Cache-served file opens ``opens[start:stop]``: only the atime
        updates reach the disk, through the syncs due among them.

        Each open is one popularity pick, so the run draws its picks with
        one ``random(n)`` call.  Returns the next sync time.
        """
        if start == stop:
            return next_sync
        picks = (
            self._file_cdf()
            .searchsorted(self.rng.random(stop - start), "right")
            .tolist()
        )
        writes = self._atime_writes
        write_many = self.cache.write_many
        first = start
        while True:
            cut = bisect_left(opens, next_sync, first, stop)
            write_many(
                [
                    block
                    for index in picks[first - start : cut - start]
                    for block in writes[index]
                ]
            )
            if cut == stop:
                return next_sync
            self._flush_sync(next_sync, jobs)
            next_sync += sync_ms
            first = cut

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
            self.cache.write_many(old.data_blocks)
            return
        for block in old.data_blocks:
            self.cache.invalidate(block)
        self._inodes[index] = inode
        self._atime_writes[index] = self._atime_blocks([(inode, dir_name)])[0]
        self._note_allocation(inode.data_blocks)
        self.cache.write_many(inode.data_blocks)

    def _run_blocks(self, inode: Inode) -> list[int]:
        profile = self.profile
        size = len(inode.data_blocks)
        if size == 1 or self.rng.random() < profile.single_block_read_prob:
            length = 1
        else:
            # A read-ahead run: at least two blocks.
            length = 1 + geometric_run_length(
                self.rng, max(profile.multi_run_mean - 1, 1.0), size - 1
            )
        if self.rng.random() < profile.read_from_start_prob or size == length:
            start = 0
        else:
            start = int(self.rng.integers(0, size - length + 1))
        return inode.data_blocks[start : start + length]

    # -- spikes -------------------------------------------------------

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
                jobs.append(self._job(when, blocks, Op.READ, "spike-read", 5.0))
        log_blocks = self._log_file.data_blocks
        for __ in range(profile.spike_writes):
            block = log_blocks[int(self.rng.integers(0, len(log_blocks)))]
            self.cache.write(block)
        if profile.spike_writes > 0:
            self.cache.write(self._log_file.inode_block)

    # -- namespace churn (users profile) --------------------------------

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
        self._register_file(directory, name, inode)
        self._note_allocation(inode.data_blocks)
        self.cache.write_many(inode.data_blocks)
        self.cache.write(inode.inode_block)

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
        self.cache.write_many(new_blocks)
        self.cache.write(inode.inode_block)

    # -- syncs ----------------------------------------------------------

    def _flush_sync(self, when: float, jobs: list[Job]) -> None:
        """The periodic update policy: flush all dirty blocks as one burst.

        Besides the cache's dirty blocks (and those it evicted since the
        last sync), the burst carries the superblock (timestamp update)
        and the cylinder-group summary of every group that *allocated*
        blocks since the last sync — FFS only rewrites a
        group's free maps when blocks are allocated or freed, so pure
        access-time traffic dirties no summaries.
        """
        dirty = self.cache.sync()
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
        jobs.append(self._job(when, burst, Op.WRITE, "sync"))

    def _job(
        self,
        when: float,
        blocks: list[int],
        op: Op,
        name: str,
        think_ms: float | None = None,
    ) -> Job:
        """What ``sequential_job`` builds, with ``think_ms`` before each
        request, or ``batch_job`` if ``think_ms`` is None.

        A step is an immutable value, and a day issues the same few inode
        and summary blocks thousands of times, so the day shares one
        :class:`Step` per block, op and think time.
        """
        shared = self._day_steps.setdefault((op, think_ms), {})
        think = 0.0 if think_ms is None else think_ms
        steps = []
        for block in blocks:
            step = shared.get(block)
            if step is None:
                step = shared[block] = Step(block, op, think)
            steps.append(step)
        return Job(
            start_ms=when,
            steps=steps,
            sequential=think_ms is not None,
            name=name,
        )

    def _note_allocation(self, blocks: list[int]) -> None:
        """Record that these freshly allocated blocks dirty their groups'
        summary blocks (flushed at the next sync)."""
        for block in blocks:
            self._groups_allocated.add(self.fs.metadata_block_of(block))

    # -- accounting -----------------------------------------------------

    def _count(self, workload: DayWorkload) -> None:
        """Tally per-block reference counts for the day's jobs.

        Counting goes through ``numpy.unique`` instead of a per-step dict
        update; the count *values* are identical and no consumer depends
        on the dicts' insertion order.
        """
        read = Op.READ
        steps = [step for job in workload.jobs for step in job.steps]
        all_blocks = [step.logical_block for step in steps]
        read_blocks = [step.logical_block for step in steps if step.op is read]
        for blocks, counts in (
            (all_blocks, workload.all_counts),
            (read_blocks, workload.read_counts),
        ):
            if blocks:
                unique, tallies = np.unique(
                    np.asarray(blocks, dtype=np.int64), return_counts=True
                )
                counts.update(zip(unique.tolist(), tallies.tolist()))
