"""Workload profiles: the *system* and *users* file systems of Section 5.

A :class:`WorkloadProfile` bundles every knob of the synthetic workload
generator.  The two presets are calibrated to the workload properties the
paper publishes rather than to any raw trace (which does not survive):

``SYSTEM_FS_PROFILE``
    The read-only *system* file system: executables and libraries mounted
    read-only over NFS by 14 workstations / ~40 users.  Reads follow a
    highly skewed, day-over-day *stable* file popularity (Figure 5; ~100
    blocks absorb ~90 % of requests, < 2000 blocks absorb all).  The only
    writes are the OS's own bookkeeping: i-node access-time updates plus
    superblock/cylinder-group summaries, flushed in bursts by the periodic
    update policy — "write requests were concentrated on a very small set
    of blocks" (Section 5.2).

``USERS_FS_PROFILE``
    The read/write *users* (home-directory) file system: a flatter block
    popularity (Figure 7), fewer users with little sharing, substantial
    day-to-day drift, and writes that include new-file creation and file
    extension — requests whose blocks did not exist the previous day and
    therefore cannot benefit from rearrangement (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace



@dataclass(frozen=True)
class WorkloadProfile:
    """All knobs of the synthetic multi-day workload generator."""

    name: str

    # -- day structure --------------------------------------------------
    day_hours: float = 15.0  # monitoring window: 7am - 10pm (Section 5.1)

    # -- file-system content ---------------------------------------------
    num_directories: int = 24
    files_per_directory: int = 36
    mean_file_blocks: float = 6.0
    max_file_blocks: int = 48
    cylinders_per_group: int = 16
    inode_blocks_per_group: int = 1
    fs_interleave: int = 1  # FFS rotdelay, in blocks
    directory_placement: str = "scatter"  # or "first-fit" (see repro.fs.ufs)
    partition_band: str = "full"
    """Where the file system's partition sits on the (virtual) disk:
    ``"full"`` spans the whole disk (the *system* FS); ``"center"`` is a
    home partition in the middle band of the disk — the slice adjacent to
    the reserved cylinders, as on a disk whose outer partitions hold root
    and swap (the *users* FS)."""

    # -- read traffic -----------------------------------------------------
    read_sessions_per_hour: float = 400.0
    session_clump_mean: float = 2.0  # multi-client arrival clumping
    clump_spread_ms: float = 400.0
    single_block_read_prob: float = 0.72
    """Most disk reads on a busy NFS server are isolated misses (client and
    server caches absorb sequential re-reads); the rest are read-ahead runs."""
    user_locality: float = 0.0
    """Probability a session stays in the previous session's directory.
    Home-directory traffic is strongly user-local: a user works in one
    home for a while, then the head jumps to another user's home."""
    multi_run_mean: float = 3.5  # mean length of a sequential run (>= 2)
    think_ms: float = 2.0
    file_popularity_exponent: float = 1.1
    read_from_start_prob: float = 0.7  # else start at a random offset

    # -- write traffic ----------------------------------------------------
    open_sessions_per_hour: float = 0.0
    """File opens (stat/exec/lookup) whose data is served from the caches:
    they reach the disk only as i-node access-time updates at the next
    sync.  On a busy NFS server the open rate far exceeds the disk-read
    rate, which is why the measured write stream is both large and
    concentrated on very few (inode) blocks (Section 5.2)."""
    sync_interval_s: float = 30.0
    dir_atime_updates: bool = True
    """Whether path lookups also dirty the directory's inode.  True for the
    heavily shared *system* FS; home directories are looked up through the
    clients' attribute caches, so the *users* FS sees far fewer of these."""
    superblock_updates: bool = True
    edit_session_fraction: float = 0.0  # sessions that save (rewrite) a file
    edit_uniform_prob: float = 0.8
    """Probability an edit session targets a uniformly random file rather
    than a popularity-weighted one: users churn their own working
    documents while the hot shared read set stays in place."""
    new_files_per_day: int = 0
    new_file_mean_blocks: float = 6.0
    extend_sessions_per_day: int = 0
    extend_mean_blocks: float = 3.0

    # -- background spikes (cron and friends) ------------------------------
    spike_interval_s: float = 3600.0
    spike_reads: int = 30
    spike_writes: int = 20

    # -- day-to-day drift --------------------------------------------------
    popularity_reshuffle_fraction: float = 0.0

    # -- buffer cache -----------------------------------------------------
    cache_blocks: int = 1024

    @property
    def day_ms(self) -> float:
        return self.day_hours * 3_600_000.0

    def scaled(self, hours: float) -> "WorkloadProfile":
        """A copy with a shorter measurement day (for fast tests).

        Rates are unchanged — only the day length shrinks — so per-request
        statistics keep the same shape while the request count drops.
        Per-day totals (new files, extensions) scale proportionally.
        """
        if hours <= 0:
            raise ValueError("hours must be positive")
        factor = hours / self.day_hours
        return replace(
            self,
            day_hours=hours,
            new_files_per_day=max(
                0, round(self.new_files_per_day * factor)
            ),
            extend_sessions_per_day=max(
                0, round(self.extend_sessions_per_day * factor)
            ),
        )


SYSTEM_FS_PROFILE = WorkloadProfile(
    name="system",
    num_directories=12,
    files_per_directory=72,
    mean_file_blocks=6.0,
    max_file_blocks=48,
    read_sessions_per_hour=600.0,
    session_clump_mean=1.6,
    single_block_read_prob=0.80,
    multi_run_mean=3.0,
    file_popularity_exponent=1.8,
    open_sessions_per_hour=5000.0,
    sync_interval_s=30.0,
    superblock_updates=True,
    edit_session_fraction=0.0,
    new_files_per_day=0,
    popularity_reshuffle_fraction=0.02,
    spike_interval_s=1800.0,
    spike_reads=40,
    spike_writes=5,
)

USERS_FS_PROFILE = WorkloadProfile(
    name="users",
    num_directories=20,  # one home directory per user (Fujitsu config)
    files_per_directory=100,
    mean_file_blocks=6.0,
    max_file_blocks=40,
    cylinders_per_group=16,
    directory_placement="first-fit",
    partition_band="center",
    read_sessions_per_hour=220.0,
    session_clump_mean=1.3,
    single_block_read_prob=0.65,
    multi_run_mean=3.0,
    file_popularity_exponent=1.3,
    open_sessions_per_hour=50.0,
    sync_interval_s=30.0,
    dir_atime_updates=False,
    superblock_updates=False,
    edit_session_fraction=0.08,
    edit_uniform_prob=0.97,
    new_files_per_day=60,
    new_file_mean_blocks=5.0,
    extend_sessions_per_day=50,
    extend_mean_blocks=3.0,
    popularity_reshuffle_fraction=0.06,
    spike_interval_s=3600.0,
    spike_reads=10,
    spike_writes=5,
)

PROFILES = {
    SYSTEM_FS_PROFILE.name: SYSTEM_FS_PROFILE,
    USERS_FS_PROFILE.name: USERS_FS_PROFILE,
}


def profile_for_disk(profile: WorkloadProfile, disk: str) -> WorkloadProfile:
    """Adapt a preset profile to the disk it runs on, as the paper did.

    The Fujitsu experiments served more data and users than the Toshiba
    ones (the *system* FS filled a 7.5x larger disk; the *users* FS held
    twenty home directories instead of ten, Section 5).  Unrecognized
    profile names are returned unchanged.
    """
    disk = disk.lower()
    if profile.name == "system" and disk == "fujitsu":
        return replace(
            profile,
            num_directories=30,
            read_sessions_per_hour=profile.read_sessions_per_hour * 1.5,
            open_sessions_per_hour=profile.open_sessions_per_hour * 1.5,
        )
    if profile.name == "users" and disk == "toshiba":
        return replace(profile, num_directories=10)
    if disk == "modern" and profile.name in PROFILES:
        # The synthetic ~8 GB drive serves a far larger tree than the
        # paper's servers: widen the directory fan-out and raise traffic
        # so a day's working set spans the multi-million-block device
        # (its 4 KB blocks also double every file's block count).
        return replace(
            profile,
            num_directories=profile.num_directories * 8,
            mean_file_blocks=profile.mean_file_blocks * 2,
            max_file_blocks=profile.max_file_blocks * 2,
            read_sessions_per_hour=profile.read_sessions_per_hour * 4,
            open_sessions_per_hour=profile.open_sessions_per_hour * 2,
        )
    return profile


def profile(name: str) -> WorkloadProfile:
    """Look up a preset profile by name (``"system"`` or ``"users"``)."""
    try:
        return PROFILES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(f"unknown profile {name!r}; known: {known}") from None
