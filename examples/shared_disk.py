#!/usr/bin/env python3
"""Two file systems, one disk, one reserved area.

Section 4.1.1: a disk may hold several partitions and file systems, but
the driver implements a *single* reserved region, "and blocks from any of
the file systems may be copied there."  This example hosts the *system*
and a (downsized) *users* file system on one Toshiba disk and lets their
hot blocks compete for the shared reserved cylinders.

Usage::

    python examples/shared_disk.py [hours-per-day]
"""

import dataclasses
import sys

from repro import SYSTEM_FS_PROFILE, USERS_FS_PROFILE
from repro.sim import ExperimentConfig, FileSystemSpec, MultiFSExperiment
from repro.stats import render_day


def main() -> None:
    hours = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0

    users = dataclasses.replace(
        USERS_FS_PROFILE.scaled(hours=hours),
        num_directories=8,
        files_per_directory=40,
        mean_file_blocks=4.0,
    )
    experiment = MultiFSExperiment(
        [
            FileSystemSpec(SYSTEM_FS_PROFILE.scaled(hours=hours), fraction=0.6),
            FileSystemSpec(users, fraction=0.4, seed=77),
        ],
        ExperimentConfig(disk="toshiba"),
    )
    print("Partitions on the shared disk:")
    for partition in experiment.partitions:
        print(
            f"  {partition.name:<14} blocks "
            f"{partition.start_block:>6}..{partition.end_block - 1}"
        )

    print("\nDay 0 (off) — monitoring both file systems:")
    off = experiment.run_day(rearranged=False, rearrange_tomorrow=True)
    print(render_day(off.metrics, "shared"))
    for name, count in off.per_fs_requests.items():
        print(f"  {name:<14} {count:>6} requests")

    print("\nDay 1 (on) — the reserved area serves both:")
    on = experiment.run_day(rearranged=True, rearrange_tomorrow=False)
    print(render_day(on.metrics, "shared"))
    print(f"  blocks in the shared reserved area: {on.rearranged_blocks}")
    for name, count in sorted(on.rearranged_per_fs.items()):
        print(f"  {name:<14} {count:>6} rearranged blocks")

    reduction = 1 - (
        on.metrics.all.mean_seek_time_ms / off.metrics.all.mean_seek_time_ms
    )
    print(
        f"\nSeek time {off.metrics.all.mean_seek_time_ms:.2f} -> "
        f"{on.metrics.all.mean_seek_time_ms:.2f} ms "
        f"({reduction:.0%} reduction) with one reserved region serving "
        "every file system on the device."
    )


if __name__ == "__main__":
    main()
