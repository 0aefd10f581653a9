#!/usr/bin/env python3
"""Trace-driven simulation with a custom workload profile.

Shows the pieces a downstream user needs for their own studies:

1. define a custom :class:`WorkloadProfile` (here: a mail-spool-like
   workload with heavy overwrite traffic),
2. generate a day, save it to a plain-text trace, and reload it,
3. replay the *same* trace through two driver configurations (FCFS vs
   SCAN queueing, rearrangement off vs on) and compare.

Usage::

    python examples/trace_driven.py [trace-path]
"""

import sys
import tempfile
from pathlib import Path

from repro import (
    AdaptiveDiskDriver,
    Disk,
    DiskLabel,
    IoctlInterface,
    Simulation,
    TOSHIBA_MK156F,
    WorkloadGenerator,
    WorkloadProfile,
    make_queue,
)
from repro.core import BlockArranger, ReferenceStreamAnalyzer
from repro.workload import load_trace, save_trace

MAIL_SPOOL = WorkloadProfile(
    name="mail-spool",
    day_hours=1.0,
    num_directories=8,
    files_per_directory=50,
    mean_file_blocks=3.0,
    read_sessions_per_hour=900.0,
    single_block_read_prob=0.6,
    file_popularity_exponent=1.4,
    open_sessions_per_hour=1200.0,
    edit_session_fraction=0.2,
    edit_uniform_prob=0.5,
    sync_interval_s=30.0,
    spike_interval_s=600.0,
    spike_reads=15,
    spike_writes=10,
)


def replay(jobs, queue_policy, rearrange):
    """Replay a trace; optionally pre-train rearrangement on it."""
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    driver = AdaptiveDiskDriver(
        disk=Disk(TOSHIBA_MK156F),
        label=label,
        queue=make_queue(queue_policy),
    )
    if rearrange:
        # Count the trace's references, then place the hottest blocks.
        analyzer = ReferenceStreamAnalyzer()
        for job in jobs:
            for step in job.steps:
                analyzer.observe(step.logical_block)
        arranger = BlockArranger(IoctlInterface(driver))
        moves, __ = arranger.rearrange(
            analyzer.hot_blocks(1018), num_blocks=1018, now_ms=0.0
        )
        print(f"   rearranged {len(moves)} blocks")
        driver.perf_monitor.read_and_clear()

    simulation = Simulation(driver)
    simulation.add_jobs(jobs)
    simulation.run()
    stats = driver.perf_monitor.stats("all")
    seek = TOSHIBA_MK156F.seek.mean_time(stats.scheduled_seek.buckets)
    return {
        "requests": stats.requests,
        "seek_ms": seek,
        "service_ms": stats.service.mean_ms,
        "waiting_ms": stats.queueing.mean_ms,
        "zero_seeks": stats.scheduled_seek.zero_fraction,
    }


def main() -> None:
    if len(sys.argv) > 1:
        trace_path = Path(sys.argv[1])
    else:
        trace_path = Path(tempfile.gettempdir()) / "mail_spool.trace"

    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    partition = label.add_partition("fs0", label.virtual_total_blocks)
    generator = WorkloadGenerator(
        MAIL_SPOOL,
        partition,
        TOSHIBA_MK156F.geometry.blocks_per_cylinder,
        seed=99,
    )
    workload = generator.generate_day()
    count = save_trace(workload.jobs, trace_path)
    print(
        f"Generated {workload.num_requests} requests in {count} jobs "
        f"-> {trace_path}"
    )

    jobs = load_trace(trace_path)
    print(f"Reloaded {len(jobs)} jobs; replaying four configurations:\n")

    header = (
        f"{'configuration':<26}{'seek ms':>9}{'service':>9}"
        f"{'waiting':>9}{'zero':>7}"
    )
    print(header)
    print("-" * len(header))
    for queue_policy in ("fcfs", "scan"):
        for rearrange in (False, True):
            name = f"{queue_policy} {'+ rearrangement' if rearrange else '(plain)'}"
            stats = replay(jobs, queue_policy, rearrange)
            print(
                f"{name:<26}{stats['seek_ms']:>9.2f}"
                f"{stats['service_ms']:>9.1f}{stats['waiting_ms']:>9.1f}"
                f"{stats['zero_seeks']:>6.0%}"
            )
    print(
        "\nSCAN helps on its own; rearrangement helps under either "
        "discipline; together they compound."
    )


if __name__ == "__main__":
    main()
