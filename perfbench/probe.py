"""A host clock corrected for how fast the shared host runs right now.

On a host shared with other guests, the same run's wall time moved by a
factor of two within minutes, in phases that a calibration loop run
before and after the run did not see.  :class:`SpeedProbe` therefore
samples the host's speed *during* the run: a timer signal interrupts the
workload every :data:`PROBE_INTERVAL_S` and times fixed pure-Python work
(:meth:`SpeedProbe.probe_loop`).  Host time between two samples is rescaled by
how long the loop took against :data:`REFERENCE_PROBE_NS`; time spent in
the loop itself counts as nothing.  :meth:`SpeedProbe.clock` turns this
into a monotone clock, so every interval the benchmark times (the run,
set-up, each span) is read in reference seconds: the seconds the work
would have taken on a host where the loop takes its reference time.
"""

from __future__ import annotations

import random
import signal
from bisect import bisect_right
from time import perf_counter_ns
from typing import Any, Callable

PROBE_INTERVAL_S = 0.05
"""Host seconds between samples; each costs 1 to 2 ms, set aside."""
REFERENCE_PROBE_NS = 600_000
"""About the probe's time, in ns, on an idle core of the reference host
(a 2-vCPU Xeon KVM guest, Python 3.11).  A constant: it sets the unit of
the corrected clock and never changes between the runs compared."""

PROBE_ROUNDS = 1500
"""Rounds of cache-resident work per sample; half as many chained loads."""
CHASE_BYTES = 32 << 20
"""The chased table: far larger than the reference host's 4 MiB L2 cache."""


def chase_table() -> bytearray:
    """``CHASE_BYTES`` seeded random bytes, built 1 MiB at a time so
    that building it never holds more than the table and one chunk."""
    chunk = 1 << 20
    table = bytearray(CHASE_BYTES)
    rng = random.Random(1993)
    for offset in range(0, CHASE_BYTES, chunk):
        table[offset:offset + chunk] = rng.randbytes(chunk)
    return table


class SpeedProbe:
    """Samples host speed on a timer while the ``with`` block runs.

    Samples are taken on entry, on exit and every
    :data:`PROBE_INTERVAL_S` between.  The timer signal is ``SIGALRM``;
    the block must run in the main thread.  The probe holds its
    :data:`CHASE_BYTES` table, resident, for as long as it lives.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []
        """``perf_counter_ns`` readings around each probe loop."""
        self._previous_handler: Any = None
        self._table = {key: key for key in range(1024)}
        self._slots = [0] * 1024
        self._chase = chase_table()

    def probe_loop(self) -> int:
        """Fixed interpreter work of two kinds: integer arithmetic with
        dict and list updates that stay in cache, then half as many
        dependent loads chained through the chase table.  Host contention
        slows the two differently, and the workloads mix both: the first
        kind alone over-corrected the memory-bound fleet set-up, and equal
        parts under-corrected ``system_nightly``.

        It allocates no object the garbage collector tracks, so sampling
        never triggers a collection of the workload's heap.
        """
        state = 12345
        table = self._table
        slots = self._slots
        for _ in range(PROBE_ROUNDS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = state & 1023
            table[key] = table[key] ^ (state >> 10)
            slots[key] += 1
        chase = self._chase
        mask = CHASE_BYTES - 1
        at = 0
        for _ in range(PROBE_ROUNDS // 2):
            at = (at * 1103515245 + chase[at] + 12345) & mask
        return state ^ at

    def _sample(self, *_: Any) -> None:
        start = perf_counter_ns()
        self.probe_loop()
        self.samples.append((start, perf_counter_ns()))

    def __enter__(self) -> SpeedProbe:
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()

    def slowdown(self) -> float:
        """Median probe time over the reference: 2.0 means the host ran
        the loop at half its reference speed."""
        times = sorted(end - start for start, end in self.samples)
        return times[len(times) // 2] / REFERENCE_PROBE_NS

    def clock(self) -> Callable[[int], int]:
        """Map a ``perf_counter_ns`` reading taken inside the ``with``
        block to reference nanoseconds since the first sample.

        Between two samples the host ran at the mean of their two speeds;
        during a sample the clock stands still.
        """
        samples = self.samples
        starts = [start for start, _ in samples]
        speeds = [REFERENCE_PROBE_NS / (end - start) for start, end in samples]
        at_start = [0.0]
        for i in range(1, len(samples)):
            gap = starts[i] - samples[i - 1][1]
            at_start.append(at_start[-1] + gap * (speeds[i - 1] + speeds[i]) / 2)

        def reference_ns(host_ns: int) -> int:
            i = bisect_right(starts, host_ns) - 1
            if i < 0:
                raise ValueError("reading taken before the probe started")
            end = samples[i][1]
            if host_ns <= end:
                return round(at_start[i])
            if i + 1 == len(samples):
                raise ValueError("reading taken after the probe stopped")
            speed = (speeds[i] + speeds[i + 1]) / 2
            return round(at_start[i] + (host_ns - end) * speed)

        return reference_ns
