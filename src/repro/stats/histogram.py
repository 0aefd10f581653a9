"""Histograms matching the driver's recording resolutions.

Section 4.1.5: "Times are measured with microsecond resolution.  However,
time distributions are recorded with a resolution of one millisecond.
Cumulative service times and queueing times are recorded as well, using the
full resolution of the measurements."

:class:`TimeHistogram` therefore buckets samples at 1 ms resolution *and*
keeps an exact cumulative sum and count, so means are full-resolution while
distributions are bucketed — exactly how the paper's numbers are formed.
:class:`DistanceHistogram` is the analogous integer-keyed histogram for
seek distances in cylinders.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class TimeHistogram:
    """Millisecond-bucketed time distribution with exact cumulative stats."""

    resolution_ms: float = 1.0
    buckets: Counter = field(default_factory=Counter)
    count: int = 0
    total_ms: float = 0.0
    total_sq_ms: float = 0.0
    max_ms: float = 0.0

    def record(self, value_ms: float) -> None:
        if value_ms < 0:
            raise ValueError(f"negative time sample: {value_ms}")
        self.buckets[int(value_ms // self.resolution_ms)] += 1
        self.count += 1
        self.total_ms += value_ms
        self.total_sq_ms += value_ms * value_ms
        if value_ms > self.max_ms:
            self.max_ms = value_ms

    @property
    def mean_ms(self) -> float:
        """Full-resolution mean (from the cumulative sum, not the buckets)."""
        if self.count == 0:
            return 0.0
        return self.total_ms / self.count

    @property
    def stdev_ms(self) -> float:
        if self.count < 2:
            return 0.0
        mean = self.mean_ms
        variance = max(self.total_sq_ms / self.count - mean * mean, 0.0)
        return math.sqrt(variance)

    def fraction_below(self, threshold_ms: float) -> float:
        """Fraction of samples strictly below ``threshold_ms`` (bucketed).

        Used to read points off the paper's service-time CDFs (Figures 4
        and 6), e.g. "50% of all the requests are completed in less than 20
        milliseconds".
        """
        if self.count == 0:
            return 0.0
        limit = int(threshold_ms // self.resolution_ms)
        below = sum(
            count for bucket, count in self.buckets.items() if bucket < limit
        )
        return below / self.count

    def cdf(self) -> list[tuple[float, float]]:
        """Cumulative distribution as (upper edge ms, fraction <= edge)."""
        if self.count == 0:
            return []
        points: list[tuple[float, float]] = []
        running = 0
        for bucket in sorted(self.buckets):
            running += self.buckets[bucket]
            edge = (bucket + 1) * self.resolution_ms
            points.append((edge, running / self.count))
        return points

    def percentile(self, q: float) -> float:
        """Smallest bucket upper edge covering fraction ``q`` of samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        needed = q * self.count
        running = 0
        for bucket in sorted(self.buckets):
            running += self.buckets[bucket]
            if running >= needed:
                return (bucket + 1) * self.resolution_ms
        return self.max_ms

    def merge(self, other: "TimeHistogram") -> None:
        if other.resolution_ms != self.resolution_ms:
            raise ValueError("cannot merge histograms of differing resolution")
        self.buckets.update(other.buckets)
        self.count += other.count
        self.total_ms += other.total_ms
        self.total_sq_ms += other.total_sq_ms
        self.max_ms = max(self.max_ms, other.max_ms)


@dataclass
class DistanceHistogram:
    """Seek-distance distribution, in whole cylinders."""

    buckets: Counter = field(default_factory=Counter)
    count: int = 0
    total: int = 0

    def record(self, distance: int) -> None:
        if distance < 0:
            raise ValueError(f"negative seek distance: {distance}")
        self.buckets[int(distance)] += 1
        self.count += 1
        self.total += int(distance)

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def zero_fraction(self) -> float:
        """Fraction of zero-length seeks (Tables 3, 8 and 9)."""
        if self.count == 0:
            return 0.0
        return self.buckets.get(0, 0) / self.count

    def merge(self, other: "DistanceHistogram") -> None:
        self.buckets.update(other.buckets)
        self.count += other.count
        self.total += other.total
