"""Seek-time models.

The paper publishes measured piecewise seek-time functions for both of its
drives (Table 1): a square-root/cube-root/log curve for short seeks and a
linear tail for long ones, with ``seektime(0) == 0``.  :class:`SeekModel`
captures that shape generically; the exact published coefficient sets live
in :mod:`repro.disk.models`.

The paper computes its reported *seek times* by pushing the measured seek
*distance* distribution through these functions, and
:meth:`SeekModel.mean_time` supports exactly that computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class SeekCurve:
    """One branch of a piecewise seek-time function.

    Evaluates ``a + b*sqrt(d) + c*cbrt(d) + e*ln(d)`` for the non-linear
    branch used at short distances, or ``a + b*d`` for the linear tail
    (with ``c`` and ``e`` zero).  Distances are in cylinders, times in
    milliseconds.
    """

    a: float
    b: float = 0.0
    c: float = 0.0
    e: float = 0.0
    linear: bool = False

    def __call__(self, distance: int) -> float:
        d = float(distance)
        if self.linear:
            return self.a + self.b * d
        return (
            self.a
            + self.b * math.sqrt(d)
            + self.c * d ** (1.0 / 3.0)
            + self.e * math.log(d)
        )


@dataclass(frozen=True)
class SeekModel:
    """Piecewise seek-time function ``seektime(d)`` in milliseconds.

    ``seektime(0)`` is always 0 (no head movement).  For ``0 < d``
    below ``crossover`` the ``short`` curve applies, otherwise ``long``.
    ``max_cylinders`` bounds the meaningful argument range and is used for
    validation only.
    """

    short: SeekCurve
    long: SeekCurve
    crossover: int
    max_cylinders: int
    name: str = "seek-model"

    def __call__(self, distance: int) -> float:
        return self.time(distance)

    def time(self, distance: int) -> float:
        """Seek time in ms for a move of ``distance`` cylinders."""
        d = abs(int(distance))
        if d == 0:
            return 0.0
        if d >= self.max_cylinders:
            raise ValueError(
                f"seek distance {d} exceeds disk span {self.max_cylinders}"
            )
        if d < self.crossover:
            return self.short(d)
        return self.long(d)

    def mean_time(self, distance_counts: Mapping[int, int]) -> float:
        """Mean seek time implied by a seek-distance histogram.

        This is the paper's methodology: "seek times ... were computed using
        the measured seek distance distribution and the seek time functions"
        (Section 5.2).
        """
        total = 0
        weighted = 0.0
        for distance, count in distance_counts.items():
            if count < 0:
                raise ValueError("histogram counts must be non-negative")
            total += count
            weighted += count * self.time(distance)
        if total == 0:
            return 0.0
        return weighted / total

    def times(self, distances: Iterable[int]) -> list[float]:
        """Seek times for a sequence of distances."""
        return [self.time(d) for d in distances]
