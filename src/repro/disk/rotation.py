"""Rotational position and latency model.

The platters spin continuously at a fixed rate (3600 RPM on both of the
paper's drives), so the angular position under the heads is a pure function
of the simulation clock.  Rotational latency for an access is the time until
the target sector's leading edge arrives under the head.

Modelling the *absolute* rotational position (rather than drawing a uniform
random latency) matters for one of the paper's experiments: Table 10 shows
that the *interleaved* placement policy preserves the file system's
rotational optimization while organ-pipe placement defeats it.  That effect
only exists if consecutive accesses to rotationally staggered blocks see the
real angular geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import DiskGeometry


@dataclass(frozen=True)
class RotationModel:
    """Angular bookkeeping for a disk spinning at a constant rate.

    Angles are expressed in *sector units*: the platter is divided into
    ``sectors_per_track`` angular slots, and sector ``s`` of any track begins
    at angular slot ``s``.  All tracks of a cylinder are assumed to be
    angularly aligned (no track skew), which matches the simple geometry the
    paper's drives advertise through SCSI.
    """

    geometry: DiskGeometry

    @property
    def rotation_time_ms(self) -> float:
        return self.geometry.rotation_time_ms

    @property
    def sector_time_ms(self) -> float:
        return self.geometry.sector_time_ms

    def angle_at(self, now_ms: float) -> float:
        """Angular position (in sector units) under the head at ``now_ms``."""
        if now_ms < 0:
            raise ValueError("time must be non-negative")
        sectors = now_ms / self.sector_time_ms
        return sectors % self.geometry.sectors_per_track

    def latency_to_sector(self, now_ms: float, sector: int) -> float:
        """Time until ``sector``'s leading edge is under the head.

        Returns a value in ``[0, rotation_time_ms)``.  A request for the
        sector currently *beginning* to pass under the head has latency 0.
        """
        if not 0 <= sector < self.geometry.sectors_per_track:
            raise ValueError(
                f"sector {sector} out of range "
                f"[0, {self.geometry.sectors_per_track})"
            )
        angle = self.angle_at(now_ms)
        delta_sectors = (sector - angle) % self.geometry.sectors_per_track
        # Guard against the float edge where delta wraps to a full rotation.
        latency = delta_sectors * self.sector_time_ms
        if latency >= self.rotation_time_ms:
            latency -= self.rotation_time_ms
        return latency
