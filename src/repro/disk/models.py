"""Drive presets: the two disks from the paper's Table 1.

Geometry and the piecewise seek-time functions are transcribed exactly from
the paper.  The one parameter the paper does not publish directly is the
fixed per-request controller/bus overhead; it is calibrated so that
``seek + rotation + transfer + overhead`` reproduces the paper's measured
no-rearrangement mean service times (Tables 2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import DiskGeometry
from .seek import SeekCurve, SeekModel


@dataclass(frozen=True)
class DiskModel:
    """Everything needed to instantiate a simulated drive."""

    name: str
    geometry: DiskGeometry
    seek: SeekModel
    controller_overhead_ms: float = 0.0
    track_buffer_bytes: int | None = None
    track_buffer_transfer_ms: float = 2.0


def _toshiba_mk156f() -> DiskModel:
    geometry = DiskGeometry(
        cylinders=815,
        tracks_per_cylinder=10,
        sectors_per_track=34,
        rpm=3600.0,
    )
    seek = SeekModel(
        short=SeekCurve(a=6.248, b=1.393, c=-0.99, e=0.813),
        long=SeekCurve(a=17.503, b=0.03, linear=True),
        crossover=315,  # short branch applies for d < 315
        max_cylinders=geometry.cylinders,
        name="toshiba-mk156f",
    )
    return DiskModel(
        name="Toshiba MK156F",
        geometry=geometry,
        seek=seek,
        controller_overhead_ms=4.0,
    )


def _fujitsu_m2266() -> DiskModel:
    geometry = DiskGeometry(
        cylinders=1658,
        tracks_per_cylinder=15,
        sectors_per_track=85,
        rpm=3600.0,
    )
    seek = SeekModel(
        short=SeekCurve(a=1.205, b=0.65, c=-0.734, e=0.659),
        long=SeekCurve(a=7.44, b=0.0114, linear=True),
        crossover=226,  # short branch applies for d <= 225
        max_cylinders=geometry.cylinders,
        name="fujitsu-m2266",
    )
    return DiskModel(
        name="Fujitsu M2266",
        geometry=geometry,
        seek=seek,
        controller_overhead_ms=2.2,
        track_buffer_bytes=256 * 1024,
        track_buffer_transfer_ms=2.0,
    )


def _modern_disk() -> DiskModel:
    """A published-style geometry scaled to ~8 GB and over 2M blocks.

    Not one of the paper's drives: a composite of late-generation SCSI
    specifications (7200 RPM, ~1 MB cylinders, single-digit-millisecond
    average seeks) sized so that a full standard day exercises a
    multi-million-block device — the scale target of ``docs/scaling.md``.
    The 4 KB file-system block yields 2,097,152 blocks:
    8192 cylinders x 16 tracks x 128 sectors x 512 B = 8 GB.
    """
    geometry = DiskGeometry(
        cylinders=8192,
        tracks_per_cylinder=16,
        sectors_per_track=128,
        rpm=7200.0,
        block_bytes=4096,
    )
    # Square-root short branch meeting a shallow linear tail at the
    # crossover (short(1200) = 5.80 ms, long(1200) = 5.82 ms); full-stroke
    # is 13.5 ms and the average random seek lands near 7.5 ms.
    seek = SeekModel(
        short=SeekCurve(a=0.6, b=0.15),
        long=SeekCurve(a=4.5, b=0.0011, linear=True),
        crossover=1200,
        max_cylinders=geometry.cylinders,
        name="modern-disk",
    )
    return DiskModel(
        name="Modern Disk 8G",
        geometry=geometry,
        seek=seek,
        controller_overhead_ms=0.5,
        track_buffer_bytes=2 * 1024 * 1024,
        track_buffer_transfer_ms=0.5,
    )


TOSHIBA_MK156F = _toshiba_mk156f()
"""The paper's 135 MB Toshiba MK156F SCSI disk (Table 1)."""

FUJITSU_M2266 = _fujitsu_m2266()
"""The paper's 1 GB Fujitsu M2266 SCSI disk with track buffer (Table 1)."""

MODERN_DISK = _modern_disk()
"""A synthetic ~8 GB drive with 2,097,152 blocks (scale testing)."""

DISK_MODELS = {
    "toshiba": TOSHIBA_MK156F,
    "fujitsu": FUJITSU_M2266,
    "modern": MODERN_DISK,
}


PAPER_RESERVED_CYLINDERS = {"toshiba": 48, "fujitsu": 80, "modern": 64}
"""Reserved-area size per preset, in cylinders: the paper's 48 and 80
(Section 5), and 64 on the synthetic ``modern`` drive."""

PAPER_REARRANGED_BLOCKS = {"toshiba": 1018, "fujitsu": 3500, "modern": 8000}
"""Blocks rearranged nightly per preset: the paper's 1018 and 3500
(Section 5), and 8000 on the synthetic ``modern`` drive."""


def disk_model(disk: str) -> DiskModel:
    """Look up a preset by short name (``"toshiba"``, ``"fujitsu"``, or
    ``"modern"``)."""
    try:
        return DISK_MODELS[disk.lower()]
    except KeyError:
        known = ", ".join(sorted(DISK_MODELS))
        raise KeyError(f"unknown disk model {disk!r}; known: {known}") from None
