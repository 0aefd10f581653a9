"""ioctl-style entry points into the driver (Sections 4.1.3, 4.1.4, 4.1.5).

The paper controls the modified driver from user-level programs through the
``ioctl`` system call.  :class:`IoctlInterface` is that boundary: the
user-level reference stream analyzer and block arranger in
:mod:`repro.core` talk to the driver exclusively through this object, never
through the driver's internals — mirroring the kernel/user split of the
real implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .driver import AdaptiveDiskDriver
from .monitor import ClassStats


@dataclass(frozen=True)
class ReservedAreaInfo:
    """Reserved-area description returned by the geometry ioctl."""

    start_cylinder: int
    cylinders: int
    capacity_blocks: int
    data_blocks: tuple[int, ...]
    center_cylinder: int


@dataclass
class IoctlInterface:
    """User-process view of one adaptive driver."""

    driver: AdaptiveDiskDriver

    @property
    def device_name(self) -> str:
        """Name of the device this interface controls (e.g. ``disk0``)."""
        return self.driver.name

    # -- block movement -------------------------------------------------

    def bcopy(self, logical_block: int, reserved_block: int, now_ms: float) -> float:
        """``DKIOCBCOPY``: copy ``logical_block`` to ``reserved_block``."""
        return self.driver.bcopy(logical_block, reserved_block, now_ms)

    def clean(self, now_ms: float) -> float:
        """``DKIOCCLEAN``: move every rearranged block back home."""
        return self.driver.clean(now_ms)

    # -- monitoring ------------------------------------------------------

    def read_requests(self) -> list[int]:
        """Read and clear the request-monitoring table (Section 4.1.4):
        the logical block numbers recorded since the last read."""
        return self.driver.request_monitor.read_and_clear()

    def read_stats(self) -> dict[str, ClassStats]:
        """Read and clear the performance tables (Section 4.1.5)."""
        return self.driver.perf_monitor.read_and_clear()

    # -- geometry ----------------------------------------------------------

    def get_reserved_area(self) -> ReservedAreaInfo:
        """Reserved-area layout, as recorded in the disk label."""
        label = self.driver.label
        if not label.is_rearranged:
            raise ValueError("disk is not initialized for rearrangement")
        assert label.reserved_start_cylinder is not None
        return ReservedAreaInfo(
            start_cylinder=label.reserved_start_cylinder,
            cylinders=label.reserved_cylinders,
            capacity_blocks=label.reserved_capacity_blocks(),
            data_blocks=tuple(label.reserved_data_blocks()),
            center_cylinder=label.reserved_center_cylinder(),
        )
