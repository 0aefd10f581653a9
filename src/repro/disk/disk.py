"""The mechanical disk: turns one block access into a service-time breakdown.

A :class:`Disk` owns the head position and the (implicit) rotational state
and services exactly one request at a time — concurrency and queueing are
the device driver's job (:mod:`repro.driver`).  Each access is decomposed
the way the paper's measurements are analysed:

``service = controller overhead + seek + rotational latency + transfer``

with the optional read-ahead track buffer short-circuiting reads that hit
the buffer (Fujitsu M2266 only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import DiskGeometry
from .models import DiskModel
from .rotation import RotationModel
from .seek import SeekModel, seek_table
from .trackbuffer import TrackBuffer


@dataclass(frozen=True, slots=True)
class ServiceBreakdown:
    """Component delays of one serviced block access (all in ms)."""

    block: int
    cylinder: int
    is_read: bool
    start_ms: float
    seek_distance: int
    seek_ms: float
    rotation_ms: float
    transfer_ms: float
    overhead_ms: float
    buffer_hit: bool = False

    @property
    def service_ms(self) -> float:
        return self.overhead_ms + self.seek_ms + self.rotation_ms + self.transfer_ms

    @property
    def finish_ms(self) -> float:
        return self.start_ms + self.service_ms


@dataclass
class Disk:
    """A simulated drive built from a :class:`DiskModel` preset.

    The head starts at cylinder 0 (as after a recalibration at power-on).
    Besides timing, the disk keeps a sparse map of per-block *contents*
    (arbitrary Python values standing in for 8 KB of data) so that tests can
    verify that redirection and block movement never lose or corrupt data.
    """

    model: DiskModel
    head_cylinder: int = 0
    accesses: int = 0
    _track_buffer: TrackBuffer | None = field(default=None, repr=False)
    _contents: dict[int, object] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        geometry = self.model.geometry
        self._rotation = RotationModel(geometry)
        if self.model.track_buffer_bytes:
            self._track_buffer = TrackBuffer(
                geometry=geometry,
                capacity_bytes=self.model.track_buffer_bytes,
                host_transfer_ms=self.model.track_buffer_transfer_ms,
            )
        # Hot-path constants.  The seek table holds the piecewise model's
        # value for every reachable cylinder delta (verified equal in
        # tests/test_api.py), so a request costs one tuple index instead of
        # a branch + sqrt/cbrt/log evaluation; every disk of one model
        # shares it.  The remaining scalars are the exact floats the
        # properties would recompute per access.
        self._seek_table = seek_table(self.model.seek, geometry.cylinders)
        self._overhead_ms = self.model.controller_overhead_ms
        self._blocks_per_cylinder = geometry.blocks_per_cylinder
        self._sectors_per_block = geometry.sectors_per_block
        self._sectors_per_track = geometry.sectors_per_track
        self._total_blocks = geometry.total_blocks
        self._sector_time_ms = geometry.sector_time_ms
        self._rotation_time_ms = geometry.rotation_time_ms
        self._block_transfer_ms = geometry.block_transfer_time_ms(1)

    @property
    def geometry(self) -> DiskGeometry:
        return self.model.geometry

    @property
    def seek_model(self) -> SeekModel:
        return self.model.seek

    @property
    def track_buffer(self) -> TrackBuffer | None:
        return self._track_buffer

    def access(self, block: int, is_read: bool, now_ms: float) -> ServiceBreakdown:
        """Service a one-block access starting at ``now_ms``.

        Moves the head, updates the track buffer, and returns the timing
        breakdown.  The caller must not start another access before
        ``finish_ms`` of the returned breakdown.
        """
        if not 0 <= block < self._total_blocks:
            raise ValueError(
                f"block {block} out of range [0, {self._total_blocks})"
            )
        cylinder, index = divmod(block, self._blocks_per_cylinder)
        self.accesses += 1

        buffer = self._track_buffer
        if is_read and buffer is not None:
            if buffer.lookup_read(block):
                # Buffer hit: no mechanical work at all; the head stays put.
                return ServiceBreakdown(
                    block=block,
                    cylinder=cylinder,
                    is_read=True,
                    start_ms=now_ms,
                    seek_distance=0,
                    seek_ms=0.0,
                    rotation_ms=0.0,
                    transfer_ms=buffer.host_transfer_ms,
                    overhead_ms=self._overhead_ms,
                    buffer_hit=True,
                )

        distance = abs(cylinder - self.head_cylinder)
        seek_ms = self._seek_table[distance]
        arrival = now_ms + self._overhead_ms + seek_ms
        # Rotational latency, inlined from RotationModel.latency_to_sector
        # with the identical float operation sequence (the digest depends
        # on it): angle in sector units, wrap-guarded delta * sector time.
        start_sector = (
            index * self._sectors_per_block
        ) % self._sectors_per_track
        angle = (arrival / self._sector_time_ms) % self._sectors_per_track
        rotation_ms = (
            (start_sector - angle) % self._sectors_per_track
        ) * self._sector_time_ms
        if rotation_ms >= self._rotation_time_ms:
            rotation_ms -= self._rotation_time_ms

        self.head_cylinder = cylinder
        if buffer is not None:
            if is_read:
                buffer.fill_after_read(block)
            else:
                buffer.invalidate_write(block)

        return ServiceBreakdown(
            block=block,
            cylinder=cylinder,
            is_read=is_read,
            start_ms=now_ms,
            seek_distance=distance,
            seek_ms=seek_ms,
            rotation_ms=rotation_ms,
            transfer_ms=self._block_transfer_ms,
            overhead_ms=self._overhead_ms,
            buffer_hit=False,
        )

    def cylinder_of_block(self, block: int) -> int:
        return self.geometry.cylinder_of_block(block)

    # ------------------------------------------------------------------
    # Data contents (correctness bookkeeping, no timing effect)
    # ------------------------------------------------------------------

    def read_data(self, block: int) -> object:
        """Contents of ``block`` (None if never written)."""
        self.geometry.locate_block(block)  # validates the address
        return self._contents.get(block)

    def write_data(self, block: int, value: object) -> None:
        """Store ``value`` as the contents of ``block``."""
        self.geometry.locate_block(block)  # validates the address
        self._contents[block] = value

    def move_contents(self, block_mapping) -> int:
        """Permute stored contents: each block's data moves to
        ``block_mapping(block)``.  Used by whole-cylinder reorganization.
        Returns the number of blocks whose data actually moved."""
        moved = 0
        relocated: dict[int, object] = {}
        for block, value in self._contents.items():
            target = block_mapping(block)
            self.geometry.locate_block(target)
            relocated[target] = value
            if target != block:
                moved += 1
        self._contents = relocated
        return moved
