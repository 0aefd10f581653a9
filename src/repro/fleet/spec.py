"""The fleet's one source of truth: devices, shards, schedule, seeds.

Everything about a fleet run that affects its *results* lives in
:class:`FleetSpec` — device count and model, the tenancy knobs, the
on/off schedule, the shard layout, the seed.  Execution details (worker
count, retries, injected faults) deliberately do not: two runs of the same spec must
produce bit-identical digests at any parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.counters import COUNTER_STRATEGIES
from ..disk.models import DISK_MODELS
from ..policy import RearrangementPolicy, resolve_policy
from ..workload.tenancy import TenancySpec

__all__ = ["FleetSpec"]


@dataclass(frozen=True)
class FleetSpec:
    """A reproducible fleet experiment."""

    devices: int = 64
    """Physical disks in the fleet."""
    disk: str = "fujitsu"
    """Disk model every device uses (``"toshiba"``/``"fujitsu"``/``"modern"``)."""
    tenancy: TenancySpec = field(default_factory=TenancySpec)
    """User population and traffic shape (see :mod:`repro.workload.tenancy`)."""
    days: int = 3
    """Length of the default schedule: one training (off) day, then
    rearranged days.  Ignored when ``schedule`` is given explicitly."""
    schedule: tuple[bool, ...] | None = None
    """Explicit per-day rearrangement schedule; day 0 must be off."""
    hours: float | None = None
    """Shorten each measurement day (for quick/bench runs); ``None``
    keeps the profile's full day."""
    devices_per_shard: int = 8
    """Shard width.  Part of the spec, *not* an execution knob: shard
    boundaries feed the seed derivation, so changing the width changes
    the run (changing ``workers`` never does)."""
    num_blocks: int | None = None
    """Blocks each device rearranges nightly; default: the paper's
    per-model choice."""
    counter: str = "spacesaving"
    """Analyzer counter strategy; the bounded sketch by default, so
    per-device analyzer state stays O(capacity) on large disks."""
    policy: RearrangementPolicy | str | None = None
    """Per-device rearrangement policy (instance or ``"nightly"`` /
    ``"online"`` / ``"off"`` shorthand).  ``None`` keeps the nightly
    cycle and — for digest stability across releases — is omitted from
    the spec payload entirely."""
    seed: int = 1993
    """Root of the fleet's ``SeedSequence`` tree (one child per shard,
    one grandchild per device, one child for the shared hot set)."""

    def __post_init__(self) -> None:
        resolve_policy(self.policy)  # validate shorthand/type early
        if self.devices < 1:
            raise ValueError("devices must be positive")
        if self.devices_per_shard < 1:
            raise ValueError("devices_per_shard must be positive")
        if self.disk not in DISK_MODELS:
            known = ", ".join(sorted(DISK_MODELS))
            raise ValueError(f"unknown disk {self.disk!r}; known: {known}")
        if self.counter not in COUNTER_STRATEGIES:
            known = ", ".join(COUNTER_STRATEGIES)
            raise ValueError(
                f"unknown counter strategy {self.counter!r}; known: {known}"
            )
        if self.schedule is not None:
            if len(self.schedule) < 1:
                raise ValueError("schedule cannot be empty")
            if self.schedule[0]:
                raise ValueError(
                    "day 0 cannot be an 'on' day: no reference counts exist yet"
                )
        elif self.days < 2:
            raise ValueError("a fleet run needs at least two days (off + on)")
        if self.hours is not None and self.hours <= 0:
            raise ValueError("hours must be positive")

    # -- derived layout --------------------------------------------------

    def resolved_schedule(self) -> tuple[bool, ...]:
        """The per-day rearrangement schedule actually run."""
        if self.schedule is not None:
            return tuple(self.schedule)
        return (False,) + (True,) * (self.days - 1)

    @property
    def num_shards(self) -> int:
        return -(-self.devices // self.devices_per_shard)  # ceil division

    def shard_devices(self, shard: int) -> range:
        """Global device indices belonging to ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range")
        start = shard * self.devices_per_shard
        return range(start, min(start + self.devices_per_shard, self.devices))

    def device_name(self, index: int) -> str:
        """Stable device name, e.g. ``"d0042"``."""
        return f"d{index:04d}"
