"""The block arranger (Section 4.2).

A user-level process that "selects the most frequently requested blocks
for rearrangement and controls their placement in the reserved area."  It
consumes the analyzer's hot block list, truncates it to the number of
blocks to rearrange, runs a placement policy, and converts the result into
a sequence of ``DKIOCBCOPY`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..driver.errors import DeviceTimeout, MediaError
from ..driver.ioctl import IoctlInterface
from .hotlist import HotBlockList
from .placement import (
    Placement,
    PlacementPolicy,
    ReservedLayout,
    make_policy,
)


@dataclass(frozen=True)
class RearrangementPlan:
    """A fully resolved set of planned block copies."""

    placements: tuple[Placement, ...]
    policy: str

    def __len__(self) -> int:
        return len(self.placements)

    def logical_blocks(self) -> list[int]:
        return [p.logical_block for p in self.placements]

    def reserved_blocks(self) -> list[int]:
        return [p.reserved_block for p in self.placements]


@dataclass
class BlockArranger:
    """Plans and executes reserved-area (re)population."""

    ioctl: IoctlInterface
    policy: PlacementPolicy = field(default_factory=lambda: make_policy("organ-pipe"))
    last_skipped: int = 0
    """Placements skipped by the most recent :meth:`execute` because
    their copy-in hit an unrecoverable device error."""

    _layout: ReservedLayout | None = field(default=None, repr=False)

    def reserved_layout(self) -> ReservedLayout:
        """The driver's reserved-area layout, built once per arranger.

        The label's reserved region is fixed at initialization, so the
        layout (and its cached organ-pipe fill order) is reused across
        nightly cycles instead of being regrouped every plan.
        """
        if self._layout is None:
            self._layout = ReservedLayout.from_label(self.ioctl.driver.label)
        return self._layout

    def plan(
        self, hot_list: HotBlockList, num_blocks: int
    ) -> RearrangementPlan:
        """Select up to ``num_blocks`` hot blocks and place them."""
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        layout = self.reserved_layout()
        selected = hot_list.top(min(num_blocks, layout.capacity))
        placements = self.policy.place(selected, layout)
        return RearrangementPlan(
            placements=tuple(placements), policy=self.policy.name
        )

    def execute(self, plan: RearrangementPlan, now_ms: float) -> float:
        """Clean the reserved area, then copy the planned blocks in.

        Returns the time at which the rearrangement finished.  Issues one
        ``DKIOCCLEAN`` followed by one ``DKIOCBCOPY`` per placement, as the
        paper's nightly cycle does.  A placement whose copy-in hits an
        unrecoverable device error is skipped — the home copy stays
        authoritative and the cycle moves on to the next hot block.
        """
        clock = self.ioctl.clean(now_ms)
        self.last_skipped = 0
        for placement in plan.placements:
            try:
                clock = self.ioctl.bcopy(
                    placement.logical_block, placement.reserved_block, clock
                )
            except (MediaError, DeviceTimeout) as exc:
                if exc.now_ms is not None:
                    clock = exc.now_ms
                self.last_skipped += 1
                self.ioctl.driver.fault_stats.skipped_moves += 1
        return clock

    def rearrange(
        self, hot_list: HotBlockList, num_blocks: int, now_ms: float
    ) -> tuple[RearrangementPlan, float]:
        """Plan and execute in one step; returns (plan, finish time)."""
        plan = self.plan(hot_list, num_blocks)
        finish = self.execute(plan, now_ms)
        return plan, finish
