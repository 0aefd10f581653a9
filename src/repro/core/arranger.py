"""The block arranger (Section 4.2).

A user-level process that "selects the most frequently requested blocks
for rearrangement and controls their placement in the reserved area."  It
takes the analyzer's ranked hot list (``(logical block, count)`` pairs
from :meth:`~repro.core.analyzer.ReferenceStreamAnalyzer.hot_blocks`),
truncates it to the number of blocks to rearrange, runs a placement
policy, and issues one ``DKIOCBCOPY`` per ``(logical block, reserved
block)`` move the policy returns, in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..driver.errors import DeviceTimeout, MediaError
from ..driver.ioctl import IoctlInterface
from .placement import PlacementPolicy, ReservedLayout, make_policy


@dataclass
class BlockArranger:
    """Plans and executes reserved-area (re)population."""

    ioctl: IoctlInterface
    policy: PlacementPolicy = field(default_factory=lambda: make_policy("organ-pipe"))
    last_skipped: int = 0
    """Moves skipped by the most recent :meth:`execute` because
    their copy-in hit an unrecoverable device error."""

    _layout: ReservedLayout | None = field(default=None, repr=False)

    def reserved_layout(self) -> ReservedLayout:
        """The driver's reserved-area layout, built once per arranger.

        The label's reserved region is fixed at initialization, so the
        layout is reused across nightly cycles instead of being
        regrouped every plan.
        """
        if self._layout is None:
            self._layout = ReservedLayout.from_label(self.ioctl.driver.label)
        return self._layout

    def plan(
        self, ranked: list[tuple[int, int]], num_blocks: int
    ) -> list[tuple[int, int]]:
        """Select up to ``num_blocks`` of the ranked hot blocks and place
        them: the ``(logical block, reserved block)`` moves, in copy
        order."""
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        layout = self.reserved_layout()
        return self.policy.place(
            ranked[: min(num_blocks, layout.capacity)], layout
        )

    def execute(self, moves: list[tuple[int, int]], now_ms: float) -> float:
        """Clean the reserved area, then copy the planned blocks in.

        Returns the time at which the rearrangement finished.  Issues one
        ``DKIOCCLEAN`` followed by one ``DKIOCBCOPY`` per move, as the
        paper's nightly cycle does.  A move whose copy-in hits an
        unrecoverable device error is skipped — the home copy stays
        authoritative and the cycle moves on to the next hot block.
        """
        clock = self.ioctl.clean(now_ms)
        self.last_skipped = 0
        for logical_block, reserved_block in moves:
            try:
                clock = self.ioctl.bcopy(logical_block, reserved_block, clock)
            except (MediaError, DeviceTimeout) as exc:
                if exc.now_ms is not None:
                    clock = exc.now_ms
                self.last_skipped += 1
                self.ioctl.driver.fault_stats.skipped_moves += 1
        return clock

    def rearrange(
        self, ranked: list[tuple[int, int]], num_blocks: int, now_ms: float
    ) -> tuple[list[tuple[int, int]], float]:
        """Plan and execute in one step; returns (moves, finish time)."""
        moves = self.plan(ranked, num_blocks)
        return moves, self.execute(moves, now_ms)
