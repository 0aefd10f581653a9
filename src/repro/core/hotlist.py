"""The hot block list: ranked reference-frequency estimates.

The rearrangement system "monitors the stream of requests directed to the
disk and periodically produces a list of hot (frequently-referenced)
blocks, ordered by frequency of reference" (Section 2).  This module gives
that list a small value type with the selection/query helpers the arranger
and the analysis benchmarks need.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HotBlock:
    """One entry of the hot block list."""

    block: int  # logical (virtual-disk) block number
    count: int  # estimated reference count

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("reference count must be non-negative")


@dataclass(frozen=True)
class HotBlockList:
    """Blocks ordered by decreasing estimated reference frequency."""

    entries: tuple[HotBlock, ...]

    @classmethod
    def from_pairs(cls, pairs: list[tuple[int, int]]) -> "HotBlockList":
        """Build from (block, count) pairs, enforcing the ranking order."""
        ordered = sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
        return cls(tuple(HotBlock(block, count) for block, count in ordered))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> HotBlock:
        return self.entries[index]

    def top(self, n: int) -> "HotBlockList":
        """The ``n`` hottest blocks."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return HotBlockList(self.entries[:n])

    def blocks(self) -> list[int]:
        return [entry.block for entry in self.entries]

    def count_of(self, block: int) -> int:
        for entry in self.entries:
            if entry.block == block:
                return entry.count
        return 0

    def contains(self, block: int) -> bool:
        return any(entry.block == block for entry in self.entries)

    def coverage_of(self, counts: dict[int, int]) -> float:
        """Fraction of the true reference mass this list's blocks absorb.

        Used to evaluate estimation accuracy (the analyzer-size ablation).
        """
        total = sum(counts.values())
        if total == 0:
            return 0.0
        covered = sum(counts.get(entry.block, 0) for entry in self.entries)
        return covered / total
