"""Address mappers: rescale foreign LBA spaces onto the simulated disk.

A real trace addresses a disk the simulator does not model — usually a
much larger one.  An :class:`AddressMapper` turns each source block
number into a virtual block on the simulated disk's file-system
partition.  Three strategies trade locality preservation against
working-set preservation:

``modulo``
    ``block % target_blocks``.  Cheap and stateless; preserves short
    sequential runs (until they hit the wrap point) but folds distant
    regions of the source disk on top of each other, which manufactures
    artificial locality for very large source spans.

``linear``
    ``block * target_blocks // source_span``.  Preserves the *shape* of
    the source address distribution — hot regions stay in proportionally
    the same place — but a source span much larger than the target disk
    collapses distinct neighboring blocks into one, shrinking the
    working set.

``compact``
    Working-set compaction: blocks get dense target addresses in order
    of first touch, so the k-th distinct source block lands at virtual
    block k (modulo the target size).  Preserves the working-set size
    and the re-reference structure exactly — the right default for
    rearrangement experiments, where what matters is *which* blocks are
    hot, not where the original disk kept them.  Costs one dict entry
    per distinct source block.

All mappers are deterministic: the same record stream maps to the same
virtual blocks on every run, which is what makes ingested traces (and
their replay digests) bit-reproducible.
"""

from __future__ import annotations

from typing import Protocol


class AddressMapper(Protocol):
    """Maps source block numbers into ``[0, target_blocks)``."""

    name: str
    target_blocks: int

    def map(self, block: int) -> int:
        """Virtual block for ``block``; always in ``[0, target_blocks)``."""
        ...


def _require_target(target_blocks: int) -> None:
    if target_blocks <= 0:
        raise ValueError("target_blocks must be positive")


class ModuloMapper:
    """``block % target_blocks``."""

    name = "modulo"

    def __init__(self, target_blocks: int) -> None:
        _require_target(target_blocks)
        self.target_blocks = target_blocks

    def map(self, block: int) -> int:
        return block % self.target_blocks


class LinearMapper:
    """Linear rescale of ``[0, source_span)`` onto ``[0, target_blocks)``.

    ``source_span`` must cover every block in the trace (use the maximum
    end block; :func:`repro.traces.ingest.ingest_trace` measures it with
    a streaming pre-pass when the caller does not know it).  Integer
    arithmetic keeps the mapping exact and platform-independent.
    """

    name = "linear"

    def __init__(self, target_blocks: int, source_span: int) -> None:
        _require_target(target_blocks)
        if source_span <= 0:
            raise ValueError("source_span must be positive")
        self.target_blocks = target_blocks
        self.source_span = source_span

    def map(self, block: int) -> int:
        if not 0 <= block < self.source_span:
            raise ValueError(
                f"source block {block} outside the declared span "
                f"[0, {self.source_span})"
            )
        return block * self.target_blocks // self.source_span


class CompactMapper:
    """First-touch compaction of the working set."""

    name = "compact"

    def __init__(self, target_blocks: int) -> None:
        _require_target(target_blocks)
        self.target_blocks = target_blocks
        self._ids: dict[int, int] = {}

    def map(self, block: int) -> int:
        virtual = self._ids.get(block)
        if virtual is None:
            virtual = len(self._ids) % self.target_blocks
            self._ids[block] = virtual
        return virtual

    @property
    def wrapped(self) -> bool:
        """True when the working set overflowed the target disk."""
        return len(self._ids) > self.target_blocks


MAPPING_STRATEGIES = ("modulo", "linear", "compact")


def make_mapper(
    strategy: str,
    target_blocks: int,
    *,
    source_span: int | None = None,
) -> AddressMapper:
    """Build the named mapping strategy.

    ``linear`` needs ``source_span`` (the exclusive upper bound of the
    source block space); the other strategies ignore it.
    """
    if strategy == "modulo":
        return ModuloMapper(target_blocks)
    if strategy == "compact":
        return CompactMapper(target_blocks)
    if strategy == "linear":
        if source_span is None:
            raise ValueError(
                "the linear strategy needs source_span (the source "
                "address-space size in blocks)"
            )
        return LinearMapper(target_blocks, source_span)
    known = ", ".join(MAPPING_STRATEGIES)
    raise ValueError(f"unknown mapping strategy {strategy!r}; known: {known}")
