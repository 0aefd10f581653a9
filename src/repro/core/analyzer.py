"""The reference stream analyzer (Section 4.2).

A user-level process that periodically reads the driver's request table
(via ioctl) and maintains a list of block-number/reference-count pairs.
"In the worst case, the length of the reference stream analyzer's list will
be proportional to the number of blocks on the disk ... However, the
analyzer can guess at the hottest blocks using a much smaller amount of
memory ... by limiting the size of the list.  In case a block that does not
appear on the list is referenced, a replacement heuristic is used to make
room for it."

The analyzer's *counter strategy* decides how much state those counts take
(see :mod:`repro.core.counters`):

* ``exact`` (default) — one count per referenced block, exactly the
  paper's configuration and bit-identical to the historical behaviour of
  this module.  Optionally bounded by ``capacity``, in which case one of
  two replacement heuristics makes room for new blocks, following the
  probabilistic hot-spot estimation line of work the paper points to
  ([Salem 92], [Salem 93]):

  * ``space-saving`` — the classic stream-summary rule: the new block
    evicts the minimum-count entry and *inherits* its count plus one.
    Guarantees the true hottest blocks appear in the list once their
    counts exceed the eviction floor.
  * ``evict-min`` — the naive rule: the new block evicts the
    minimum-count entry and starts from one.  Cheaper, but biased against
    late-arriving hot blocks; included as the ablation baseline.

* ``spacesaving`` — the heap-backed Space-Saving sketch: O(log k)
  updates, O(k log k) nightly ranking independent of the device size, and
  the paper's day-to-day count fading applied at :meth:`reset`.  The
  scalable choice for multi-million-block devices.

An unbounded exact counter (``capacity=None``) is what the paper used in
its experiments ("the analyzer maintained a list of several thousand
reference counts, enough so that replacement was rarely necessary").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import nlargest

from ..driver.ioctl import IoctlInterface
from .counters import COUNTER_STRATEGIES, DEFAULT_FADING, SpaceSavingSketch

REPLACEMENT_HEURISTICS = ("space-saving", "evict-min")

# Below this many tracked blocks the plain-Python ranking beats the numpy
# round trip; above it the vectorized sort wins by an order of magnitude.
_VECTOR_RANK_MIN = 2048

# Batch at least this many blocks before the vectorized unique/merge
# ingestion path pays for itself.
_VECTOR_INGEST_MIN = 1024


def _ranked(
    counts: dict[int, int], limit: int | None = None
) -> list[tuple[int, int]]:
    """Rank (block, count) pairs by decreasing count, ties by block.

    The result is exactly ``sorted(key=lambda item: (-count, block))``
    truncated to ``limit``.  A ``limit`` below the table size does not
    sort the whole table: the ``limit``-th largest count is a floor, and
    only the entries at or above it — every member of the top ``limit``,
    plus any ties at the boundary — are sorted.  Large tables go through
    numpy (``partition`` for the floor, ``lexsort`` for the order), and
    only the leading entries are materialized as Python pairs — on a
    multi-million-block device that is the difference between a
    ``num_blocks``-sized list and millions of tuples per nightly cycle.
    """
    if limit is not None and limit >= len(counts):
        limit = None
    if limit == 0:
        return []
    if len(counts) < _VECTOR_RANK_MIN:
        items = counts.items()
        if limit is not None:
            floor = nlargest(limit, counts.values())[-1]
            items = [item for item in items if item[1] >= floor]
        ranked = sorted(items, key=lambda item: (-item[1], item[0]))
        return ranked if limit is None else ranked[:limit]
    import numpy as np

    blocks = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    tallies = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    if limit is not None:
        floor = -np.partition(-tallies, limit - 1)[limit - 1]
        keep = tallies >= floor
        blocks = blocks[keep]
        tallies = tallies[keep]
    order = np.lexsort((blocks, -tallies))
    if limit is not None:
        order = order[:limit]
    return list(zip(blocks[order].tolist(), tallies[order].tolist()))


@dataclass
class ReferenceStreamAnalyzer:
    """Estimates block reference frequencies from the monitored stream."""

    capacity: int | None = None
    heuristic: str = "space-saving"
    counter: str = "exact"
    fading: float = DEFAULT_FADING
    replacements: int = 0
    observed: int = 0
    _counts: dict[int, int] = field(default_factory=dict)
    _sketch: SpaceSavingSketch | None = field(default=None, repr=False)
    _version: int = field(default=0, repr=False, compare=False)
    """Bumped on every count change; :meth:`hot_blocks` caches under it."""
    _rank_cache: tuple = field(default=(-1, 0, ()), repr=False, compare=False)
    """``(version, limit, ranking)`` of the last :meth:`hot_blocks` miss."""
    _touched: set[int] | None = field(default=None, repr=False, compare=False)
    """Blocks counted since the cached prefix ranking was built, or
    ``None`` when that ranking cannot be merged: it is a full ranking, or
    a reset, an eviction or the Space-Saving sketch may have lowered a
    count since."""

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        if self.heuristic not in REPLACEMENT_HEURISTICS:
            raise ValueError(
                f"unknown heuristic {self.heuristic!r}; "
                f"known: {', '.join(REPLACEMENT_HEURISTICS)}"
            )
        if self.counter not in COUNTER_STRATEGIES:
            raise ValueError(
                f"unknown counter strategy {self.counter!r}; "
                f"known: {', '.join(COUNTER_STRATEGIES)}"
            )
        if self.counter == "spacesaving":
            if self.capacity is None:
                raise ValueError(
                    "the spacesaving counter needs a capacity (sketch size)"
                )
            self._sketch = SpaceSavingSketch(
                capacity=self.capacity, fading=self.fading
            )

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe(self, block: int) -> None:
        """Count one reference to ``block``."""
        self.observed += 1
        self._version += 1
        sketch = self._sketch
        if sketch is not None:
            sketch.observe(block)
            self.replacements = sketch.replacements
            return
        touched = self._touched
        if touched is not None:
            touched.add(block)
        if block in self._counts:
            self._counts[block] += 1
            return
        if self.capacity is None or len(self._counts) < self.capacity:
            self._counts[block] = 1
            return
        self._replace(block)

    def _replace(self, block: int) -> None:
        victim = min(self._counts, key=self._counts.__getitem__)
        floor = self._counts.pop(victim)
        self.replacements += 1
        self._touched = None
        if self.heuristic == "space-saving":
            self._counts[block] = floor + 1
        else:  # evict-min
            self._counts[block] = 1

    def observe_blocks(self, blocks: list[int]) -> int:
        """Count one poll's request-table block numbers; returns how many."""
        if (
            self._sketch is None
            and self.capacity is None
            and len(blocks) >= _VECTOR_INGEST_MIN
        ):
            return self._observe_blocks_batch(blocks)
        for block in blocks:
            self.observe(block)
        return len(blocks)

    def _observe_blocks_batch(self, blocks: list[int]) -> int:
        """Vectorized ingestion for the unbounded exact counter.

        Tallies the batch with ``numpy.unique`` and merges the per-block
        sums into the count table.  Only the *unbounded* exact counter may
        take this path: the bounded one's eviction tiebreak depends on the
        table's insertion order, which a merged update would not preserve.
        (Count *values* — and therefore the canonically sorted
        :meth:`hot_blocks` ranking — are order-independent.)
        """
        import numpy as np

        unique, tallies = np.unique(
            np.asarray(blocks, dtype=np.int64), return_counts=True
        )
        counts = self._counts
        get = counts.get
        unique_blocks = unique.tolist()
        for block, tally in zip(unique_blocks, tallies.tolist()):
            counts[block] = get(block, 0) + tally
        if self._touched is not None:
            self._touched.update(unique_blocks)
        self.observed += len(blocks)
        self._version += 1
        return len(blocks)

    def poll(self, ioctl: IoctlInterface) -> int:
        """Read and clear the driver's request table (the 2-minute poll)."""
        return self.observe_blocks(ioctl.read_requests())

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def hot_blocks(self, n: int | None = None) -> list[tuple[int, int]]:
        """The hottest blocks as (logical block, estimated count), ordered
        by decreasing estimated frequency (ties by block number for
        determinism).

        The ranking is cached under a version counter that every count
        change bumps (:meth:`observe`, the batch ingest, :meth:`reset`):
        between two polls of the request table the counts stand still,
        so the online arranger's per-window calls cost one slice of the
        cached prefix instead of a ranking each.  A cached ranking of the
        top ``m`` also answers any ``n <= m``.  Each call returns a fresh
        list, so callers may mutate it freely.

        A poll that changed the counts does not force a whole-table
        ranking either.  Under the exact counter counts only rise between
        resets, so a block ranked below all of the cached top ``m`` that
        was not counted since cannot enter the new top ``m``: the miss
        re-ranks just the old top ``m`` and the blocks counted since.  A
        reset, an eviction by the bounded counter, or the Space-Saving
        sketch (whose counts can fall) takes the whole-table ranking.
        """
        if n is not None and n < 0:
            raise ValueError("n must be non-negative")
        version, limit, ranked = self._rank_cache
        if version == self._version and (
            limit is None or (n is not None and n <= limit)
        ):
            return ranked[:n]
        touched = self._touched
        if touched is not None and n is not None and n <= limit:
            counts = self._counts
            candidates = touched.union([block for block, __ in ranked])
            ranked = _ranked({block: counts[block] for block in candidates}, limit)
        else:
            sketch = self._sketch
            counts = self._counts if sketch is None else sketch._counts
            ranked = _ranked(counts, n)
            limit = n
        self._rank_cache = (self._version, limit, ranked)
        # Start recording the blocks the next merge must look at.
        self._touched = (
            set() if limit is not None and self._sketch is None else None
        )
        return ranked[:n]

    def count_of(self, block: int) -> int:
        if self._sketch is not None:
            return self._sketch.count_of(block)
        return self._counts.get(block, 0)

    def distinct_blocks(self) -> int:
        if self._sketch is not None:
            return len(self._sketch)
        return len(self._counts)

    def reset(self) -> None:
        """Forget the day's state (called at the start of a new day).

        The exact counter clears completely; the ``spacesaving`` sketch
        ages its counters by the fading factor instead, so yesterday's
        hot spots decay smoothly rather than vanishing.
        """
        sketch = self._sketch
        if sketch is not None:
            sketch.reset()
        self._counts.clear()
        self._touched = None
        self.replacements = 0
        self.observed = 0
        self._version += 1
