"""A DFTL-style page-mapped flash translation layer (ROADMAP item 3).

On flash the device itself remaps blocks: writes are out-of-place, a
translation layer tracks where each logical page currently lives, and a
garbage collector compacts partially-invalid erase blocks.  Seek distance
is meaningless here — the cost model the 1993 paper optimises disappears
— but the analyzer's frequency data gets a second life driving *hot/cold
data separation*: writes classified hot go to their own write frontier,
so erase blocks fill with pages of similar lifetime and the collector
finds victims that are mostly invalid (fewer live pages to migrate, lower
write amplification).

:class:`FtlDriver` implements the same externally-clocked
:class:`~repro.driver.protocol.DeviceDriver` contract as the disk driver,
so the engine, workloads, tracing and fault scheduling all apply
unchanged.  The mapping design follows DFTL (Gupta, Kim & Urgaonkar,
ASPLOS 2009):

* a **cached mapping table** (CMT) holds a bounded set of logical-page →
  physical-page entries with LRU replacement; a miss costs a real flash
  read of the translation page holding the entry;
* **translation pages** — each packing
  :attr:`FlashGeometry.entries_per_tpage` consecutive mappings — live on
  flash like data and are themselves written out of place;
* a **global translation directory** (GTD, in RAM) locates the current
  copy of every translation page;
* evicting a *dirty* CMT entry batch-writes every dirty entry bound for
  the same translation page (one read-modify-write instead of many).

Writes are log-structured across per-purpose frontiers (``cold``,
``hot``, ``trans``, ``gc``); superseded pages are marked invalid in a RAM
bitmap.  When the free-block pool drains to ``gc_low_blocks``, garbage
collection selects victims — ``greedy`` (fewest valid pages) or
``cost-benefit`` (Rosenblum & Ousterhout's ``(1-u)/2u · age``) —
migrates the survivors, patches their mappings, and erases, charging all
of it to the host request that tripped the threshold (the synchronous-GC
worst case) and bumping per-block wear counters.

Power-cut semantics mirror real hardware: the per-page out-of-band
metadata (owning logical page + program sequence number) and page
contents survive a crash; the CMT, validity bitmap and frontiers do not.
Recovery scans the OOB area, keeps the highest sequence number per
logical page, rewrites translation pages that disagree with the scan, and
resumes with an empty cache.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..core.counters import SpaceSavingSketch
from ..obs.tracer import NULL_TRACER, Tracer
from .errors import BadAddressError, DriverError
from .request import DiskRequest

__all__ = [
    "FlashGeometry",
    "FtlDriver",
    "FtlStats",
    "GC_POLICIES",
    "SSD_4CH",
]

GC_POLICIES = ("greedy", "cost-benefit")
"""Victim-selection policies accepted by the collector, config, and CLI."""

# RAM page states (rebuilt from the OOB scan after a crash).
_FREE, _VALID, _INVALID = 0, 1, 2

# OOB owner encoding: >= 0 is a data page's logical page number, -1 is
# erased, and a translation page for virtual translation page ``tvpn``
# stores ``-(tvpn + 2)`` so the two namespaces cannot collide.
_ERASED = -1


def _trans_owner(tvpn: int) -> int:
    return -(tvpn + 2)


@dataclass(frozen=True)
class FlashGeometry:
    """Physical shape and raw timing of one flash device.

    Latencies are per *operation* in microseconds — flash has no
    mechanical state, so service time is just the sum of the page
    operations an access triggers (mapping misses and garbage collection
    included, which is what makes them expensive).
    """

    channels: int
    blocks_per_channel: int
    pages_per_block: int
    page_bytes: int = 4096
    page_read_us: float = 25.0
    page_write_us: float = 200.0
    erase_us: float = 1500.0

    def __post_init__(self) -> None:
        for name in ("channels", "blocks_per_channel", "pages_per_block"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.page_bytes < 16 or self.page_bytes % 8:
            raise ValueError("page_bytes must be a multiple of 8, >= 16")

    @property
    def total_blocks(self) -> int:
        return self.channels * self.blocks_per_channel

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @property
    def entries_per_tpage(self) -> int:
        """Mapping entries per translation page (8 bytes per entry)."""
        return self.page_bytes // 8


SSD_4CH = FlashGeometry(
    channels=4,
    blocks_per_channel=69,
    pages_per_block=64,
    page_bytes=4096,
)
"""The ``ssd`` preset: 4 channels x 69 blocks x 64 x 4KB pages (17,664
pages raw).  Sized so the Toshiba reference disk's virtual span (16,107
single-block pages, plus its 32 translation pages) fits with roughly 9%
spare area — a typical consumer over-provisioning ratio, tight enough
that a preconditioned drive garbage-collects daily."""


@dataclass
class FtlStats:
    """Cumulative FTL activity counters (reset by :meth:`clear`)."""

    host_page_reads: int = 0
    host_page_writes: int = 0
    flash_page_reads: int = 0
    flash_page_writes: int = 0
    translation_reads: int = 0
    translation_writes: int = 0
    cmt_hits: int = 0
    cmt_misses: int = 0
    gc_runs: int = 0
    gc_page_moves: int = 0
    crashes: int = 0
    recoveries: int = 0
    recovery_rewrites: int = 0

    @property
    def write_amplification(self) -> float:
        """Total flash page writes per host page write (1.0 = none)."""
        if self.host_page_writes == 0:
            return 0.0
        return self.flash_page_writes / self.host_page_writes

    @property
    def cmt_hit_ratio(self) -> float:
        lookups = self.cmt_hits + self.cmt_misses
        return self.cmt_hits / lookups if lookups else 0.0

    def payload(self) -> dict:
        """Canonical JSON-ready form for digests and reports."""
        return {
            "host_page_reads": self.host_page_reads,
            "host_page_writes": self.host_page_writes,
            "flash_page_reads": self.flash_page_reads,
            "flash_page_writes": self.flash_page_writes,
            "translation_reads": self.translation_reads,
            "translation_writes": self.translation_writes,
            "cmt_hits": self.cmt_hits,
            "cmt_misses": self.cmt_misses,
            "gc_runs": self.gc_runs,
            "gc_page_moves": self.gc_page_moves,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "recovery_rewrites": self.recovery_rewrites,
            "write_amplification": round(self.write_amplification, 6),
            "cmt_hit_ratio": round(self.cmt_hit_ratio, 6),
        }


@dataclass
class FtlDriver:
    """Page-mapped SSD behind the :class:`DeviceDriver` contract.

    Requests are served FIFO (flash has no arm to schedule around); each
    service charges the page operations the access *actually* triggers —
    mapping-cache misses, dirty-entry writebacks, and any synchronous
    garbage collection the write tripped — so queueing and response
    times reflect FTL internals the way seek times reflect arm movement
    on the disk backend.
    """

    geometry: FlashGeometry
    logical_pages: int
    cmt_capacity: int = 8192
    gc_policy: str = "greedy"
    gc_low_blocks: int = 8
    gc_high_blocks: int = 16
    separation: bool = False
    """Route writes classified hot to their own frontier.  Off: every
    host write shares the ``cold`` frontier (the no-rearrangement
    baseline)."""
    hot_threshold: int = 2
    """A write is hot when its sketch count reaches this threshold."""
    sketch: SpaceSavingSketch | None = None
    """Frequency classifier for separation; defaults to a 1024-counter
    Space-Saving sketch when ``separation`` is on."""
    name: str = "ssd0"
    tracer: Tracer = NULL_TRACER
    _current: DiskRequest | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        g = self.geometry
        if self.logical_pages < 1:
            raise DriverError("logical_pages must be >= 1")
        if self.gc_policy not in GC_POLICIES:
            raise DriverError(
                f"unknown gc policy {self.gc_policy!r}; "
                f"known: {', '.join(GC_POLICIES)}"
            )
        if not 0 < self.gc_low_blocks < self.gc_high_blocks:
            raise DriverError("need 0 < gc_low_blocks < gc_high_blocks")
        if self.cmt_capacity < 1:
            raise DriverError("cmt_capacity must be >= 1")
        self._entries = g.entries_per_tpage
        self._tvpns = -(-self.logical_pages // self._entries)
        spare = g.total_pages - self.logical_pages - self._tvpns
        if spare < (self.gc_high_blocks + 2) * g.pages_per_block:
            raise DriverError(
                f"flash too small: {self.logical_pages} logical + "
                f"{self._tvpns} translation pages leave {spare} spare "
                f"pages of {g.total_pages}"
            )
        if self.separation and self.sketch is None:
            self.sketch = SpaceSavingSketch(capacity=1024)
        self.stats = FtlStats()
        self._ppb = g.pages_per_block
        total, blocks = g.total_pages, g.total_blocks
        # Persistent (survives power cuts): OOB owner + program sequence,
        # page contents (tags), translation-page contents, wear counters.
        self._page_owner = [_ERASED] * total
        self._page_seq = [0] * total
        self._page_tag: dict[int, object] = {}
        self._tpages: dict[int, dict[int, int]] = {}
        self.erase_count = [0] * blocks
        # Volatile (lost at power cut): validity map, per-block valid
        # counts and modification times, frontiers, free pool, CMT, GTD.
        self._state = bytearray(total)
        self._valid_count = [0] * blocks
        self._block_mtime = [0] * blocks
        self._seq = 0
        self._free: deque[int] = deque(range(blocks))
        self._in_free = set(range(blocks))
        self._frontier_block: dict[str, int | None] = {
            "cold": None, "hot": None, "trans": None, "gc": None,
        }
        self._frontier_next: dict[str, int] = {
            "cold": 0, "hot": 0, "trans": 0, "gc": 0,
        }
        self._cmt: dict[int, int] = {}
        self._dirty_by_tvpn: dict[int, set[int]] = {}
        self._gtd = [-1] * self._tvpns
        self._queue: deque[DiskRequest] = deque()
        self._now_ms = 0.0
        self._preconditioning = False

    # ------------------------------------------------------------------
    # DeviceDriver contract
    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def queued(self) -> int:
        return len(self._queue)

    def attach(self) -> None:
        """Start-up hook; the FTL has no reserved-area table to re-read."""

    def strategy(self, request: DiskRequest, now_ms: float) -> float | None:
        if now_ms < request.arrival_ms:
            raise DriverError("strategy called before the request's arrival")
        if request.size_blocks != 1:
            raise BadAddressError(
                f"strategy on {self.name} takes single-block requests, got "
                f"{request.size_blocks} blocks at logical block "
                f"{request.logical_block}"
            )
        if not 0 <= request.logical_block < self.logical_pages:
            raise BadAddressError(
                f"logical block {request.logical_block} outside "
                f"{self.name}'s {self.logical_pages} logical pages"
            )
        return self._enqueue(request, now_ms)

    def complete(self, now_ms: float) -> tuple[DiskRequest, float | None]:
        if self._current is None:
            raise DriverError("complete called with no operation in flight")
        request = self._current
        self._current = None
        request.complete_ms = now_ms
        if not request.migration and self.tracer is not NULL_TRACER:
            self.tracer.service_complete(self.name, request, now_ms)
        next_completion = None
        if self._queue:
            next_completion = self._start_next(now_ms)
        return request, next_completion

    def _enqueue(
        self, request: DiskRequest, now_ms: float, record: bool = True
    ) -> float | None:
        self._queue.append(request)
        if record and self.tracer is not NULL_TRACER:
            self.tracer.request_enqueued(
                self.name, request, now_ms, len(self._queue)
            )
        if not self.busy:
            return self._start_next(now_ms)
        return None

    def _start_next(self, now_ms: float) -> float:
        request = self._queue.popleft()
        self._now_ms = now_ms
        request.submit_ms = now_ms
        cost_us = self._collect_if_low()
        lpn = request.logical_block
        if request.is_read:
            ppn, cost = self._resolve(lpn, insert=True)
            cost_us += cost
            self.stats.host_page_reads += 1
            if ppn >= 0:
                cost_us += self.geometry.page_read_us
                self.stats.flash_page_reads += 1
            request.physical_block = ppn if ppn >= 0 else None
            request.target_block = request.physical_block
        else:
            cost_us += self._write_logical(lpn, request.tag)
            ppn = self._cmt[lpn]
            request.physical_block = ppn
            request.target_block = ppn
        request.transfer_ms = cost_us / 1000.0
        self._current = request
        return now_ms + cost_us / 1000.0

    # ------------------------------------------------------------------
    # Mapping layer (DFTL: CMT + translation pages + GTD)
    # ------------------------------------------------------------------

    def _resolve(self, lpn: int, insert: bool) -> tuple[int, float]:
        """Find ``lpn``'s current physical page; charge any flash reads.

        Returns ``(ppn, cost_us)`` with ``ppn = -1`` for a never-written
        page.  ``insert`` caches the entry (clean) on a miss; reads want
        that, writes install the *new* mapping themselves.
        """
        cmt = self._cmt
        ppn = cmt.get(lpn)
        if ppn is not None:
            self.stats.cmt_hits += 1
            cmt[lpn] = cmt.pop(lpn)  # LRU touch
            return ppn, 0.0
        self.stats.cmt_misses += 1
        cost = 0.0
        tvpn = lpn // self._entries
        tppn = self._gtd[tvpn]
        if tppn >= 0:
            cost += self.geometry.page_read_us
            self.stats.flash_page_reads += 1
            self.stats.translation_reads += 1
            ppn = self._tpages[tppn].get(lpn, -1)
        else:
            ppn = -1
        if insert and ppn >= 0:
            cmt[lpn] = ppn
            cost += self._evict_if_full()
        return ppn, cost

    def _install(self, lpn: int, ppn: int) -> float:
        """Install a fresh (dirty) mapping for ``lpn``."""
        self._cmt.pop(lpn, None)
        self._cmt[lpn] = ppn
        self._dirty_by_tvpn.setdefault(lpn // self._entries, set()).add(lpn)
        return self._evict_if_full()

    def _evict_if_full(self) -> float:
        cost = 0.0
        while len(self._cmt) > self.cmt_capacity:
            victim = next(iter(self._cmt))
            ppn = self._cmt.pop(victim)
            tvpn = victim // self._entries
            dirty = self._dirty_by_tvpn.get(tvpn)
            if dirty is not None and victim in dirty:
                cost += self._writeback(tvpn, extra={victim: ppn})
        return cost

    def _writeback(
        self, tvpn: int, extra: dict[int, int] | None = None
    ) -> float:
        """Flush every dirty entry of one translation page (batched RMW)."""
        updates = dict(extra) if extra else {}
        dirty = self._dirty_by_tvpn.pop(tvpn, None)
        if dirty:
            cmt = self._cmt
            for lpn in dirty:
                if lpn in cmt:
                    updates[lpn] = cmt[lpn]
        if not updates:
            return 0.0
        cost = 0.0
        old = self._gtd[tvpn]
        if old >= 0:
            cost += self.geometry.page_read_us
            self.stats.flash_page_reads += 1
            self.stats.translation_reads += 1
            content = dict(self._tpages[old])
            self._invalidate(old)
        else:
            content = {}
        content.update(updates)
        new = self._program("trans", _trans_owner(tvpn))
        self._tpages[new] = content
        self._gtd[tvpn] = new
        cost += self.geometry.page_write_us
        self.stats.translation_writes += 1
        if self.tracer is not NULL_TRACER and not self._preconditioning:
            self.tracer.mapping_writeback(
                self.name, self._now_ms, tvpn, len(updates)
            )
        return cost

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _write_logical(self, lpn: int, tag: object | None) -> float:
        old, cost = self._resolve(lpn, insert=False)
        role = "cold"
        if self.sketch is not None and not self._preconditioning:
            self.sketch.observe(lpn)
            if (
                self.separation
                and self.sketch.count_of(lpn) >= self.hot_threshold
            ):
                role = "hot"
        new = self._program(role, lpn, tag)
        cost += self.geometry.page_write_us
        self.stats.host_page_writes += 1
        if old >= 0:
            self._invalidate(old)
        cost += self._install(lpn, new)
        return cost

    def _program(self, role: str, owner: int, tag: object | None = None) -> int:
        """Program the next page of ``role``'s frontier; return its ppn."""
        block = self._frontier_block[role]
        if block is None:
            if not self._free:
                raise DriverError(
                    f"{self.name} has no free flash blocks (GC starved)"
                )
            block = self._free.popleft()
            self._in_free.discard(block)
            self._frontier_block[role] = block
            self._frontier_next[role] = 0
        ppn = block * self._ppb + self._frontier_next[role]
        self._frontier_next[role] += 1
        if self._frontier_next[role] == self._ppb:
            self._frontier_block[role] = None  # sealed: now a GC candidate
        self._seq += 1
        self._page_owner[ppn] = owner
        self._page_seq[ppn] = self._seq
        self._state[ppn] = _VALID
        self._valid_count[block] += 1
        self._block_mtime[block] = self._seq
        if tag is not None:
            self._page_tag[ppn] = tag
        self.stats.flash_page_writes += 1
        return ppn

    def _invalidate(self, ppn: int) -> None:
        self._state[ppn] = _INVALID
        block = ppn // self._ppb
        self._valid_count[block] -= 1
        self._block_mtime[block] = self._seq

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def _collect_if_low(self) -> float:
        """Run GC if the free pool hit the low watermark; charge the cost."""
        if len(self._free) > self.gc_low_blocks:
            return 0.0
        cost = 0.0
        while len(self._free) < self.gc_high_blocks:
            victim = self._select_victim()
            if victim is None:
                break
            cost += self._collect(victim)
        return cost

    def _candidates(self):
        frontiers = set(
            b for b in self._frontier_block.values() if b is not None
        )
        for block in range(self.geometry.total_blocks):
            if block in self._in_free or block in frontiers:
                continue
            if self._valid_count[block] >= self._ppb:
                continue  # nothing to reclaim
            yield block

    def _select_victim(self) -> int | None:
        if self.gc_policy == "greedy":
            best = min(
                self._candidates(),
                key=lambda b: (self._valid_count[b], b),
                default=None,
            )
            return best
        # cost-benefit: maximize (1-u)/(2u) * age, deterministic tie-break
        # on the lower block id; a fully-invalid block is a free win.
        best, best_key = None, None
        for block in self._candidates():
            valid = self._valid_count[block]
            age = self._seq - self._block_mtime[block]
            if valid == 0:
                score = float("inf")
            else:
                u = valid / self._ppb
                score = (1.0 - u) / (2.0 * u) * age
            key = (score, -block)
            if best_key is None or key > best_key:
                best, best_key = block, key
        return best

    def _collect(self, victim: int) -> float:
        g = self.geometry
        cost = 0.0
        base = victim * self._ppb
        data_moves: list[tuple[int, int]] = []
        trans_moves: list[tuple[int, int]] = []
        for ppn in range(base, base + self._ppb):
            if self._state[ppn] != _VALID:
                continue
            owner = self._page_owner[ppn]
            if owner >= 0:
                data_moves.append((owner, ppn))
            else:
                trans_moves.append((-owner - 2, ppn))
        # Relocate surviving translation pages first so any mapping
        # rewrites below see the directory pointing outside the victim.
        for tvpn, old in trans_moves:
            cost += g.page_read_us + g.page_write_us
            self.stats.flash_page_reads += 1
            content = self._tpages[old]
            self._invalidate(old)
            new = self._program("trans", _trans_owner(tvpn))
            self._tpages[new] = content
            self._gtd[tvpn] = new
            self.stats.gc_page_moves += 1
        # Relocate surviving data pages; patch cached mappings in place
        # (dirty, no flash cost now) and batch the uncached ones per
        # translation page.
        pending: dict[int, dict[int, int]] = {}
        for lpn, old in data_moves:
            cost += g.page_read_us + g.page_write_us
            self.stats.flash_page_reads += 1
            new = self._program("gc", lpn, self._page_tag.get(old))
            self._invalidate(old)
            self.stats.gc_page_moves += 1
            if lpn in self._cmt:
                self._cmt[lpn] = new  # no LRU touch: GC is not a reference
                self._dirty_by_tvpn.setdefault(
                    lpn // self._entries, set()
                ).add(lpn)
            else:
                pending.setdefault(lpn // self._entries, {})[lpn] = new
        for tvpn in sorted(pending):
            updates = pending[tvpn]
            old_t = self._gtd[tvpn]
            if old_t >= 0:
                cost += g.page_read_us
                self.stats.flash_page_reads += 1
                self.stats.translation_reads += 1
                content = dict(self._tpages[old_t])
                self._invalidate(old_t)
            else:
                content = {}
            content.update(updates)
            new_t = self._program("trans", _trans_owner(tvpn))
            self._tpages[new_t] = content
            self._gtd[tvpn] = new_t
            cost += g.page_write_us
            self.stats.translation_writes += 1
        cost += g.erase_us
        self._erase(victim)
        self.stats.gc_runs += 1
        if self.tracer is not NULL_TRACER and not self._preconditioning:
            self.tracer.gc_run(
                self.name,
                self._now_ms,
                victim,
                self.gc_policy,
                len(data_moves) + len(trans_moves),
                self.erase_count[victim],
            )
        return cost

    def _erase(self, block: int) -> None:
        base = block * self._ppb
        for ppn in range(base, base + self._ppb):
            self._page_owner[ppn] = _ERASED
            self._page_seq[ppn] = 0
            self._state[ppn] = _FREE
            self._page_tag.pop(ppn, None)
            self._tpages.pop(ppn, None)
        self._valid_count[block] = 0
        self.erase_count[block] += 1
        self._free.append(block)
        self._in_free.add(block)

    # ------------------------------------------------------------------
    # Wear reporting
    # ------------------------------------------------------------------

    @property
    def max_erase_count(self) -> int:
        return max(self.erase_count)

    @property
    def mean_erase_count(self) -> float:
        return sum(self.erase_count) / len(self.erase_count)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    # ------------------------------------------------------------------
    # Crash protocol (power cut)
    # ------------------------------------------------------------------

    def crash(self, now_ms: float) -> list[DiskRequest]:
        """Power cut: RAM state vanishes; OOB metadata and data survive.

        Returns the requests that were queued or in flight so the caller
        can model client retries, exactly like the disk driver.
        """
        lost: list[DiskRequest] = []
        if self._current is not None:
            lost.append(self._current)
            self._current = None
        while self._queue:
            lost.append(self._queue.popleft())
        self._cmt.clear()
        self._dirty_by_tvpn.clear()
        for role in self._frontier_block:
            self._frontier_block[role] = None
        self.stats.crashes += 1
        return lost

    def recover(self, now_ms: float) -> float:
        """Rebuild volatile state from the out-of-band scan.

        Every programmed page is read (charged); the highest program
        sequence number wins per logical page and per translation page.
        Translation pages whose stored mapping disagrees with the scan —
        entries were cached dirty when the power failed — are rewritten
        from the scan, which is authoritative.  Returns the time
        recovery finished.
        """
        g = self.geometry
        total = g.total_pages
        latest_data: dict[int, tuple[int, int]] = {}
        latest_trans: dict[int, tuple[int, int]] = {}
        programmed: list[int] = []
        for ppn in range(total):
            owner = self._page_owner[ppn]
            if owner == _ERASED:
                continue
            programmed.append(ppn)
            seq = self._page_seq[ppn]
            if owner >= 0:
                cur = latest_data.get(owner)
                if cur is None or seq > cur[0]:
                    latest_data[owner] = (seq, ppn)
            else:
                tvpn = -owner - 2
                cur = latest_trans.get(tvpn)
                if cur is None or seq > cur[0]:
                    latest_trans[tvpn] = (seq, ppn)
        if self.tracer is not NULL_TRACER:
            self.tracer.recovery_begin(self.name, now_ms, len(programmed))
        # Rebuild validity: winners valid, every other programmed page
        # invalid.
        self._state = bytearray(total)
        for block in range(g.total_blocks):
            self._valid_count[block] = 0
        for ppn in programmed:
            self._state[ppn] = _INVALID
        winners = [ppn for _, ppn in latest_data.values()]
        winners.extend(ppn for _, ppn in latest_trans.values())
        for ppn in winners:
            self._state[ppn] = _VALID
            self._valid_count[ppn // self._ppb] += 1
        # Free pool: blocks with no programmed page at all, ascending.
        self._free.clear()
        self._in_free.clear()
        for block in range(g.total_blocks):
            base = block * self._ppb
            if all(
                self._page_owner[p] == _ERASED
                for p in range(base, base + self._ppb)
            ):
                self._free.append(block)
                self._in_free.add(block)
        cost_us = len(programmed) * g.page_read_us
        # Reconcile translation pages against the (authoritative) scan.
        desired_by_tvpn: dict[int, dict[int, int]] = {}
        for lpn, (_, ppn) in latest_data.items():
            desired_by_tvpn.setdefault(lpn // self._entries, {})[lpn] = ppn
        rewrites = 0
        for tvpn in range(self._tvpns):
            desired = desired_by_tvpn.get(tvpn, {})
            stored = latest_trans.get(tvpn)
            stored_map = self._tpages.get(stored[1]) if stored else None
            if stored_map == desired:
                self._gtd[tvpn] = stored[1]  # type: ignore[index]
                continue
            if not desired:
                self._gtd[tvpn] = -1
                if stored is not None:
                    self._invalidate(stored[1])
                continue
            if stored is not None:
                self._invalidate(stored[1])
            new = self._program("trans", _trans_owner(tvpn))
            self._tpages[new] = desired
            self._gtd[tvpn] = new
            cost_us += g.page_write_us
            self.stats.translation_writes += 1
            rewrites += 1
        self.stats.recoveries += 1
        self.stats.recovery_rewrites += rewrites
        clock = now_ms + cost_us / 1000.0
        if self.tracer is not NULL_TRACER:
            self.tracer.recovery_end(self.name, clock, rewrites)
        return clock

    def resubmit(self, request: DiskRequest, now_ms: float) -> float | None:
        """Re-queue a request lost in a crash (client retry, not a new
        arrival — no tracer enqueue event)."""
        return self._enqueue(request, now_ms, record=False)

    # ------------------------------------------------------------------
    # Test hook + preconditioning
    # ------------------------------------------------------------------

    def read_data(self, logical_block: int) -> object:
        """Current contents of a logical page (test hook; charge-free)."""
        ppn = self._cmt.get(logical_block)
        if ppn is None:
            tppn = self._gtd[logical_block // self._entries]
            if tppn < 0:
                return None
            ppn = self._tpages[tppn].get(logical_block, -1)
        if ppn < 0:
            return None
        return self._page_tag.get(ppn)

    def precondition(
        self,
        seed: int,
        target_free_blocks: int | None = None,
        cycles: int = 2,
    ) -> None:
        """Age the drive so the measured day sees steady-state GC.

        Sequentially fills every logical page (data, then one write per
        translation page), then runs ``cycles`` rounds of uniformly
        random overwrites — drawn from a generator seeded with ``seed``,
        so runs are reproducible — each round draining the free pool to
        the GC trigger and collecting back to the high watermark.  The
        cycling matters: a freshly-filled drive is full of free-win
        victims (fully invalid blocks) that would make the first measured
        day's garbage collection artificially cheap; after a couple of
        write/collect rounds the validity distribution is the steady
        state that write amplification and hot/cold separation are about.
        Ends with the free pool at ``target_free_blocks`` (default: two
        blocks above the trigger) and all counters cleared, so reported
        stats cover the measured window only.
        """
        import numpy as np

        if self.stats.host_page_writes or self._seq:
            raise DriverError("precondition() requires a fresh device")
        if target_free_blocks is None:
            target_free_blocks = self.gc_low_blocks + 2
        if target_free_blocks <= self.gc_low_blocks:
            raise DriverError(
                "precondition target must stay above the GC trigger"
            )
        self._preconditioning = True
        try:
            entries = self._entries
            content: dict[int, int] = {}
            tvpn = 0
            for lpn in range(self.logical_pages):
                content[lpn] = self._program("cold", lpn)
                if len(content) == entries or lpn == self.logical_pages - 1:
                    tppn = self._program("trans", _trans_owner(tvpn))
                    self._tpages[tppn] = content
                    self._gtd[tvpn] = tppn
                    content = {}
                    tvpn += 1
            rng = np.random.default_rng(seed)

            def churn(down_to: int) -> None:
                while len(self._free) > down_to:
                    for lpn in rng.integers(0, self.logical_pages, size=256):
                        self._write_logical(int(lpn), None)
                        if len(self._free) <= down_to:
                            break

            for _ in range(cycles):
                churn(self.gc_low_blocks)
                while len(self._free) < self.gc_high_blocks:
                    victim = self._select_victim()
                    if victim is None:
                        break
                    self._collect(victim)
            # Consume the free wins the churn left behind (mostly
            # fully-cycled translation blocks): the measured window
            # should pay for its collections, not inherit free ones.
            for block in list(self._candidates()):
                if self._valid_count[block] == 0:
                    self._collect(block)
            churn(target_free_blocks)
        finally:
            self._preconditioning = False
        self.stats = FtlStats()
