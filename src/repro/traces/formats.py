"""Streaming parsers for external block-trace formats.

The paper's measurements come from live request streams; ours come from
generated workloads — or, through this module, from *real* block traces.
Two public formats are supported:

``blkparse``
    The text output of Linux ``blktrace``'s ``blkparse`` tool, one event
    per line::

        8,0    1      42     0.000104572  1203  Q   R 5439488 + 8 [cc1]

    Only queue-insertion events (action ``Q`` by default) carry the
    arrival stream the simulator wants; completion and driver-internal
    events are skipped.  Sector addresses and sector counts are converted
    to file-system blocks (4 KB by default).

``msr``
    MSR-Cambridge-style CSV, one request per line::

        128166372003061629,src1,0,Read,8192,4096,1331

    Columns: Windows-filetime timestamp (100 ns ticks), hostname, disk
    number, ``Read``/``Write``, byte offset, byte length, response time.
    A header line is tolerated.

Both parsers are **streaming**: they accept any iterable of lines (an
open file, a generator, ...) and yield :class:`BlockIO` records one at a
time without ever materializing the input.  Malformed input raises
:class:`TraceParseError` naming the source, the 1-based line number and
the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..disk.geometry import SECTOR_BYTES  # also blktrace's (kernel ABI)
from ..driver.request import Op

BLOCK_BYTES = 4096
"""Default file-system block size foreign addresses are converted to."""

FILETIME_TICKS_PER_MS = 10_000
"""Windows filetime ticks (100 ns) per millisecond (MSR timestamps)."""


class TraceParseError(ValueError):
    """A trace line could not be parsed.

    Carries enough context to find the bad input: ``source`` (file name
    or stream label), ``line_no`` (1-based) and ``field`` (which part of
    the record was wrong).
    """

    def __init__(
        self, source: str, line_no: int, field: str, message: str
    ) -> None:
        self.source = source
        self.line_no = line_no
        self.field = field
        super().__init__(
            f"{source}, line {line_no}: bad {field}: {message}"
        )


@dataclass(frozen=True, slots=True)
class BlockIO:
    """One normalized trace record: a block-aligned request arrival."""

    time_ms: float
    """Arrival time in the trace's own clock (not yet rebased)."""
    block: int
    """First file-system block touched, in the source address space."""
    num_blocks: int
    """Blocks touched (>= 1; sub-block requests round up to one)."""
    op: Op
    line_no: int = 0
    """Line of the source file this record came from (for diagnostics)."""

    @property
    def end_block(self) -> int:
        return self.block + self.num_blocks


# ----------------------------------------------------------------------
# blkparse text output
# ----------------------------------------------------------------------


def parse_blkparse(
    lines: Iterable[str],
    source: str = "<blkparse>",
    *,
    action: str = "Q",
    block_bytes: int = BLOCK_BYTES,
) -> Iterator[BlockIO]:
    """Yield :class:`BlockIO` records from ``blkparse`` text output.

    Lines whose action is not ``action`` (default ``Q``, the arrival
    stream), whose RWBS field carries no data direction (pure flushes,
    barriers), or that are not event lines at all (summary sections,
    blank lines) are skipped.  Event lines with the right action but a
    broken sector/size field raise :class:`TraceParseError`.
    """
    if block_bytes % SECTOR_BYTES != 0:
        raise ValueError("block_bytes must be a multiple of 512")
    sectors_per_block = block_bytes // SECTOR_BYTES
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        # Event lines start with a "major,minor" device field; anything
        # else (blkparse's trailing summary, CPU headers, blanks) is not
        # an event and is skipped wholesale.
        if len(fields) < 7 or "," not in fields[0]:
            continue
        if fields[5] != action:
            continue
        rwbs = fields[6]
        is_read = "R" in rwbs
        is_write = "W" in rwbs
        if is_read == is_write:  # flush/barrier-only (or malformed RWBS)
            continue
        try:
            time_ms = float(fields[3]) * 1000.0
        except ValueError:
            raise TraceParseError(
                source, line_no, "timestamp", repr(fields[3])
            ) from None
        if not math.isfinite(time_ms) or time_ms < 0:
            raise TraceParseError(
                source, line_no, "timestamp", f"{fields[3]!r} (negative or non-finite)"
            )
        if len(fields) < 10 or fields[8] != "+":
            raise TraceParseError(
                source, line_no, "sector extent",
                "expected '<sector> + <count>' after the RWBS field",
            )
        try:
            sector = int(fields[7])
        except ValueError:
            raise TraceParseError(
                source, line_no, "sector", repr(fields[7])
            ) from None
        try:
            num_sectors = int(fields[9])
        except ValueError:
            raise TraceParseError(
                source, line_no, "sector count", repr(fields[9])
            ) from None
        if sector < 0 or num_sectors < 0:
            raise TraceParseError(
                source, line_no, "sector extent",
                f"negative extent {sector} + {num_sectors}",
            )
        if num_sectors == 0:  # zero-length (flush with data flags)
            continue
        first = sector // sectors_per_block
        last = (sector + num_sectors - 1) // sectors_per_block
        yield BlockIO(
            time_ms=time_ms,
            block=first,
            num_blocks=last - first + 1,
            op=Op.READ if is_read else Op.WRITE,
            line_no=line_no,
        )


# ----------------------------------------------------------------------
# MSR-Cambridge-style CSV
# ----------------------------------------------------------------------


def parse_msr(
    lines: Iterable[str],
    source: str = "<msr>",
    *,
    block_bytes: int = BLOCK_BYTES,
) -> Iterator[BlockIO]:
    """Yield :class:`BlockIO` records from MSR-Cambridge-style CSV.

    Expected columns: ``Timestamp,Hostname,DiskNumber,Type,Offset,Size``
    (a trailing response-time column — and anything after it — is
    ignored).  A header line is tolerated; blank lines are skipped.
    """
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) < 6:
            raise TraceParseError(
                source, line_no, "record",
                f"expected >= 6 comma-separated fields, got {len(fields)}",
            )
        if line_no == 1 and not fields[0].strip().isdigit():
            continue  # header row
        try:
            ticks = int(fields[0])
        except ValueError:
            raise TraceParseError(
                source, line_no, "timestamp", repr(fields[0])
            ) from None
        kind = fields[3].strip().lower()
        if kind == "read":
            op = Op.READ
        elif kind == "write":
            op = Op.WRITE
        else:
            raise TraceParseError(
                source, line_no, "type",
                f"{fields[3]!r} (expected 'Read' or 'Write')",
            )
        try:
            offset = int(fields[4])
        except ValueError:
            raise TraceParseError(
                source, line_no, "offset", repr(fields[4])
            ) from None
        try:
            size = int(fields[5])
        except ValueError:
            raise TraceParseError(
                source, line_no, "size", repr(fields[5])
            ) from None
        if offset < 0 or size < 0:
            raise TraceParseError(
                source, line_no, "extent",
                f"negative extent {offset} + {size}",
            )
        if size == 0:
            continue
        first = offset // block_bytes
        last = (offset + size - 1) // block_bytes
        yield BlockIO(
            time_ms=ticks / FILETIME_TICKS_PER_MS,
            block=first,
            num_blocks=last - first + 1,
            op=op,
            line_no=line_no,
        )


# ----------------------------------------------------------------------
# Format registry and sniffing
# ----------------------------------------------------------------------

PARSERS = {
    "blkparse": parse_blkparse,
    "msr": parse_msr,
}

FORMATS = ("auto", *PARSERS)


def sniff_format(sample_line: str) -> str:
    """Guess the trace format from one (non-blank) line.

    blkparse event lines open with a ``major,minor`` device field and are
    whitespace-separated; MSR records are comma-separated with a numeric
    first column.  Raises :class:`ValueError` when neither shape matches.
    """
    stripped = sample_line.strip()
    fields = stripped.split()
    if len(fields) >= 7 and "," in fields[0]:
        return "blkparse"
    columns = stripped.split(",")
    if len(columns) >= 6:
        return "msr"
    raise ValueError(
        f"cannot determine trace format from line {stripped[:60]!r}; "
        f"pass an explicit format ({', '.join(PARSERS)})"
    )


def iter_trace(
    path: str | Path,
    format: str = "auto",
    *,
    limit: int | None = None,
    block_bytes: int = BLOCK_BYTES,
) -> Iterator[BlockIO]:
    """Stream :class:`BlockIO` records from a trace file.

    ``format="auto"`` sniffs from the first non-blank, non-comment line.
    ``limit`` stops after that many records (useful for quick looks at
    multi-gigabyte traces) — the file is still read lazily, so only the
    consumed prefix is ever touched.
    """
    path = Path(path)
    if format not in FORMATS:
        known = ", ".join(FORMATS)
        raise ValueError(f"unknown trace format {format!r}; known: {known}")
    with path.open("r", encoding="utf-8", errors="replace") as stream:
        if format == "auto":
            head: list[str] = []
            sample = None
            for line in stream:
                head.append(line)
                if line.strip() and not line.lstrip().startswith("#"):
                    sample = line
                    break
            if sample is None:
                raise ValueError(f"{path}: empty trace file")
            format = sniff_format(sample)
            lines: Iterable[str] = _chain_lines(head, stream)
        else:
            lines = stream
        parser = PARSERS[format]
        produced = 0
        for record in parser(lines, str(path), block_bytes=block_bytes):
            yield record
            produced += 1
            if limit is not None and produced >= limit:
                return


def _chain_lines(
    head: list[str], rest: Iterable[str]
) -> Iterator[str]:
    yield from head
    yield from rest
