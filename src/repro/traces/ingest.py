"""The ingest pipeline: raw trace file → simulator-ready workload.

``ingest_trace`` chains the subsystem's stages — streaming parse
(:mod:`.formats`), address mapping (:mod:`.mapping`), time rescaling and
loop conversion (:mod:`.rescale`), characterization
(:mod:`.characterize`) — and returns an :class:`IngestResult` whose jobs
drop straight into the existing experiment harness.
:func:`write_ingested` persists them in the internal workload-trace
format (``J``/``S`` lines, see :mod:`repro.workload.trace`) with a
provenance header, so ``repro replay`` and :func:`~repro.workload.trace.
load_trace` consume ingested traces exactly like generated ones.

Determinism guarantee: every stage is a pure function of the input bytes
and the options — no clocks, no RNG — so ingesting the same file twice
yields byte-identical output, and replaying it yields bit-identical
metrics (the property the ``trace_replay`` benchmark digest pins).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from ..disk.label import DiskLabel
from ..disk.models import PAPER_RESERVED_CYLINDERS, disk_model
from ..sim.jobs import Job
from ..workload.generator import DayWorkload
from ..workload.trace import dump_jobs
from .characterize import TraceCharacter, characterize_records
from .formats import BLOCK_BYTES, BlockIO, iter_trace
from .mapping import AddressMapper, make_mapper
from .rescale import DEFAULT_GAP_MS, jobs_from_records


@dataclass
class IngestResult:
    """Everything one ingest run produced."""

    source: str
    format: str
    mapping: str
    target_blocks: int
    time_scale: float
    loop: str
    jobs: list[Job]
    character: TraceCharacter
    """Statistics of the *source* trace (pre-mapping address space)."""
    records: int
    working_set_blocks: int
    wrapped: bool = False
    """True when compaction overflowed the target disk and wrapped."""
    block_bytes: int = BLOCK_BYTES
    gap_ms: float = DEFAULT_GAP_MS

    @property
    def requests(self) -> int:
        return sum(job.num_requests for job in self.jobs)

    def workload(self, day: int = 0) -> DayWorkload:
        """The jobs as a :class:`~repro.workload.generator.DayWorkload`,
        with per-block reference counts rebuilt — so the analysis layer
        (:func:`repro.analysis.characterize`,
        :func:`repro.analysis.cylinder_reference_distribution`) treats an
        ingested trace exactly like a generated day."""
        read_counts: dict[int, int] = {}
        all_counts: dict[int, int] = {}
        for job in self.jobs:
            for step in job.steps:
                block = step.logical_block
                all_counts[block] = all_counts.get(block, 0) + 1
                if step.op.is_read:
                    read_counts[block] = read_counts.get(block, 0) + 1
        return DayWorkload(
            day=day,
            jobs=self.jobs,
            read_counts=read_counts,
            all_counts=all_counts,
        )


def default_target_blocks(disk: str) -> int:
    """Virtual (file-system-visible) blocks of the named disk model,
    with the paper's reserved area hidden — the address space ``repro
    replay`` exposes to a trace.  ``"ssd"`` uses the FTL's reference
    disk label (:data:`repro.sim.ssd.REFERENCE_DISK`: the flash backend
    serves the same logical span, so one ingested trace addresses both
    backends identically)."""
    if disk == "ssd":
        # Imported here: repro.sim.ssd imports repro.driver.ftl, which
        # reaches this module through repro.core at package init.
        from ..sim.ssd import REFERENCE_DISK

        disk = REFERENCE_DISK
    model = disk_model(disk)
    label = DiskLabel(
        model.geometry, reserved_cylinders=PAPER_RESERVED_CYLINDERS[disk]
    )
    return label.virtual_total_blocks


def _measure_span(
    path: str | Path,
    format: str,
    limit: int | None,
    block_bytes: int,
) -> int:
    """Streaming pre-pass: the exclusive upper bound of the block space."""
    span = 0
    for record in iter_trace(
        path, format, limit=limit, block_bytes=block_bytes
    ):
        if record.end_block > span:
            span = record.end_block
    return span


def ingest_trace(
    path: str | Path,
    *,
    format: str = "auto",
    mapping: str = "compact",
    disk: str = "toshiba",
    target_blocks: int | None = None,
    source_span: int | None = None,
    time_scale: float = 1.0,
    loop: str = "open",
    gap_ms: float = DEFAULT_GAP_MS,
    limit: int | None = None,
    block_bytes: int = BLOCK_BYTES,
) -> IngestResult:
    """Parse, map and rescale one raw trace file.

    ``target_blocks`` defaults to the virtual size of ``disk``'s
    file-system partition (so mapped blocks are always valid replay
    addresses).  The ``linear`` strategy measures the source span with a
    streaming pre-pass when ``source_span`` is not given.  ``limit``
    ingests only the first N records.
    """
    path = Path(path)
    if target_blocks is None:
        target_blocks = default_target_blocks(disk)
    if mapping == "linear" and source_span is None:
        source_span = _measure_span(path, format, limit, block_bytes)
        if source_span == 0:
            raise ValueError(f"{path}: no records to ingest")
    mapper: AddressMapper = make_mapper(
        mapping, target_blocks, source_span=source_span
    )
    records: list[BlockIO] = list(
        iter_trace(path, format, limit=limit, block_bytes=block_bytes)
    )
    if not records:
        raise ValueError(f"{path}: no records to ingest")
    character = characterize_records(records)
    jobs = jobs_from_records(
        records,
        mapper,
        time_scale=time_scale,
        loop=loop,
        gap_ms=gap_ms,
        name_prefix=path.stem,
    )
    return IngestResult(
        source=str(path),
        format=format,
        mapping=mapper.name,
        target_blocks=target_blocks,
        time_scale=time_scale,
        loop=loop,
        jobs=jobs,
        character=character,
        records=len(records),
        working_set_blocks=character.working_set_blocks,
        wrapped=bool(getattr(mapper, "wrapped", False)),
        block_bytes=block_bytes,
        gap_ms=gap_ms,
    )


def dump_ingested(result: IngestResult, stream: TextIO) -> int:
    """Write an ingested trace with its provenance header."""
    stream.write("# repro block-request trace (ingested)\n")
    stream.write(f"# source: {os.path.basename(result.source)}\n")
    stream.write(
        f"# format={result.format} mapping={result.mapping} "
        f"target_blocks={result.target_blocks} "
        f"time_scale={result.time_scale!r} loop={result.loop} "
        f"gap_ms={result.gap_ms!r} block_bytes={result.block_bytes}\n"
    )
    return dump_jobs(result.jobs, stream)


def write_ingested(result: IngestResult, path: str | Path) -> int:
    """Persist an ingested trace; returns the number of jobs written.

    The output is the internal workload-trace format — ``repro replay``
    and :func:`repro.workload.trace.load_trace` read it directly.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as stream:
        return dump_ingested(result, stream)


def fixture_path(name: str) -> Path:
    """Locate a bundled fixture trace (``tests/fixtures/<name>``).

    Checked in order: ``$REPRO_FIXTURES``, the current directory's
    ``tests/fixtures``, and the repository root relative to this source
    tree (works for editable installs and ``PYTHONPATH=src`` runs).
    """
    candidates = []
    env = os.environ.get("REPRO_FIXTURES")
    if env:
        candidates.append(Path(env) / name)
    candidates.append(Path("tests/fixtures") / name)
    candidates.append(
        Path(__file__).resolve().parents[3] / "tests" / "fixtures" / name
    )
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    raise FileNotFoundError(
        f"fixture trace {name!r} not found (looked in "
        + ", ".join(str(c.parent) for c in candidates)
        + ")"
    )
