"""repro: Adaptive Block Rearrangement (Akyürek & Salem, ICDE 1993).

A complete, simulator-based reproduction of the adaptive block
rearrangement system: a UNIX-style disk device driver that monitors its
request stream, estimates block reference frequencies, and copies the
hottest blocks into reserved cylinders near the middle of the disk
(organ-pipe layout) to cut seek times.

Quickstart — the stable facade is :mod:`repro.api`::

    from repro.api import run_campaign
    from repro.stats import summarize_on_off

    result = run_campaign(profile="system", disk="toshiba",
                          hours=1.0, days=4)
    summary = summarize_on_off(result.metrics())
    print(f"seek time reduction: {summary.seek_reduction:.0%}")

Subpackages
-----------

``repro.api``
    The supported entry points: ``simulate_day``, ``run_campaign``,
    ``run_bench``.  Import from here in scripts; the deeper module
    layout may shift between releases, this surface will not.
``repro.bench``
    The performance suite behind ``python -m repro bench``: deterministic
    scenarios, wall-clock/events-per-second reports, metrics digests and
    the committed-baseline regression gate.

``repro.core``
    The paper's contribution: reference stream analyzer, hot block list,
    placement policies (organ-pipe / interleaved / serial), block
    arranger, and the daily rearrangement controller.
``repro.disk``
    Disk mechanics: geometry, the paper's published seek-time functions,
    rotational-position model, read-ahead track buffer, disk labels with
    hidden reserved cylinders (Toshiba MK156F and Fujitsu M2266 presets).
``repro.driver``
    The modified device driver: strategy routine, block-table
    redirection, SCAN queueing, monitoring tables, ioctl entry points.
``repro.fs``
    FFS-style allocation (cylinder groups, rotational interleave), a
    simplified UFS, and the write-back buffer cache with periodic sync.
``repro.workload``
    Calibrated synthetic workloads for the paper's *system* and *users*
    file systems, with multi-day drift.
``repro.traces``
    Real-world block-trace ingestion and replay: streaming blkparse/MSR
    parsers, address mapping onto the simulated disk, time rescaling,
    and trace characterization (``repro ingest`` / ``repro replay``).
``repro.faults``
    Deterministic fault injection: transient/media errors, scheduled
    crashes, and the block-table invariant checker.
``repro.sim``
    Discrete-event engine and the day-by-day experiment campaigns.
``repro.stats``
    Histograms, per-day metrics, and paper-style table rendering.
"""

from . import api, traces
from .core import (
    BlockArranger,
    InterleavedPlacement,
    OrganPipePlacement,
    RearrangementController,
    ReferenceStreamAnalyzer,
    SerialPlacement,
    make_policy,
)
from .disk import (
    Disk,
    DiskGeometry,
    DiskLabel,
    DiskModel,
    FUJITSU_M2266,
    TOSHIBA_MK156F,
    disk_model,
)
from .driver import (
    AdaptiveDiskDriver,
    BlockTable,
    DiskRequest,
    IoctlInterface,
    Op,
    ScanQueue,
    make_queue,
)
from .faults import (
    BlockTableInvariants,
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
    parse_fault_spec,
)
from .fs import BufferCache, FileSystem
from .policy import (
    NightlyPolicy,
    NoRearrangement,
    OnlinePolicy,
    RearrangementPolicy,
    resolve_policy,
)
from .sim import (
    CampaignResult,
    Experiment,
    ExperimentConfig,
    Simulation,
    run_block_count_sweep,
    run_campaign,
    run_onoff_campaign,
    run_policy_campaign,
)
from .stats import DayMetrics, summarize_on_off
from .workload import (
    SYSTEM_FS_PROFILE,
    USERS_FS_PROFILE,
    WorkloadGenerator,
    WorkloadProfile,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveDiskDriver",
    "api",
    "BlockArranger",
    "BlockTable",
    "BlockTableInvariants",
    "BufferCache",
    "CampaignResult",
    "DayMetrics",
    "Disk",
    "DiskGeometry",
    "DiskLabel",
    "DiskModel",
    "DiskRequest",
    "Experiment",
    "ExperimentConfig",
    "FUJITSU_M2266",
    "FaultInjector",
    "FaultPlan",
    "FileSystem",
    "InterleavedPlacement",
    "IoctlInterface",
    "NightlyPolicy",
    "NoRearrangement",
    "Op",
    "OnlinePolicy",
    "OrganPipePlacement",
    "RearrangementController",
    "RearrangementPolicy",
    "ReferenceStreamAnalyzer",
    "SYSTEM_FS_PROFILE",
    "ScanQueue",
    "SerialPlacement",
    "SimulatedCrash",
    "Simulation",
    "TOSHIBA_MK156F",
    "USERS_FS_PROFILE",
    "WorkloadGenerator",
    "WorkloadProfile",
    "disk_model",
    "make_policy",
    "make_queue",
    "parse_fault_spec",
    "resolve_policy",
    "run_block_count_sweep",
    "run_campaign",
    "run_onoff_campaign",
    "run_policy_campaign",
    "summarize_on_off",
    "traces",
]
