"""Device-driver substrate: the paper's modified SCSI disk driver.

Implements the strategy path (label mapping, block-table redirection, SCAN
queueing), the block-movement ioctls (``DKIOCBCOPY``/``DKIOCCLEAN``), the
request and performance monitoring tables, and the raw-interface request
splitting — Section 4.1 of the paper, in simulation form.
"""

from .blocktable import BlockTable, BlockTableEntry
from .driver import AdaptiveDiskDriver, RearrangementIOCounter
from .errors import (
    BadAddressError,
    BusyError,
    DeviceTimeout,
    DriverError,
    MediaError,
)
from .ftl import (
    GC_POLICIES,
    FlashGeometry,
    FtlDriver,
    FtlStats,
)
from .ioctl import IoctlInterface, ReservedAreaInfo
from .monitor import (
    ClassStats,
    FaultStats,
    PerformanceMonitor,
    RequestMonitor,
)
from .physio import physio, split_raw_request
from .protocol import DeviceDriver
from .queue import (
    QUEUE_POLICIES,
    CScanQueue,
    DiskQueue,
    FCFSQueue,
    SSTFQueue,
    ScanQueue,
    make_queue,
)
from .request import DiskRequest, Op, read_request, write_request

__all__ = [
    "AdaptiveDiskDriver",
    "BadAddressError",
    "BlockTable",
    "BlockTableEntry",
    "BusyError",
    "CScanQueue",
    "ClassStats",
    "DeviceDriver",
    "DeviceTimeout",
    "DiskQueue",
    "DiskRequest",
    "DriverError",
    "FCFSQueue",
    "FaultStats",
    "FlashGeometry",
    "FtlDriver",
    "FtlStats",
    "GC_POLICIES",
    "MediaError",
    "IoctlInterface",
    "Op",
    "PerformanceMonitor",
    "QUEUE_POLICIES",
    "RearrangementIOCounter",
    "RequestMonitor",
    "ReservedAreaInfo",
    "SSTFQueue",
    "ScanQueue",
    "make_queue",
    "physio",
    "read_request",
    "split_raw_request",
    "write_request",
]
