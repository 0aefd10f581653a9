"""File-system substrate: FFS-style allocation, a simplified UFS, and the
buffer cache with its periodic update policy (Section 3.1)."""

from .allocator import (
    AllocationError,
    CylinderGroup,
    FFSAllocator,
    FreeMap,
)
from .buffercache import BufferCache
from .ufs import (
    Directory,
    FileSystem,
    FileSystemError,
    INODES_PER_BLOCK,
    Inode,
)

__all__ = [
    "AllocationError",
    "BufferCache",
    "CylinderGroup",
    "Directory",
    "FFSAllocator",
    "FileSystem",
    "FileSystemError",
    "FreeMap",
    "INODES_PER_BLOCK",
    "Inode",
]
