"""The paper's contribution: adaptive block rearrangement.

Reference-frequency estimation from the monitored request stream and its
ranked hot block list (:mod:`analyzer`), the three placement policies for
the reserved region (:mod:`placement`), the block arranger that turns a
hot list into ``DKIOCBCOPY`` calls (:mod:`arranger`), and the daily
monitoring/rearrangement cycle (:mod:`controller`).
"""

from .analyzer import REPLACEMENT_HEURISTICS, ReferenceStreamAnalyzer
from .arranger import BlockArranger
from .cylshuffle import (
    CylinderShufflePlan,
    CylinderShuffler,
    cylinder_counts_from_blocks,
    plan_organ_pipe_shuffle,
)
from .controller import (
    MONITOR_POLL_INTERVAL_MS,
    RearrangementController,
)
from .loge import FreeBlockPool, LogeDriver
from .placement import (
    CLOSE_FREQUENCY_RATIO,
    InterleavedPlacement,
    OrganPipePlacement,
    PLACEMENT_POLICIES,
    PlacementPolicy,
    ReservedCylinder,
    ReservedLayout,
    SerialPlacement,
    make_policy,
)

__all__ = [
    "BlockArranger",
    "CLOSE_FREQUENCY_RATIO",
    "CylinderShufflePlan",
    "CylinderShuffler",
    "cylinder_counts_from_blocks",
    "plan_organ_pipe_shuffle",
    "FreeBlockPool",
    "LogeDriver",
    "InterleavedPlacement",
    "MONITOR_POLL_INTERVAL_MS",
    "OrganPipePlacement",
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "REPLACEMENT_HEURISTICS",
    "RearrangementController",
    "ReferenceStreamAnalyzer",
    "ReservedCylinder",
    "ReservedLayout",
    "SerialPlacement",
    "make_policy",
]
