"""Discrete-event simulation: the typed event bus, workload jobs, the
multi-device engine, and the paper's day-by-day experiment campaigns.

The core (events, jobs, engine) is imported eagerly.  The campaign layer
(:mod:`~repro.sim.experiment`, :mod:`~repro.sim.multifs`) is resolved
lazily on first attribute access: it depends on :mod:`repro.workload`,
which itself builds :mod:`~repro.sim.jobs` objects — loading it here
eagerly would make ``import repro.workload`` circular.
"""

from .engine import DeviceState, Simulation
from .events import (
    DeviceComplete,
    EventBus,
    EventQueue,
    JobStart,
    MachineCrash,
    PeriodicFire,
    SimEvent,
    StepIssue,
    UnhandledEventError,
)
from .jobs import Job, Step, batch_job, sequential_job

_EXPERIMENT_NAMES = {
    "CampaignResult",
    "DayResult",
    "Experiment",
    "ExperimentConfig",
    "PAPER_REARRANGED_BLOCKS",
    "PAPER_RESERVED_CYLINDERS",
    "alternating_schedule",
    "run_block_count_sweep",
    "run_campaign",
    "run_campaigns_parallel",
    "run_onoff_campaign",
    "run_policy_campaign",
}
_MULTIFS_NAMES = {
    "FileSystemSpec",
    "MultiDiskDayResult",
    "MultiDiskExperiment",
    "MultiFSDayResult",
    "MultiFSExperiment",
}
_SSD_NAMES = {
    "SsdConfig",
    "SsdDayResult",
    "SsdExperiment",
}


def __getattr__(name: str):
    if name in _EXPERIMENT_NAMES:
        from . import experiment

        return getattr(experiment, name)
    if name in _MULTIFS_NAMES:
        from . import multifs

        return getattr(multifs, name)
    if name in _SSD_NAMES:
        from . import ssd

        return getattr(ssd, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "CampaignResult",
    "DayResult",
    "DeviceComplete",
    "DeviceState",
    "EventBus",
    "EventQueue",
    "Experiment",
    "ExperimentConfig",
    "FileSystemSpec",
    "Job",
    "JobStart",
    "MachineCrash",
    "MultiDiskDayResult",
    "MultiDiskExperiment",
    "MultiFSDayResult",
    "MultiFSExperiment",
    "PAPER_REARRANGED_BLOCKS",
    "PAPER_RESERVED_CYLINDERS",
    "PeriodicFire",
    "SimEvent",
    "Simulation",
    "SsdConfig",
    "SsdDayResult",
    "SsdExperiment",
    "Step",
    "StepIssue",
    "UnhandledEventError",
    "alternating_schedule",
    "batch_job",
    "run_block_count_sweep",
    "run_campaign",
    "run_campaigns_parallel",
    "run_onoff_campaign",
    "run_policy_campaign",
    "sequential_job",
]
