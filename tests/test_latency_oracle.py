"""An independent oracle for the disk's rotational mechanics.

Digest equality shows that the batch kernel and the scalar engine agree;
it cannot show that either is right.  This oracle can: independent,
uniformly random single-block reads at a low Poisson rate find the
queue empty, so each access starts after a seek that ends at a uniformly
random angle, and its rotational latency is Uniform(0, T) for one
revolution T.  The Toshiba MK156F (3,600 RPM, T = 16.67 ms) has no track
buffer, so every read waits for its sector.  The monitor tables' mean
rotational latency, the quantity Table 10 compares across placements
and the seek tables do not cover, must be half a revolution, 8.33 ms,
on the kernel and on the scalar engine.
"""

import math
import random

import pytest

from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.ioctl import IoctlInterface
from repro.driver.request import Op
from repro.sim.engine import Simulation
from repro.sim.jobs import batch_job

READS = 4000
MEAN_GAP_MS = 2000.0
"""Mean Poisson inter-arrival time: some fifty times a typical
Toshiba access, so a read rarely finds another in service."""

REVOLUTION_MS = TOSHIBA_MK156F.geometry.rotation_time_ms
BOUND_MS = 4 * (REVOLUTION_MS / math.sqrt(12)) / math.sqrt(READS)
"""Four standard errors of the mean of ``READS`` Uniform(0, T) draws:
T / sqrt(12) / sqrt(4000) * 4 = 0.30 ms."""


def _random_reads(seed: int):
    """Run ``READS`` uniform random single-block reads; returns the
    day's "all" table and the simulation."""
    label = DiskLabel(TOSHIBA_MK156F.geometry)
    driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
    rng = random.Random(seed)
    simulation = Simulation(driver)
    now_ms = 0.0
    for __ in range(READS):
        now_ms += rng.expovariate(1.0 / MEAN_GAP_MS)
        block = rng.randrange(label.virtual_total_blocks)
        simulation.add_job(batch_job(now_ms, [block], Op.READ))
    simulation.run()
    tables = IoctlInterface(driver).read_stats()
    simulation.close()
    return tables["all"], simulation


@pytest.mark.parametrize("engine", ["kernel", "scalar"])
def test_mean_rotational_latency_is_half_a_revolution(engine, scalar_engine):
    if engine == "scalar":
        with scalar_engine():
            stats, simulation = _random_reads(seed=11)
        assert simulation.absorbed_completions == 0
    else:
        stats, simulation = _random_reads(seed=11)
        assert simulation.absorbed_completions == READS
    assert REVOLUTION_MS == pytest.approx(1000.0 * 60 / 3600)
    assert BOUND_MS == pytest.approx(0.30, abs=0.005)
    assert stats.requests == READS
    assert stats.buffer_hits == 0
    assert stats.rotation.count == READS
    # The queue stays (nearly) empty: few reads wait a millisecond.
    assert stats.queueing.fraction_below(1.0) > 0.97
    assert stats.rotation.max_ms < REVOLUTION_MS
    assert abs(stats.rotation.mean_ms - REVOLUTION_MS / 2) < BOUND_MS
