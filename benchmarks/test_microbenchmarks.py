"""Micro-benchmarks of the library's hot paths.

Unlike the table/figure benchmarks (one-shot campaign reproductions),
these exercise individual operations with real repetition so regressions
in the simulator's inner loops are visible: the strategy/complete cycle,
analyzer ingestion, placement planning, and workload generation.
"""

from repro.core.analyzer import ReferenceStreamAnalyzer
from repro.core.placement import ReservedLayout, make_policy
from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.request import Op, read_request
from repro.sim.engine import Simulation
from repro.sim.jobs import batch_job


def make_driver():
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    return AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)


def test_strategy_complete_cycle(benchmark):
    """One full request round trip through driver and disk."""
    driver = make_driver()
    state = {"clock": 0.0, "block": 0}

    def cycle():
        state["clock"] += 1000.0
        state["block"] = (state["block"] + 997) % 10_000
        completion = driver.strategy(
            read_request(state["block"], state["clock"]), state["clock"]
        )
        while completion is not None:
            __, completion = driver.complete(completion)

    benchmark(cycle)


def test_simulation_thousand_requests(benchmark):
    """Event-loop throughput for a 1000-request batch."""
    blocks = [(i * 991) % 10_000 for i in range(1000)]

    def run():
        driver = make_driver()
        simulation = Simulation(driver)
        simulation.add_job(batch_job(0.0, blocks, Op.READ))
        return len(simulation.run()) + simulation.absorbed_completions

    assert benchmark(run) == 1000


def test_analyzer_ingest_10k(benchmark):
    """Reference-count ingestion rate (unbounded list)."""
    stream = [(i * 37) % 2000 for i in range(10_000)]

    def ingest():
        analyzer = ReferenceStreamAnalyzer()
        for block in stream:
            analyzer.observe(block)
        return analyzer.distinct_blocks()

    assert benchmark(ingest) == 2000


def test_analyzer_ingest_bounded(benchmark):
    """Space-saving ingestion (forces replacements)."""
    stream = [(i * 37) % 2000 for i in range(10_000)]

    def ingest():
        analyzer = ReferenceStreamAnalyzer(capacity=256)
        for block in stream:
            analyzer.observe(block)
        return analyzer.distinct_blocks()

    assert benchmark(ingest) == 256


def test_organ_pipe_planning(benchmark):
    """Planning 1000 moves over the full reserved layout."""
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    layout = ReservedLayout.from_label(label)
    hot = [(b * 3, 5000 - b) for b in range(1000)]
    policy = make_policy("organ-pipe")

    result = benchmark(policy.place, hot, layout)
    assert len(result) == 1000


def test_interleaved_planning(benchmark):
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    layout = ReservedLayout.from_label(label)
    hot = [(b * 2, 5000 - b) for b in range(1000)]
    policy = make_policy("interleaved")

    result = benchmark(policy.place, hot, layout)
    assert len(result) == 1000


def test_workload_generation_half_hour(benchmark):
    """Generating a half-hour day of the system workload."""
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.profiles import SYSTEM_FS_PROFILE

    def generate():
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
        partition = label.add_partition("fs0", label.virtual_total_blocks)
        generator = WorkloadGenerator(
            SYSTEM_FS_PROFILE.scaled(hours=0.5),
            partition,
            TOSHIBA_MK156F.geometry.blocks_per_cylinder,
            seed=1,
        )
        return generator.generate_day().num_requests

    assert benchmark(generate) > 0
