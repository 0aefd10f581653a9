"""Property-based tests of whole-simulation invariants.

Hypothesis generates arbitrary mixes of batch and sequential jobs and the
tests check the conservation and timing laws any correct discrete-event
disk simulation must obey.
"""

from hypothesis import given, settings, strategies as st

from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import FUJITSU_M2266, TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.queue import make_queue
from repro.driver.request import Op
from repro.sim.engine import Simulation
from repro.sim.jobs import batch_job, sequential_job

MAX_BLOCK = (815 - 48) * 21 - 1

job_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=60_000, allow_nan=False),  # start
        st.booleans(),  # sequential?
        st.booleans(),  # read?
        st.lists(
            st.integers(min_value=0, max_value=MAX_BLOCK),
            min_size=1,
            max_size=6,
        ),
    ),
    min_size=1,
    max_size=12,
)


def build_jobs(spec):
    jobs = []
    for start, sequential, is_read, blocks in spec:
        op = Op.READ if is_read else Op.WRITE
        if sequential:
            jobs.append(sequential_job(start, blocks, op, think_ms=1.0))
        else:
            jobs.append(batch_job(start, blocks, op))
    return jobs


def run_simulation(scalar_engine, spec, queue_policy="scan",
                   model=TOSHIBA_MK156F, reserved=48):
    """Serve ``spec`` on the scalar engine, whose ``run()`` returns every
    request it completes (the batch kernel only counts the ones it
    absorbs)."""
    label = DiskLabel(model.geometry, reserved_cylinders=reserved)
    driver = AdaptiveDiskDriver(
        disk=Disk(model), label=label, queue=make_queue(queue_policy)
    )
    simulation = Simulation(driver)
    simulation.add_jobs(build_jobs(spec))
    with scalar_engine():
        completed = simulation.run()
    return driver, completed


@settings(deadline=None, max_examples=40)
@given(spec=job_strategy)
def test_every_request_completes_exactly_once(spec, scalar_engine):
    __, completed = run_simulation(scalar_engine, spec)
    expected = sum(len(blocks) for __, __, __, blocks in spec)
    assert len(completed) == expected
    ids = [r.request_id for r in completed]
    assert len(set(ids)) == len(ids)


@settings(deadline=None, max_examples=40)
@given(spec=job_strategy)
def test_timing_laws(spec, scalar_engine):
    """arrival <= submit <= complete; service covers at least the
    transfer; completions are strictly ordered (one disk)."""
    __, completed = run_simulation(scalar_engine, spec)
    transfer = TOSHIBA_MK156F.geometry.block_transfer_time_ms(1)
    overhead = TOSHIBA_MK156F.controller_overhead_ms
    previous_finish = None
    for request in completed:
        assert request.arrival_ms <= request.submit_ms <= request.complete_ms
        assert request.queueing_ms >= 0
        assert request.service_ms >= transfer + overhead - 1e-9
        if previous_finish is not None:
            assert request.complete_ms >= previous_finish - 1e-9
        previous_finish = request.complete_ms


@settings(deadline=None, max_examples=40)
@given(spec=job_strategy)
def test_disk_never_serves_two_requests_at_once(spec, scalar_engine):
    __, completed = run_simulation(scalar_engine, spec)
    busy = sorted((r.submit_ms, r.complete_ms) for r in completed)
    for (__, end_a), (start_b, __) in zip(busy, busy[1:]):
        assert start_b >= end_a - 1e-9


@settings(deadline=None, max_examples=30)
@given(spec=job_strategy, policy=st.sampled_from(["fcfs", "scan", "cscan", "sstf"]))
def test_conservation_under_every_queue_policy(spec, policy, scalar_engine):
    __, completed = run_simulation(scalar_engine, spec, queue_policy=policy)
    expected = sum(len(blocks) for __, __, __, blocks in spec)
    assert len(completed) == expected


@settings(deadline=None, max_examples=30)
@given(spec=job_strategy)
def test_monitor_counts_match_completions(spec, scalar_engine):
    driver, completed = run_simulation(scalar_engine, spec)
    stats = driver.perf_monitor.stats("all")
    assert stats.requests == len(completed)
    assert stats.service.count == len(completed)
    reads = sum(1 for r in completed if r.is_read)
    assert driver.perf_monitor.stats("read").requests == reads


@settings(deadline=None, max_examples=20)
@given(spec=job_strategy)
def test_fujitsu_buffer_hits_never_break_conservation(spec, scalar_engine):
    driver, completed = run_simulation(
        scalar_engine, spec, model=FUJITSU_M2266, reserved=80
    )
    # Buffer hits shorten service but every request still completes.
    expected = sum(len(blocks) for __, __, __, blocks in spec)
    assert len(completed) == expected
    for request in completed:
        if request.buffer_hit:
            assert request.seek_distance == 0


@settings(deadline=None, max_examples=30)
@given(
    spec=job_strategy,
    hot=st.lists(
        st.integers(min_value=0, max_value=MAX_BLOCK),
        min_size=1,
        max_size=20,
        unique=True,
    ),
)
def test_rearrangement_is_transparent_to_request_accounting(
    spec, hot, scalar_engine
):
    """With arbitrary blocks rearranged, every request still completes
    and redirected requests land inside the reserved area."""
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
    slots = label.reserved_data_blocks()
    for index, block in enumerate(hot):
        driver.bcopy(block, slots[index], now_ms=0.0)
    simulation = Simulation(driver)
    simulation.add_jobs(build_jobs(spec))
    with scalar_engine():
        completed = simulation.run()
    assert len(completed) == sum(len(b) for __, __, __, b in spec)
    hot_set = set(hot)
    for request in completed:
        if request.logical_block in hot_set:
            assert request.redirected
            assert label.is_reserved_block(request.target_block)
        else:
            assert not request.redirected
