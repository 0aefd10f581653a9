"""FTL invariants: mapping, garbage collection, crash model, accounting.

Three layers of assurance for the page-mapped backend (``docs/ftl.md``):

* **Exact accounting** on hand-built schedules — write amplification is
  1.0 until the log wraps, and every flash page program is attributable:
  ``flash_page_writes == host_page_writes + gc_page_moves +
  translation_writes`` always, by construction.
* **Randomized stress** — read-after-write must survive garbage
  collection, mapping-cache eviction, and a power cut at any page
  boundary.  Seeds follow the fault-stress convention: add one with
  ``FAULT_STRESS_SEED=<n>`` to reproduce a failure.
* **Config plumbing** — :class:`SsdConfig` validation, hot/cold
  separation selection through the policy API, and the determinism of a
  preconditioned drive.
"""

import json
import os
import random
from dataclasses import replace

import pytest

from repro.driver import DriverError, FlashGeometry, FtlDriver
from repro.driver.request import read_request, write_request
from repro.obs.jsonl import JsonlTraceWriter, iter_trace
from repro.sim.ssd import SsdConfig, SsdExperiment
from repro.workload.profiles import USERS_FS_PROFILE

STRESS_SEEDS = [3, 17, 1993]
if os.environ.get("FAULT_STRESS_SEED"):
    STRESS_SEEDS.append(int(os.environ["FAULT_STRESS_SEED"]))

TINY = FlashGeometry(
    channels=1, blocks_per_channel=12, pages_per_block=4, page_bytes=32
)
"""48 pages, 4 mapping entries per translation page — small enough that
a few dozen writes wrap the log and trigger garbage collection."""


def make_driver(**overrides) -> FtlDriver:
    options = dict(
        geometry=TINY,
        logical_pages=16,
        cmt_capacity=64,
        gc_low_blocks=1,
        gc_high_blocks=3,
    )
    options.update(overrides)
    driver = FtlDriver(**options)
    driver.attach()
    return driver


def serve(driver, request) -> None:
    completion = driver.strategy(request, request.arrival_ms)
    while completion is not None:
        __, completion = driver.complete(completion)


def write(driver, lpn: int, tag: str, now_ms: float = 0.0) -> None:
    serve(driver, write_request(lpn, arrival_ms=now_ms, tag=tag))


def check_accounting(driver) -> None:
    stats = driver.stats
    assert stats.flash_page_writes == (
        stats.host_page_writes
        + stats.gc_page_moves
        + stats.translation_writes
    )


class TestExactAccounting:
    def test_fresh_sequential_writes_have_unit_write_amplification(self):
        driver = make_driver()
        for lpn in range(16):
            write(driver, lpn, f"v{lpn}")
        assert driver.stats.host_page_writes == 16
        assert driver.stats.flash_page_writes == 16
        assert driver.stats.write_amplification == 1.0
        assert driver.stats.translation_writes == 0
        assert driver.stats.gc_runs == 0
        check_accounting(driver)

    def test_overwrites_invalidate_without_amplification_before_gc(self):
        driver = make_driver()
        for lpn in range(8):
            write(driver, lpn, f"a{lpn}")
        for lpn in range(4):
            write(driver, lpn, f"b{lpn}")
        assert driver.stats.host_page_writes == 12
        assert driver.stats.flash_page_writes == 12
        check_accounting(driver)

    def test_every_flash_program_is_attributed(self):
        driver = make_driver(cmt_capacity=4)  # force evictions too
        rng = random.Random(7)
        for serial in range(300):
            write(driver, rng.randrange(16), f"v{serial}", float(serial))
        assert driver.stats.gc_runs > 0
        assert driver.stats.translation_writes > 0
        check_accounting(driver)

    def test_gc_erases_are_counted_per_block(self):
        driver = make_driver()
        for serial in range(200):
            write(driver, serial % 16, f"v{serial}", float(serial))
        assert driver.stats.gc_runs > 0
        assert sum(driver.erase_count) == driver.stats.gc_runs
        assert driver.max_erase_count >= 1
        assert driver.mean_erase_count == pytest.approx(
            sum(driver.erase_count) / TINY.total_blocks
        )


class TestGarbageCollection:
    def test_data_survives_heavy_collection(self):
        driver = make_driver()
        oracle: dict[int, str] = {}
        for serial in range(400):
            lpn = serial % 16
            tag = f"v{serial}"
            write(driver, lpn, tag, float(serial))
            oracle[lpn] = tag
        assert driver.stats.gc_runs > 0
        for lpn, tag in oracle.items():
            assert driver.read_data(lpn) == tag

    def test_fully_invalid_block_is_everyones_first_victim(self):
        for policy in ("greedy", "cost-benefit"):
            driver = make_driver(gc_policy=policy)
            for lpn in range(4):
                write(driver, lpn, f"a{lpn}")  # fills physical block 0
            for lpn in range(4):
                write(driver, lpn, f"b{lpn}")  # invalidates all of it
            assert driver._select_victim() == 0

    def test_unknown_gc_policy_is_rejected(self):
        with pytest.raises(DriverError, match="unknown gc policy"):
            make_driver(gc_policy="oracle")

    def test_cost_benefit_also_preserves_data(self):
        driver = make_driver(gc_policy="cost-benefit")
        oracle: dict[int, str] = {}
        for serial in range(300):
            lpn = (serial * 5) % 16
            tag = f"v{serial}"
            write(driver, lpn, tag, float(serial))
            oracle[lpn] = tag
        assert driver.stats.gc_runs > 0
        for lpn, tag in oracle.items():
            assert driver.read_data(lpn) == tag


class TestMappingCache:
    def test_eviction_spills_to_translation_pages_and_reads_back(self):
        driver = make_driver(cmt_capacity=2)
        for lpn in range(16):
            write(driver, lpn, f"v{lpn}", float(lpn))
        assert driver.stats.translation_writes > 0
        for lpn in range(16):
            serve(driver, read_request(lpn, arrival_ms=100.0 + lpn))
            assert driver.read_data(lpn) == f"v{lpn}"
        assert driver.stats.cmt_misses > 0
        assert driver.stats.translation_reads > 0
        check_accounting(driver)

    def test_mapping_misses_cost_flash_reads(self):
        hot = make_driver(cmt_capacity=64)
        cold = make_driver(cmt_capacity=2)
        for driver in (hot, cold):
            for lpn in range(16):
                write(driver, lpn, f"v{lpn}", float(lpn))
            for lpn in range(16):
                serve(driver, read_request(lpn, arrival_ms=100.0 + lpn))
        assert cold.stats.flash_page_reads > hot.stats.flash_page_reads
        assert cold.stats.cmt_hit_ratio < hot.stats.cmt_hit_ratio


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_read_after_write_survives_gc_eviction_and_power_cuts(seed):
    """The randomized invariant: interleave writes, reads, and power
    cuts at arbitrary points; the latest committed value must always be
    readable afterwards (lost in-flight requests are resubmitted, the
    client-retry contract)."""
    # Roomier than TINY: every crash seals the partially-filled write
    # frontiers (their blank pages are wasted until erased), so a
    # crash-heavy schedule needs real over-provisioning to avoid
    # legitimate GC starvation.
    stress_geometry = FlashGeometry(
        channels=1, blocks_per_channel=24, pages_per_block=4, page_bytes=32
    )
    driver = make_driver(geometry=stress_geometry, cmt_capacity=4)
    rng = random.Random(seed)
    oracle: dict[int, str] = {}
    clock = 0.0
    for serial in range(250):
        clock += 10.0
        action = rng.random()
        lpn = rng.randrange(16)
        if action < 0.55:
            tag = f"s{serial}"
            write(driver, lpn, tag, clock)
            oracle[lpn] = tag
        elif action < 0.8:
            serve(driver, read_request(lpn, arrival_ms=clock))
            assert driver.read_data(lpn) == oracle.get(lpn)
        else:
            tag = f"c{serial}"
            inflight = write_request(lpn, arrival_ms=clock, tag=tag)
            driver.strategy(inflight, clock)  # cut power mid-operation
            lost = driver.crash(clock + 0.001)
            assert inflight in lost
            clock = driver.recover(clock + 0.001)
            completion = driver.resubmit(inflight, clock)
            while completion is not None:
                __, completion = driver.complete(completion)
            oracle[lpn] = tag
    assert driver.stats.gc_runs > 0
    assert driver.stats.cmt_misses > 0
    assert driver.stats.crashes > 0
    for lpn in range(16):
        assert driver.read_data(lpn) == oracle.get(lpn)
    check_accounting(driver)


class TestSeparation:
    def test_separation_builds_a_default_sketch(self):
        driver = make_driver(separation=True)
        assert driver.sketch is not None

    def test_hot_writes_open_the_hot_frontier(self):
        driver = make_driver(separation=True, hot_threshold=2)
        write(driver, 5, "a", 0.0)
        assert driver._frontier_block["hot"] is None
        write(driver, 5, "b", 1.0)  # second write: count reaches 2
        assert driver._frontier_block["hot"] is not None
        assert driver.read_data(5) == "b"

    def test_separation_off_never_uses_the_hot_frontier(self):
        driver = make_driver()
        for serial in range(40):
            write(driver, serial % 4, f"v{serial}", float(serial))
        assert driver._frontier_block["hot"] is None
        assert driver._frontier_next["hot"] == 0


class TestPreconditioning:
    def test_same_seed_is_bit_identical(self):
        a = make_driver()
        b = make_driver()
        a.precondition(seed=11)
        b.precondition(seed=11)
        assert a.erase_count == b.erase_count
        assert a.free_blocks == b.free_blocks
        assert [a.read_data(lpn) for lpn in range(16)] == [
            b.read_data(lpn) for lpn in range(16)
        ]

    def test_counters_reset_but_wear_is_kept(self):
        driver = make_driver()
        driver.precondition(seed=11)
        assert driver.stats.host_page_writes == 0
        assert driver.stats.gc_runs == 0
        assert sum(driver.erase_count) > 0

    def test_requires_a_fresh_device(self):
        driver = make_driver()
        write(driver, 0, "dirty")
        with pytest.raises(DriverError, match="fresh"):
            driver.precondition(seed=11)


class TestGeometryAndConfig:
    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="pages_per_block"):
            FlashGeometry(
                channels=1, blocks_per_channel=4, pages_per_block=0
            )
        with pytest.raises(ValueError, match="page_bytes"):
            FlashGeometry(
                channels=1,
                blocks_per_channel=4,
                pages_per_block=4,
                page_bytes=12,
            )

    def test_undersized_flash_is_rejected(self):
        with pytest.raises(DriverError, match="flash too small"):
            FtlDriver(geometry=TINY, logical_pages=40)

    def test_ssd_config_validates_its_knobs(self):
        profile = replace(USERS_FS_PROFILE, day_hours=0.5)
        with pytest.raises(ValueError, match="unknown gc policy"):
            SsdConfig(profile=profile, gc_policy="oracle")
        with pytest.raises(ValueError, match="unknown rearrangement"):
            SsdConfig(profile=profile, policy="sometimes")

    def test_policy_selects_separation(self):
        profile = replace(USERS_FS_PROFILE, day_hours=0.5)
        assert not SsdConfig(profile=profile, policy="off").separation
        assert SsdConfig(profile=profile, policy="nightly").separation
        assert SsdConfig(profile=profile).separation  # default: nightly
        payload = SsdConfig(profile=profile, policy="off").payload()
        assert payload["separation"] is False
        assert payload["policy"] == {"kind": "off"}


class TestSsdExperiment:
    def test_days_are_deterministic(self):
        profile = replace(USERS_FS_PROFILE, day_hours=0.5)
        config = SsdConfig(profile=profile, policy="off")
        first = [d.payload() for d in SsdExperiment(config).run_days(2)]
        second = [d.payload() for d in SsdExperiment(config).run_days(2)]
        assert first == second
        assert first[0]["workload_requests"] > 0

    def test_jsonl_trace_carries_ftl_events(self, tmp_path):
        path = tmp_path / "ssd.jsonl"
        profile = replace(USERS_FS_PROFILE, day_hours=1.0)
        config = SsdConfig(profile=profile, cmt_capacity=256)
        with JsonlTraceWriter(path) as tracer:
            SsdExperiment(config, tracer=tracer).run_day()
        kinds = {record["event"] for record in iter_trace(path)}
        assert "gc-run" in kinds
        assert "mapping-writeback" in kinds
        assert "wear-level" in kinds
        for record in iter_trace(path):
            if record["event"] == "gc-run":
                assert record["policy"] == "greedy"
                assert record["moved"] >= 0
                assert record["erases"] >= 1
                break
        # every record is valid JSON with a device attribution
        assert all("device" in r for r in iter_trace(path))
        assert json.loads(path.read_text().splitlines()[0])["device"]
