"""Tests for repro.faults — spec grammar, plans, the injector, and the
driver's retry/fallback error paths."""

import pytest

from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.errors import (
    BadAddressError,
    DeviceTimeout,
    DriverError,
    MediaError,
)
from repro.driver.ioctl import IoctlInterface
from repro.driver.request import read_request, write_request
from repro.faults.injector import MEDIA, TRANSIENT, FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.spec import FaultSpecError, parse_fault_spec
from repro.sim.experiment import ExperimentConfig, run_campaign
from repro.workload.profiles import SYSTEM_FS_PROFILE


def make_driver(plan=None, reserved_cylinders=48):
    label = DiskLabel(
        TOSHIBA_MK156F.geometry, reserved_cylinders=reserved_cylinders
    )
    faults = plan.injector() if plan is not None else None
    return AdaptiveDiskDriver(
        disk=Disk(TOSHIBA_MK156F), label=label, faults=faults
    )


def serve_one(driver, request):
    completion = driver.strategy(request, request.arrival_ms)
    while completion is not None:
        __, completion = driver.complete(completion)
    return request


class ScriptedFaults:
    """Injector stand-in returning a pre-scripted sequence of draws."""

    def __init__(self, outcomes, max_retries=3):
        self.outcomes = list(outcomes)
        self.max_retries = max_retries

    def bind_label(self, label):
        pass

    def draw(self, block, is_read, now_ms):
        if self.outcomes:
            return self.outcomes.pop(0)
        return None

    def check_move_crash(self, now_ms):
        pass

    def note_move_done(self):
        pass


class TestSpecGrammar:
    def test_full_spec(self):
        plan = parse_fault_spec(
            "seed=42,transient=0.002,retries=4,media=1200+7301,"
            "crash=copy3,crash=day2@1.5h,degrade=0.1,degrade-action=skip"
        )
        assert plan.seed == 42
        assert plan.transient_rate == 0.002
        assert plan.max_retries == 4
        assert plan.media_blocks == (1200, 7301)
        assert plan.crash_after_copies == (3,)
        assert plan.crash_times == ((2, 5_400_000.0),)
        assert plan.degrade_threshold == 0.1
        assert plan.degrade_action == "skip"

    def test_random_media(self):
        assert parse_fault_spec("media=rand:5").random_media == 5

    def test_time_suffixes(self):
        assert parse_fault_spec("crash=30s").crash_times == ((0, 30_000.0),)
        assert parse_fault_spec("crash=2m").crash_times == ((0, 120_000.0),)
        assert parse_fault_spec("crash=500").crash_times == ((0, 500.0),)

    def test_repeated_entries_accumulate(self):
        plan = parse_fault_spec("media=1,media=2+3,crash=copy1,crash=copy9")
        assert plan.media_blocks == (1, 2, 3)
        assert plan.crash_after_copies == (1, 9)

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus=1",
            "transient",
            "transient=lots",
            "crash=copyX",
            "crash=day1",
            "crash=dayX@5m",
            "crash=5q",
            "degrade-action=explode",
            "transient=1.5",
            "retries=-1",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(spec)


class TestFaultPlan:
    def test_empty_plan(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(transient_rate=0.5).is_empty
        assert not FaultPlan(crash_after_copies=(1,)).is_empty

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=2.0).validate()
        with pytest.raises(ValueError):
            FaultPlan(max_retries=-1).validate()
        with pytest.raises(ValueError):
            FaultPlan(degrade_action="explode").validate()
        with pytest.raises(ValueError):
            FaultPlan(crash_times=((-1, 0.0),)).validate()

    def test_plan_is_hashable_and_frozen(self):
        plan = FaultPlan(seed=1)
        assert hash(plan) == hash(FaultPlan(seed=1))
        with pytest.raises(AttributeError):
            plan.seed = 2


class TestInjector:
    def test_same_seed_same_transient_sequence(self):
        plan = FaultPlan(seed=9, transient_rate=0.3)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        seq_a = [a.draw(5, True, 0.0) for __ in range(200)]
        seq_b = [b.draw(5, True, 0.0) for __ in range(200)]
        assert seq_a == seq_b
        assert TRANSIENT in seq_a

    def test_media_pins_win_over_transient(self):
        injector = FaultInjector(
            FaultPlan(media_blocks=(7,), transient_rate=1.0)
        )
        assert injector.draw(7, True, 0.0) == MEDIA
        assert injector.draw(8, True, 0.0) == TRANSIENT

    def test_claim_crash_times_fires_once(self):
        injector = FaultInjector(
            FaultPlan(crash_times=((0, 10.0), (0, 20.0), (2, 5.0)))
        )
        assert injector.claim_crash_times(0) == [10.0, 20.0]
        assert injector.claim_crash_times(0) == []
        assert injector.claim_crash_times(2) == [5.0]

    def test_bind_label_never_pins_table_home_blocks(self):
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
        table_home = label.block_table_home_blocks()[0]
        injector = FaultInjector(FaultPlan(media_blocks=(table_home,)))
        injector.bind_label(label)
        assert table_home not in injector.media_blocks

    def test_random_media_picks_reserved_data_blocks(self):
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
        injector = FaultInjector(FaultPlan(seed=3, random_media=4))
        injector.bind_label(label)
        data = set(label.reserved_data_blocks())
        assert len(injector.media_blocks) == 4
        assert injector.media_blocks <= data
        # Deterministic: same seed picks the same blocks.
        again = FaultInjector(FaultPlan(seed=3, random_media=4))
        again.bind_label(label)
        assert again.media_blocks == injector.media_blocks


class TestTypedErrors:
    def test_hierarchy(self):
        assert issubclass(BadAddressError, DriverError)
        assert issubclass(MediaError, DriverError)
        assert issubclass(DeviceTimeout, DriverError)

    def test_strategy_bad_size_names_block_and_device(self):
        driver = make_driver()
        driver.name = "toshiba0"
        request = read_request(5, 0.0)
        request.size_blocks = 4
        with pytest.raises(BadAddressError) as exc:
            driver.strategy(request, 0.0)
        assert "toshiba0" in str(exc.value)
        assert "logical block 5" in str(exc.value)

    def test_bcopy_bad_addresses_name_block_and_device(self):
        driver = make_driver()
        driver.name = "toshiba0"
        with pytest.raises(BadAddressError) as exc:
            driver.bcopy(0, 3, 0.0)  # block 3 is not in the reserved area
        message = str(exc.value)
        assert "toshiba0" in message and "3" in message


class TestDriverRetryPath:
    def test_transient_fault_retried_then_succeeds(self):
        driver = make_driver()
        driver.faults = ScriptedFaults([TRANSIENT, None])
        request = serve_one(driver, read_request(3, 0.0))
        assert not request.failed
        assert driver.fault_stats.transient_faults == 1
        assert driver.fault_stats.retries == 1
        assert driver.fault_stats.timeouts == 0
        stats = driver.perf_monitor.stats("read")
        assert stats.errors == 1 and stats.retries == 1

    def test_retry_costs_a_full_access_per_attempt(self):
        clean = make_driver()
        baseline = serve_one(clean, read_request(3, 0.0))
        faulty = make_driver()
        faulty.faults = ScriptedFaults([TRANSIENT, TRANSIENT, None])
        request = serve_one(faulty, read_request(3, 0.0))
        # Three attempts from the same arm position: the first pays the
        # seek, each retry pays at least rotation + transfer again.
        assert request.service_ms > baseline.service_ms
        assert request.complete_ms > baseline.complete_ms

    def test_bounded_retries_escalate_to_timeout(self):
        plan = FaultPlan(transient_rate=1.0, max_retries=2)
        driver = make_driver(plan)
        request = serve_one(driver, read_request(3, 0.0))
        assert request.failed
        assert driver.fault_stats.timeouts == 1
        assert driver.fault_stats.failed_requests == 1
        assert driver.fault_stats.retries == 2

    def test_failed_write_does_not_mutate_data(self):
        plan = FaultPlan(transient_rate=1.0, max_retries=0)
        driver = make_driver(plan)
        request = serve_one(driver, write_request(3, 0.0, tag="poison"))
        assert request.failed
        assert driver.read_data(3) is None

    def test_fault_free_run_leaves_fault_stats_untouched(self):
        driver = make_driver()
        serve_one(driver, read_request(3, 0.0))
        assert driver.fault_stats.transient_faults == 0
        assert driver.fault_stats.media_faults == 0
        assert driver.fault_stats.day_requests == 0
        assert driver.perf_monitor.stats("all").errors == 0


class TestMediaFallback:
    def rearranged_driver(self, media_blocks=()):
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
        driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
        ioctl = IoctlInterface(driver)
        reserved = ioctl.get_reserved_area().data_blocks[0]
        serve_one(driver, write_request(0, 0.0, tag="v0"))
        driver.bcopy(0, reserved, 100.0)
        if media_blocks:
            injector = FaultInjector(FaultPlan(media_blocks=media_blocks))
            injector.bind_label(label)
            driver.faults = injector
        return driver, reserved

    def test_media_error_falls_back_to_home_and_evicts(self):
        driver, reserved = self.rearranged_driver()
        driver, reserved = self.rearranged_driver(media_blocks=(reserved,))
        request = serve_one(driver, read_request(0, 200.0))
        assert not request.failed
        assert len(driver.block_table) == 0  # entry evicted
        assert driver.read_data(0) == "v0"  # served from the original home
        assert driver.fault_stats.fallback_serves == 1
        assert driver.fault_stats.evictions == 1

    def test_unredirected_media_error_fails_the_request(self):
        driver, __ = self.rearranged_driver()
        physical = driver.label.virtual_to_physical_block(9)
        injector = FaultInjector(FaultPlan(media_blocks=(physical,)))
        injector.bind_label(driver.label)
        driver.faults = injector
        request = serve_one(driver, read_request(9, 200.0))
        assert request.failed
        assert driver.fault_stats.failed_requests == 1

    def test_clean_keeps_entries_whose_move_out_fails(self):
        driver, reserved = self.rearranged_driver()
        serve_one(driver, write_request(0, 200.0, tag="v1"))  # dirty
        home = driver.block_table.entries()[0].original_block
        injector = FaultInjector(
            FaultPlan(media_blocks=(home,), max_retries=0)
        )
        injector.bind_label(driver.label)
        driver.faults = injector
        driver.clean(300.0)
        # The reserved copy is the only good copy; the entry must survive.
        assert len(driver.block_table) == 1
        assert driver.fault_stats.skipped_moves == 1
        assert driver.read_data(0) == "v1"


def fault_config(faults, hours=0.2, **kwargs):
    defaults = dict(
        profile=SYSTEM_FS_PROFILE.scaled(hours=hours),
        disk="toshiba",
        seed=3,
        num_blocks=64,
        faults=faults,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def day_fingerprint(result):
    return [
        (
            day.metrics.all.requests,
            day.metrics.all.mean_seek_time_ms,
            day.metrics.all.mean_service_ms,
            day.metrics.all.errors,
            day.metrics.all.retries,
        )
        for day in result.days
    ]


class TestCampaignDeterminism:
    SCHEDULE = [False, True, False]

    def test_same_fault_seed_identical_metrics(self):
        plan = FaultPlan(seed=11, transient_rate=0.01, max_retries=2)
        one = run_campaign(fault_config(plan), self.SCHEDULE)
        two = run_campaign(fault_config(plan), self.SCHEDULE)
        assert day_fingerprint(one) == day_fingerprint(two)
        assert any(day.metrics.all.errors for day in one.days)

    def test_different_fault_seed_differs(self):
        base = dict(transient_rate=0.01, max_retries=2)
        one = run_campaign(
            fault_config(FaultPlan(seed=11, **base)), self.SCHEDULE
        )
        two = run_campaign(
            fault_config(FaultPlan(seed=12, **base)), self.SCHEDULE
        )
        errors = lambda r: [d.metrics.all.errors for d in r.days]  # noqa: E731
        assert errors(one) != errors(two)

    def test_empty_plan_identical_to_no_plan(self):
        empty = run_campaign(fault_config(FaultPlan()), self.SCHEDULE)
        none = run_campaign(fault_config(None), self.SCHEDULE)
        assert day_fingerprint(empty) == day_fingerprint(none)
