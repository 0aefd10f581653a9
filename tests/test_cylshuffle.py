"""Tests for repro.core.cylshuffle — the cylinder-shuffling baseline."""

import pytest

from repro.core.analyzer import ReferenceStreamAnalyzer
from repro.core.cylshuffle import (
    CylinderShufflePlan,
    CylinderShuffler,
    cylinder_counts_from_blocks,
    plan_organ_pipe_shuffle,
)
from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.request import read_request, write_request


def make_driver():
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=0)
    return AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)


def serve(driver, request):
    completion = driver.strategy(request, request.arrival_ms)
    while completion is not None:
        __, completion = driver.complete(completion)
    return request


class TestPlanning:
    def test_hottest_cylinder_goes_to_middle(self):
        counts = {700: 100, 5: 50, 300: 10}
        plan = plan_organ_pipe_shuffle(counts, 815)
        assert plan.mapping[700] == 815 // 2

    def test_plan_is_a_permutation(self):
        plan = plan_organ_pipe_shuffle({1: 10, 2: 5}, 100)
        assert plan.is_permutation()
        assert len(plan.mapping) == 100

    def test_zero_cylinders_rejected(self):
        with pytest.raises(ValueError):
            plan_organ_pipe_shuffle({}, 0)

    def test_counts_from_blocks_respects_label(self):
        driver = make_driver()
        per_cyl = driver.disk.geometry.blocks_per_cylinder
        counts = cylinder_counts_from_blocks(
            {0: 3, per_cyl: 2, per_cyl + 1: 4}, driver
        )
        assert counts == {0: 3, 1: 6}


class TestShuffler:
    def test_rejects_rearranged_disk(self):
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
        driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
        with pytest.raises(ValueError):
            CylinderShuffler(driver)

    def test_requests_follow_the_shuffle(self):
        driver = make_driver()
        shuffler = CylinderShuffler(driver)
        per_cyl = driver.disk.geometry.blocks_per_cylinder
        hot_block = 700 * per_cyl + 3  # cylinder 700

        analyzer = ReferenceStreamAnalyzer()
        for __ in range(10):
            analyzer.observe(hot_block)
        plan = shuffler.plan_from_analyzer(analyzer)
        moved = shuffler.apply(plan)
        assert moved > 0

        request = serve(driver, read_request(hot_block, 0.0))
        assert request.redirected
        target_cyl = driver.disk.geometry.cylinder_of_block(
            request.target_block
        )
        assert target_cyl == 815 // 2
        # The FCFS counterfactual still reflects the original position.
        assert request.home_cylinder == 700

    def test_data_moves_with_the_shuffle(self):
        driver = make_driver()
        shuffler = CylinderShuffler(driver)
        per_cyl = driver.disk.geometry.blocks_per_cylinder
        block = 700 * per_cyl
        serve(driver, write_request(block, 0.0, tag="payload"))
        assert driver.read_data(block) == "payload"

        plan = plan_organ_pipe_shuffle({700: 99}, 815)
        shuffler.apply(plan)
        assert driver.read_data(block) == "payload"
        # The data physically lives at the remapped location now.
        assert driver.disk.read_data(407 * per_cyl) == "payload"

    def test_reshuffle_composes(self):
        """A second shuffle planned in original coordinates lands data
        correctly even though the disk is already shuffled."""
        driver = make_driver()
        shuffler = CylinderShuffler(driver)
        per_cyl = driver.disk.geometry.blocks_per_cylinder
        block = 700 * per_cyl + 1
        serve(driver, write_request(block, 0.0, tag="v1"))

        shuffler.apply(plan_organ_pipe_shuffle({700: 10}, 815))
        assert driver.read_data(block) == "v1"
        # Day two: cylinder 100 is hot now; 700 cools off.
        shuffler.apply(plan_organ_pipe_shuffle({100: 50, 700: 5}, 815))
        assert driver.read_data(block) == "v1"
        assert shuffler.shuffles_applied == 2

    def test_reset_restores_original_layout(self):
        driver = make_driver()
        shuffler = CylinderShuffler(driver)
        per_cyl = driver.disk.geometry.blocks_per_cylinder
        block = 700 * per_cyl
        serve(driver, write_request(block, 0.0, tag="home"))
        shuffler.apply(plan_organ_pipe_shuffle({700: 9}, 815))
        shuffler.reset()
        assert driver.cylinder_map is None
        assert driver.disk.read_data(block) == "home"

    def test_writes_through_shuffle_land_at_mapped_location(self):
        driver = make_driver()
        shuffler = CylinderShuffler(driver)
        per_cyl = driver.disk.geometry.blocks_per_cylinder
        block = 700 * per_cyl
        shuffler.apply(plan_organ_pipe_shuffle({700: 9}, 815))
        serve(driver, write_request(block, 0.0, tag="late"))
        assert driver.read_data(block) == "late"
        assert driver.disk.read_data(407 * per_cyl) == "late"

    def test_invalid_plan_rejected(self):
        driver = make_driver()
        shuffler = CylinderShuffler(driver)
        with pytest.raises(ValueError):
            shuffler.apply(CylinderShufflePlan({0: 1, 1: 1}))


class TestShuffleReducesSeeks:
    def test_shuffle_concentrates_hot_cylinders(self):
        """Two hot cylinders at opposite disk ends end up adjacent in the
        middle, collapsing the seek between them."""
        driver = make_driver()
        shuffler = CylinderShuffler(driver)
        per_cyl = driver.disk.geometry.blocks_per_cylinder
        block_a = 10 * per_cyl
        block_b = 800 * per_cyl

        serve(driver, read_request(block_a, 0.0))
        before = serve(driver, read_request(block_b, 100.0))
        assert before.seek_distance == 790

        shuffler.apply(plan_organ_pipe_shuffle({10: 100, 800: 90}, 815))
        serve(driver, read_request(block_a, 200.0))
        after = serve(driver, read_request(block_b, 300.0))
        assert after.seek_distance <= 1
