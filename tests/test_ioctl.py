"""Tests for repro.driver.ioctl — the user/kernel boundary."""

import pytest

from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import TOSHIBA_MK156F
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.ioctl import IoctlInterface
from repro.driver.request import read_request


@pytest.fixture
def ioctl():
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=48)
    driver = AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
    return IoctlInterface(driver)


def serve_one(driver, request):
    completion = driver.strategy(request, request.arrival_ms)
    while completion is not None:
        __, completion = driver.complete(completion)


class TestMonitoringIoctls:
    def test_read_requests_clears_table(self, ioctl):
        serve_one(ioctl.driver, read_request(3, 0.0))
        assert ioctl.read_requests() == [3]
        assert ioctl.read_requests() == []

    def test_read_stats_clears_tables(self, ioctl):
        serve_one(ioctl.driver, read_request(3, 0.0))
        tables = ioctl.read_stats()
        assert tables["read"].requests == 1
        assert ioctl.read_stats()["read"].requests == 0


class TestMovementIoctls:
    def test_bcopy_and_clean(self, ioctl):
        reserved = ioctl.get_reserved_area().data_blocks[0]
        ioctl.bcopy(0, reserved, now_ms=0.0)
        assert len(ioctl.driver.block_table) == 1
        ioctl.clean(now_ms=10.0)
        assert len(ioctl.driver.block_table) == 0


class TestGeometryIoctls:
    def test_reserved_area_info(self, ioctl):
        info = ioctl.get_reserved_area()
        assert info.start_cylinder == 383
        assert info.cylinders == 48
        assert info.capacity_blocks == len(info.data_blocks)
        assert info.center_cylinder == 383 + 24

    def test_reserved_area_requires_rearranged_disk(self):
        label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=0)
        plain = IoctlInterface(
            AdaptiveDiskDriver(disk=Disk(TOSHIBA_MK156F), label=label)
        )
        with pytest.raises(ValueError):
            plain.get_reserved_area()
