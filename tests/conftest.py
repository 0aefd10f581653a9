"""Shared fixtures."""

from contextlib import contextmanager

import pytest

from repro.sim import vector


class _NoEligibleDevice(vector.BatchPlanner):
    """A batch planner that admits no device: with it the engine runs
    exactly its scalar (``fast=False``) loops."""

    def __init__(self, sim):
        self.sim = sim
        self.eligible = {}
        self.contexts = {}
        self._ctx_list = ()


@pytest.fixture
def scalar_engine(monkeypatch):
    """A context manager that runs its body on the scalar reference
    engine instead of the batch kernel, wherever the body builds its
    simulations, forked fleet workers included (they inherit the
    replaced planner).  ``with scalar_engine(): ...``"""

    @contextmanager
    def scalar():
        with monkeypatch.context() as patch:
            patch.setattr(vector, "BatchPlanner", _NoEligibleDevice)
            yield

    return scalar
