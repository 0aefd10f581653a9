"""Shared fixtures."""

import gc
import multiprocessing
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.sim import vector


class _NoEligibleDevice(vector.BatchPlanner):
    """A batch planner that admits no device: with it the engine runs
    exactly its scalar loops."""

    def __init__(self, sim):
        self.sim = sim
        self.eligible = {}
        self.contexts = {}
        self._ctx_list = ()


@pytest.fixture(scope="session")
def scalar_engine():
    """A context manager that runs its body on the scalar reference
    engine instead of the batch kernel, wherever the body builds its
    simulations, forked fleet workers included (they inherit the
    replaced planner).  ``with scalar_engine(): ...``

    On the scalar engine ``Simulation.run()`` returns every request it
    completes, so tests that read the request objects run under it.
    The fixture holds no state (each ``with`` patches and restores), so
    Hypothesis tests may share it across examples."""

    @contextmanager
    def scalar():
        with mock.patch.object(vector, "BatchPlanner", _NoEligibleDevice):
            yield

    return scalar


@pytest.fixture(scope="module", autouse=True)
def no_child_left_running():
    """Fail the test module that leaves a child process running (a
    day-ahead generator worker, a pool worker), and stop the child there
    so that the next module starts clean.  Experiments dropped in a
    reference cycle stop their workers at the collection first."""
    yield
    gc.collect()
    children = multiprocessing.active_children()
    running = ", ".join(f"{child.name} (pid {child.pid})" for child in children)
    for child in children:
        child.kill()
        child.join(timeout=10.0)
    if children:
        pytest.fail(f"the module left child processes running: {running}")
