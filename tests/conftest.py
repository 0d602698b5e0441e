"""Shared fixtures: small reference graphs used across the test suite,
plus the pinned hypothesis profiles.

Hypothesis profiles
-------------------
``dev`` (the default) explores fresh random examples every run — best
for finding new counterexamples locally.  ``ci`` is fully derandomized
(examples are a pure function of each test, no timing-sensitive
deadlines or health checks), so the property-based suites can gate CI
without ever flaking; the workflow selects it via
``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

from repro.graphs import Graph, load_dataset
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graphs.shared import SEGMENT_PREFIX

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def deadline():
    """``deadline(seconds)`` context manager: a block still running after
    ``seconds`` raises ``TimeoutError`` (SIGALRM), so a hang fails its
    test instead of stalling the suite."""

    @contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit


def own_segments(directory="/dev/shm") -> set:
    """Names of the shared-memory segments in ``directory`` that this
    test process created.

    A segment is named ``repro-<pid>-<hex>`` after the process that
    creates it, and only the test process itself creates any (daemon
    workers attach).  Counting this pid's names alone keeps a second
    process using the service on the same host from failing the
    leak guards.
    """
    prefix = f"{SEGMENT_PREFIX}{os.getpid()}-"
    try:
        return {f for f in os.listdir(directory) if f.startswith(prefix)}
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platforms
        return set()


@pytest.fixture(scope="session")
def segments():
    """:func:`own_segments`, for test modules (``conftest`` is not
    importable by name)."""
    return own_segments


@pytest.fixture(scope="session")
def figure1_graph() -> Graph:
    """The 4-node example graph of the paper's Figure 1.

    Nodes 1..4 (relabeled 0..3), edges {12, 13, 14, 23, 34}: two triangles
    {1,2,3} and {1,3,4} sharing edge 13, i.e. the chordal cycle (diamond).
    Several of the paper's worked examples use this graph.
    """
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])


@pytest.fixture(scope="session")
def karate() -> Graph:
    return load_dataset("karate")


@pytest.fixture(scope="session")
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture(scope="session")
def c6() -> Graph:
    return cycle_graph(6)


@pytest.fixture(scope="session")
def p5() -> Graph:
    return path_graph(5)


@pytest.fixture(scope="session")
def star4() -> Graph:
    return star_graph(4)


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    """Run the test's process pools under each start method.

    Fork workers inherit the graph handed to the pool initializer;
    spawn (and forkserver) workers unpickle it, so shared and mmap
    graphs re-attach through their ``__reduce__``.
    """
    real = multiprocessing.get_context
    monkeypatch.setattr(
        multiprocessing,
        "get_context",
        lambda method=None: real(method or request.param),
    )
    return request.param
