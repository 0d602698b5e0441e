"""How the graph reaches ``run_tasks`` pool workers.

Workers receive the graph itself, as ``published`` yields it.  Every
graph kind must produce rows bit-identical to the serial run under both
fork (workers inherit the graph) and spawn (workers unpickle it), a
caller's shared graph must survive the pool, and CSR trials on a list
graph must convert once, in the parent.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.experiments.engine import (
    TrialTask,
    canonical_line,
    run_experiment,
    run_tasks,
)
from repro.experiments.spec import ExperimentSpec, resolve_graph
from repro.graphs import CSRGraph, MmapCSRGraph, SharedCSRGraph

SOURCE = "ba:200:3:2"


def _tasks(backend, n=4, budget=1500):
    return [
        TrialTask(
            index=i,
            trial=i,
            method="srw2css",
            k=4,
            budget=budget,
            seed=100 + i,
            seed_node=0,
            backend=backend,
        )
        for i in range(n)
    ]


def _mmap(tmp_path):
    CSRGraph.from_graph(resolve_graph(SOURCE)).save(tmp_path / "layout")
    return MmapCSRGraph.load(tmp_path / "layout")


#: case -> (graph factory, task backend)
CASES = {
    "list-graph-list-tasks": (lambda tmp: resolve_graph(SOURCE), "list"),
    "list-graph-csr-tasks": (lambda tmp: resolve_graph(SOURCE), "csr"),
    "csr": (lambda tmp: CSRGraph.from_graph(resolve_graph(SOURCE)), None),
    "mmap": (_mmap, "csr"),
    "shared": (lambda tmp: CSRGraph.from_graph(resolve_graph(SOURCE)).to_shared(), "csr"),
    "stream": (lambda tmp: resolve_graph("stream:200:3:2:4:8"), "csr"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_parallel_rows_equal_serial(case, start_method, tmp_path):
    make_graph, backend = CASES[case]
    graph = make_graph(tmp_path)
    tasks = _tasks(backend)
    try:
        serial = [canonical_line(r) for r in run_tasks(graph, tasks, jobs=1)]
        rows = run_tasks(graph, tasks, jobs=2)
        assert [canonical_line(r) for r in rows] == serial
    finally:
        if isinstance(graph, SharedCSRGraph):
            graph.close()
            graph.unlink()


def _spec_rows(backend, jobs):
    spec = ExperimentSpec(
        name="transport-parity",
        graph=SOURCE,
        k=4,
        methods=["srw2css"],
        budget=1500,
        trials=4,
        backend=backend,
    )
    return [canonical_line(r) for r in run_experiment(spec, jobs=jobs).rows]


class TestTransportParity:
    """Each id names a former transport; the case runs the graph form
    that transport used to carry through the one ``published`` path."""

    @pytest.mark.parametrize(
        "transport",
        ["object", "shared", "source+ba:200:3:2", "auto", "auto+ba:200:3:2"],
    )
    def test_parallel_rows_equal_serial(self, transport):
        if transport.endswith(SOURCE):
            # A spec names the graph by source string; run_experiment
            # resolves it once and hands the graph itself to the pool.
            backend = "list" if transport.startswith("source") else "csr"
            assert _spec_rows(backend, jobs=2) == _spec_rows(backend, jobs=1)
            return
        graph = resolve_graph(SOURCE)
        if transport == "object":
            graph = CSRGraph.from_graph(graph)
        elif transport == "shared":
            graph = CSRGraph.from_graph(graph).to_shared()
        tasks = _tasks("csr")
        try:
            serial = [canonical_line(r) for r in run_tasks(graph, tasks, jobs=1)]
            rows = run_tasks(graph, tasks, jobs=2)
            assert [canonical_line(r) for r in rows] == serial
        finally:
            if isinstance(graph, SharedCSRGraph):
                graph.close()
                graph.unlink()


def test_callers_shared_graph_survives_the_pool():
    """A pool over a caller's shared graph must not close or unlink it."""
    shared = CSRGraph.from_graph(resolve_graph(SOURCE)).to_shared()
    try:
        run_tasks(shared, _tasks("csr"), jobs=2)
        assert not shared.closed
        attached = CSRGraph.from_shared(shared.handle)
        assert attached == shared
        attached.close()
    finally:
        shared.close()
        shared.unlink()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the counting patch reaches pool workers through fork",
)
def test_csr_tasks_convert_once_in_the_parent(monkeypatch):
    """CSR trials on a list graph convert it in the parent: no worker
    calls ``CSRGraph.from_graph``."""
    graph = resolve_graph(SOURCE)
    tasks = _tasks("csr", n=6, budget=300)
    serial = [canonical_line(r) for r in run_tasks(graph, tasks, jobs=1)]

    parent = os.getpid()
    worker_calls = multiprocessing.Value("i", 0)
    real = CSRGraph.from_graph.__func__

    def counting(cls, g):
        if os.getpid() != parent:
            with worker_calls.get_lock():
                worker_calls.value += 1
        return real(cls, g)

    monkeypatch.setattr(CSRGraph, "from_graph", classmethod(counting))
    real_get_context = multiprocessing.get_context
    monkeypatch.setattr(
        multiprocessing,
        "get_context",
        lambda method=None: real_get_context(method or "fork"),
    )
    rows = run_tasks(graph, tasks, jobs=2)
    assert [canonical_line(r) for r in rows] == serial
    assert worker_calls.value == 0
