"""Window classification probes only the pairs the walk has not proven.

For d <= 2 a valid window's states are k - 1 edges of the graph that
span its k nodes (d = 1: the edges the walk crossed; d = 2: the states
themselves), so :func:`~repro.walks.windows.induced_bitmasks` sets those
bits without a ``has_edges`` probe.  These tests pin the shortcut to the
every-pair oracle (:func:`reference.full_probe_bitmasks`) on real
``step_block`` windows, on a static CSR graph and on a delta overlay with
uncompacted flips, and count the probes a vectorized run issues.
"""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from reference import full_probe_bitmasks

from repro.core.alpha import alpha_table
from repro.core.estimator import MethodSpec, _VectorizedAccumulator, split_budget
from repro.graphs import CSRGraph, DeltaCSRGraph, barabasi_albert
from repro.walks import BatchedWalkEngine
from repro.walks.windows import (
    as_stream,
    distinct_window_nodes,
    induced_bitmasks,
    sliding_windows,
    walk_edge_columns,
)

CHAINS = 32


@pytest.fixture(scope="module")
def csr() -> CSRGraph:
    return CSRGraph.from_graph(barabasi_albert(300, 3, seed=1))


@pytest.fixture(scope="module")
def delta(csr) -> DeltaCSRGraph:
    """An overlay whose flips are still in the log (never compacted)."""
    overlay = DeltaCSRGraph(csr)
    rng = np.random.default_rng(5)
    edges = np.array(list(csr.edges()))
    dels = [tuple(e) for e in edges[rng.choice(len(edges), 40, replace=False)]]
    ins = []
    while len(ins) < 40:
        u, v = sorted(int(x) for x in rng.choice(csr.num_nodes, 2, replace=False))
        if not csr.has_edge(u, v) and (u, v) not in ins:
            ins.append((u, v))
    overlay.apply(inserts=ins, deletes=dels)
    assert overlay.delta_edges == 80
    return overlay


def walk_windows(graph, k, d, nb, steps=60, seed=0):
    """Node rows of every sliding window of a real ``step_block`` run."""
    engine = BatchedWalkEngine(
        graph, d, CHAINS, np.random.default_rng(seed), non_backtracking=nb
    )
    start = as_stream(engine.states().copy(), CHAINS, d)
    stream = np.concatenate([start, as_stream(engine.step_block(steps), CHAINS, d)])
    l = k - d + 1
    return sliding_windows(stream, l).reshape(-1, d * l)


def test_proven_columns():
    assert walk_edge_columns(1, 4) == ((0, 1), (1, 2), (2, 3))
    assert walk_edge_columns(2, 3) == ((0, 3), (1, 4), (2, 5))
    assert walk_edge_columns(3, 2) == ()


@pytest.mark.parametrize("backend", ["csr", "delta"])
@pytest.mark.parametrize("nb", [False, True], ids=["srw", "nb"])
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("d", [1, 2])
def test_masks_equal_full_probe(request, backend, d, k, nb):
    graph = request.getfixturevalue(backend)
    node_rows = walk_windows(graph, k, d, nb)
    valid, uniq = distinct_window_nodes(node_rows, k)
    assert valid.any()
    want = full_probe_bitmasks(graph, uniq, k)
    got = induced_bitmasks(graph, uniq, k, d, node_rows, valid)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    kept = node_rows[valid]
    all_valid = np.ones(len(kept), dtype=bool)
    assert np.array_equal(induced_bitmasks(graph, uniq, k, d, kept, all_valid), want)


@pytest.fixture
def probe_counter(monkeypatch):
    """Count every id pair ``CSRGraph.has_edges`` is asked about."""
    probes = []
    has_edges = CSRGraph.has_edges

    def counting(self, us, vs):
        probes.append(len(us))
        return has_edges(self, us, vs)

    monkeypatch.setattr(CSRGraph, "has_edges", counting)
    return probes


@pytest.mark.parametrize(
    "method, k, probes_per_window",
    [
        ("SRW1CSSNB", 3, 1),
        ("SRW1", 4, 3),
        ("SRW2CSS", 4, 3),
        ("SRW2", 5, 6),
        ("SRW3", 4, comb(4, 2)),
    ],
)
def test_probes_per_valid_window(csr, probe_counter, method, k, probes_per_window):
    """d <= 2: C(k,2) - (k-1) probes per valid window; d = 3: all C(k,2)."""
    spec = MethodSpec.parse(method, k)
    budgets = split_budget(6 * CHAINS + 5, CHAINS)
    engine = BatchedWalkEngine(
        csr, spec.d, CHAINS, np.random.default_rng(3), non_backtracking=spec.nb
    )
    acc = _VectorizedAccumulator(
        csr, spec, alpha_table(k, spec.d), budgets, engine, burn_in=4
    )
    probe_counter.clear()
    acc.advance(acc.total)
    assert acc.valid_samples > 0
    if spec.d <= 2:
        assert probes_per_window == comb(k, 2) - (k - 1)
    assert sum(probe_counter) == probes_per_window * acc.valid_samples
