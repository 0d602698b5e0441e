"""Window classification probes only the pairs the walk has not proven.

For d <= 2 a valid window's states are k - 1 edges of the graph that
span its k nodes (d = 1: the edges the walk crossed; d = 2: the states
themselves), so :func:`~repro.walks.windows.induced_bitmasks` sets those
bits without a ``has_edges`` probe.  These tests pin the shortcut to the
row-sort dedup plus every-pair oracle (:func:`reference.row_sort_dedup`,
:func:`reference.full_probe_bitmasks`) on real ``step_block`` windows —
the column path of k-node windows (d = 1, and d = k) with invalid
windows, all-invalid blocks and partial-row chain slices, and the row
path of wider ones — on a static CSR graph and on a delta overlay with
uncompacted flips, and count the probes a block and a vectorized run
issue.
"""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from reference import full_probe_bitmasks, row_sort_dedup

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


def walk_windows(graph, k, d, nb, steps=60, seed=0, cols=slice(None)):
    """Every ``(t, B, d, l)`` sliding window of a real ``step_block`` run,
    over the chains ``cols``."""
    engine = BatchedWalkEngine(
        graph, d, CHAINS, np.random.default_rng(seed), non_backtracking=nb
    )
    start = as_stream(engine.states().copy(), CHAINS, d)
    stream = np.concatenate([start, as_stream(engine.step_block(steps), CHAINS, d)])
    return sliding_windows(stream[:, cols], k - d + 1)


def assert_masks_equal_oracle(graph, windows, k):
    """Dedup and masks == the row-sort dedup plus every-pair probes;
    returns ``valid``."""
    t, b, d, l = windows.shape
    valid, uniq = distinct_window_nodes(windows, k)
    want_valid, want_uniq = row_sort_dedup(windows.reshape(t * b, d * l), k)
    assert np.array_equal(valid, want_valid) and np.array_equal(uniq, want_uniq)
    want = full_probe_bitmasks(graph, want_uniq, k)
    got = induced_bitmasks(graph, windows, valid, uniq)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    return valid


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
    windows = walk_windows(graph, k, d, nb)
    valid = assert_masks_equal_oracle(graph, windows, k)
    assert valid.any()
    # The valid windows alone, as one chain's block: every window valid.
    kept = windows.reshape(-1, d * (k - d + 1))[valid].reshape(-1, 1, d, k - d + 1)
    assert assert_masks_equal_oracle(graph, kept, k).all()


@pytest.mark.parametrize("backend", ["csr", "delta"])
@pytest.mark.parametrize("cols", [slice(5, 13), slice(0, 1), slice(31, 32)], ids=str)
@pytest.mark.parametrize("k, d", [(3, 1), (4, 1), (5, 1), (4, 2), (3, 3)])
def test_partial_row_slices_equal_full_probe(request, backend, k, d, cols):
    """Streamed snapshots open a row mid-way: a chain slice whose
    columns are copies, not views of the stream."""
    graph = request.getfixturevalue(backend)
    windows = walk_windows(graph, k, d, nb=False, cols=cols)
    assert_masks_equal_oracle(graph, windows, k)


@pytest.mark.parametrize("backend", ["csr", "delta"])
@pytest.mark.parametrize("nb", [False, True], ids=["srw", "nb"])
@pytest.mark.parametrize("k", [3, 4])
def test_d_equals_k_windows_equal_full_probe(request, backend, k, nb):
    """Plain SRW on G(k): k node columns with no proven pair."""
    graph = request.getfixturevalue(backend)
    windows = walk_windows(graph, k, k, nb, steps=30)
    assert windows.shape[2:] == (k, 1)
    assert assert_masks_equal_oracle(graph, windows, k).all()


def test_srw1_repeats_give_invalid_windows(csr):
    """Without NB a d = 1 walk steps back, so some windows repeat a node."""
    valid = assert_masks_equal_oracle(csr, walk_windows(csr, 3, 1, nb=False), 3)
    assert valid.any() and not valid.all()


@pytest.mark.parametrize("k", [3, 4, 5])
def test_all_invalid_block(csr, probe_counter, k):
    """A walk bouncing along one edge: no window has k distinct nodes,
    and classifying the block probes nothing."""
    u, v = next(iter(csr.edges()))
    stream = np.array([u, v] * 6)[:, None, None].repeat(CHAINS, axis=1)
    windows = sliding_windows(stream, k)
    assert not assert_masks_equal_oracle(csr, windows, k).any()
    valid, uniq = distinct_window_nodes(windows, k)
    probe_counter.clear()
    assert induced_bitmasks(csr, windows, valid, uniq).shape == (0,)
    assert sum(probe_counter) == 0


@pytest.mark.parametrize("nb", [False, True], ids=["srw", "nb"])
@pytest.mark.parametrize(
    "k, d, probes_per_window",
    [(3, 1, 1), (4, 1, 3), (5, 1, 6), (4, 2, 3), (5, 2, 6), (3, 3, 3), (4, 4, 6)],
)
def test_block_probes_per_valid_window(csr, probe_counter, k, d, nb, probes_per_window):
    """One block: C(k,2) - (k-1) probes per valid window for d <= 2, all
    C(k,2) for d = k; whole stream rows or a partial-row slice."""
    for cols in (slice(None), slice(3, 20)):
        windows = walk_windows(csr, k, d, nb, cols=cols)
        valid, uniq = distinct_window_nodes(windows, k)
        probe_counter.clear()
        induced_bitmasks(csr, windows, valid, uniq)
        assert valid.any()
        assert sum(probe_counter) == probes_per_window * int(valid.sum())


@pytest.mark.parametrize(
    "method, k, probes_per_window",
    [
        ("SRW1CSSNB", 3, 1),
        ("SRW1", 3, 1),
        ("SRW1", 4, 3),
        ("SRW1NB", 5, 6),
        ("SRW2CSS", 4, 3),
        ("SRW2", 5, 6),
        ("SRW3", 3, comb(3, 2)),
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
