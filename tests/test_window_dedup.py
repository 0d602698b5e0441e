"""Window dedup: the column path for windows of exactly k node columns.

:func:`~repro.walks.windows.distinct_window_nodes` takes a
``(t, B, d, l)`` block of window states.  Windows of exactly k node
columns (every d = 1 window, and plain SRW on G(k)) are sorted
column-major by a compare-exchange network over one ``(k, W)`` copy;
wider windows keep a row-wise sort.  Both must equal the row-sort oracle
(:func:`reference.row_sort_dedup`) on the ``(W, d * l)`` node rows, bit
for bit, on read-only sliding-window views — whole rows and partial-row
slices of chains — as well as on plain arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference import row_sort_dedup

from repro.walks.windows import _sorting_network, distinct_window_nodes, sliding_windows


def assert_same(windows: np.ndarray, k: int) -> np.ndarray:
    t, b, d, l = windows.shape
    node_rows = windows.reshape(t * b, d * l)
    valid, uniq = distinct_window_nodes(windows, k)
    want_valid, want_uniq = row_sort_dedup(node_rows, k)
    assert valid.dtype == bool and np.array_equal(valid, want_valid)
    assert uniq.dtype == want_uniq.dtype and uniq.shape == want_uniq.shape
    assert np.array_equal(uniq, want_uniq)
    if d * l == k:  # each sorted column is one contiguous run
        assert uniq.T.flags.c_contiguous
    return valid


def stream_windows(
    k: int, d: int, steps: int, chains: int, nodes: int, seed: int, cols=slice(None)
) -> np.ndarray:
    """Read-only ``(steps, chains, d, l)`` sliding windows over a random
    ``(T, chains, d)`` stream, as the accumulator builds them."""
    l = k - d + 1
    stream = np.random.default_rng(seed).integers(0, nodes, (steps + l - 1, chains, d))
    windows = sliding_windows(stream[:, cols], l)[:steps]
    assert not windows.flags.writeable
    return windows


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("nodes", [4, 12, 10_000], ids=["dense", "mixed", "sparse"])
def test_column_path_matches_row_sort_on_sliding_views(k, nodes):
    windows = stream_windows(k, 1, steps=200, chains=16, nodes=nodes, seed=k)
    before = windows.copy()
    assert_same(windows, k)
    assert np.array_equal(windows, before)  # the input is never written


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("cols", [slice(3, 11), slice(0, 5), slice(15, 16)], ids=str)
def test_partial_row_slices(k, cols):
    """Streamed snapshots open a row mid-way: the chain slice is not a
    whole stream row, so its columns are not plain views."""
    windows = stream_windows(k, 1, steps=50, chains=16, nodes=12, seed=k, cols=cols)
    assert_same(windows, k)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("cols", [slice(None), slice(2, 9)], ids=["whole", "partial"])
def test_d_equals_k_windows_take_the_column_path(k, cols):
    """Plain SRW on G(k): one state of k nodes per window (l = 1)."""
    windows = stream_windows(k, k, steps=120, chains=12, nodes=9, seed=k, cols=cols)
    assert windows.shape[2:] == (k, 1)
    valid = assert_same(windows, k)
    assert valid.any() and not valid.all()


@pytest.mark.parametrize("k, d", [(3, 1), (4, 1), (3, 3), (4, 4)])
def test_all_invalid_block(k, d):
    # Every window's nodes come from two ids: fewer than k distinct.
    l = k - d + 1
    ids = np.array([7, 2])[(np.arange(8)[:, None, None] + np.arange(d)) % 2]
    stream = np.ascontiguousarray(np.broadcast_to(ids, (8, 6, d)))
    windows = sliding_windows(stream, l)
    valid = assert_same(windows, k)
    assert not valid.any()
    assert distinct_window_nodes(windows, k)[1].shape == (0, k)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("width", [0, 1])
def test_empty_and_single_row_blocks(k, width):
    windows = stream_windows(k, 1, steps=1, chains=1, nodes=50, seed=1)[:, :width]
    assert windows.shape == (1, width, 1, k)
    assert_same(windows, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_every_order_and_repeat_pattern(k):
    # All k**k rows over k symbols: every permutation and every tie, as
    # d = 1 windows (one chain) and as d = k states.
    grid = np.indices((k,) * k).reshape(k, -1).T * 7
    for rows in (np.ascontiguousarray(grid), np.asfortranarray(grid)):
        assert_same(rows[:, None, None, :], k)
        assert_same(rows[:, None, :, None], k)


@pytest.mark.parametrize("k, m", [(3, 4), (4, 6), (2, 4)])
def test_wider_rows_keep_the_row_sort(k, m):
    rows = np.random.default_rng(m).integers(0, 9, (500, m))
    for d in (1, 2):  # m = d * l node columns, more than k
        assert_same(rows.reshape(100, 5, d, m // d), k)


@pytest.mark.parametrize("k", range(2, 9))
def test_sorting_network_sorts_every_zero_one_row(k):
    # 0-1 principle: a comparator network sorting all 2^k binary rows
    # sorts every row.
    rows = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    for i, j in _sorting_network(k):
        lo = np.minimum(rows[:, i], rows[:, j])
        rows[:, j] = np.maximum(rows[:, i], rows[:, j])
        rows[:, i] = lo
    assert (np.diff(rows, axis=1) >= 0).all()
