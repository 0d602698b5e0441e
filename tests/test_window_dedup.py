"""Window dedup: the column path for rows of exactly k nodes.

:func:`~repro.walks.windows.distinct_window_nodes` sorts rows of exactly
k entries (every d = 1 window) with a compare-exchange network over a
column copy, and wider rows with a row-wise sort.  Both must equal the
row-sort oracle (:func:`reference.row_sort_dedup`) bit for bit, on
read-only sliding-window views as well as on plain arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference import row_sort_dedup

from repro.walks.windows import _sorting_network, distinct_window_nodes, sliding_windows


def assert_same(node_rows: np.ndarray, k: int) -> None:
    valid, uniq = distinct_window_nodes(node_rows, k)
    want_valid, want_uniq = row_sort_dedup(node_rows, k)
    assert valid.dtype == bool and np.array_equal(valid, want_valid)
    assert uniq.dtype == want_uniq.dtype and uniq.shape == want_uniq.shape
    assert np.array_equal(uniq, want_uniq)
    assert uniq.flags.c_contiguous


def window_rows(k: int, steps: int, chains: int, nodes: int, seed: int) -> np.ndarray:
    """Read-only ``(steps * chains, k)`` rows of a d = 1 sliding view,
    as the accumulator builds them."""
    stream = np.random.default_rng(seed).integers(0, nodes, (steps + k - 1, chains, 1))
    rows = sliding_windows(stream, k)[:steps].reshape(steps * chains, k)
    assert not rows.flags.writeable
    return rows


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("nodes", [4, 12, 10_000], ids=["dense", "mixed", "sparse"])
def test_column_path_matches_row_sort_on_sliding_views(k, nodes):
    rows = window_rows(k, steps=200, chains=16, nodes=nodes, seed=k)
    before = rows.copy()
    assert_same(rows, k)
    assert np.array_equal(rows, before)  # the input is never written


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("width", [0, 1])
def test_empty_and_single_row_blocks(k, width):
    rows = window_rows(k, steps=1, chains=1, nodes=50, seed=1)[:width]
    assert rows.shape == (width, k)
    assert_same(rows, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_every_order_and_repeat_pattern(k):
    # All k**k rows over k symbols: every permutation and every tie.
    grid = np.indices((k,) * k).reshape(k, -1).T * 7
    assert_same(np.ascontiguousarray(grid), k)
    assert_same(np.asfortranarray(grid), k)


@pytest.mark.parametrize("k, m", [(3, 4), (4, 6), (2, 4)])
def test_wider_rows_keep_the_row_sort(k, m):
    rng = np.random.default_rng(m)
    assert_same(rng.integers(0, 9, (500, m)), k)


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
