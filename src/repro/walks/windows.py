"""Vectorized window classification for batched multi-chain walks.

A batched run produces *time-major state blocks* — arrays of shape
``(steps, B)`` (d = 1) or ``(steps, B, 2)`` (d = 2) from
:meth:`~repro.walks.batched.BatchedWalkEngine.step_block`.  Algorithm 1
turns every run of ``l`` consecutive states of one chain into a window,
keeps the windows covering exactly k distinct nodes, and classifies each
survivor by the labeled bitmask of its induced subgraph.  Doing that per
window in Python is what kept CSS estimation an order of magnitude
behind the vectorized walk kernels; this module does the whole block at
once:

* :func:`sliding_windows` — a zero-copy ``(t, B, d, l)`` view over a
  state stream, one sliding window per (time, chain) pair;
* :func:`distinct_window_nodes` — keeps only windows covering exactly k
  distinct nodes, and returns their sorted node lists;
* :func:`induced_bitmasks` — the labeled induced-subgraph bitmask of
  every surviving window via the CSR backend's batched ``has_edges``
  (one probe-ordered search of the global edge-key array per probed
  pair — no Python per-edge loops).  For d <= 2 the window's own states
  prove k - 1 of its C(k, 2) pairs adjacent (:func:`walk_edge_columns`),
  so only the remaining pairs are probed: 1 probe per window at k = 3, 3
  at k = 4, 6 at k = 5, instead of 3, 6 and 10;
* :func:`state_degrees` — G(d) degrees of whole state arrays (closed
  forms for d <= 2, the swap-frontier counts of deduplicated rows for
  d >= 3),
  with the NB-SRW nominal-degree variant.

Both window functions take the ``(t, B, d, l)`` window block itself and
split it two ways.  Windows of exactly k node columns — every d = 1
window, and the l = 1 windows of plain SRW on G(k) — run column-major:
column ``j`` of a d = 1 block is the stream's rows ``j .. j + t - 1``
flattened, a view when the block spans whole stream rows.  Dedup sorts
one ``(k, W)`` copy of the columns in place with a compare-exchange
network; the bitmask ranks each original column among its window's
sorted nodes once and ORs in one bit per column pair — from the walk
when :func:`walk_edge_columns` proves the pair, else from one
``has_edges`` call on the two columns.  Wider windows (d = 2 … k - 1)
are copied to ``(W, d * l)`` node rows, sorted row-wise, and probed
label pair by label pair where the walk left the pair unproven.  Both
paths read a label pair's bit from one flat rank -> bit table.

Everything here is estimator-agnostic: the functions know about graphs,
states and bitmasks but not about alpha tables or CSS weights, so the
module sits with the walk kernels (below ``core``) and both the basic
and the CSS accumulation paths in :mod:`repro.core.estimator` share it.

Bitmask convention: for the sorted distinct node list ``n_0 < … <
n_{k-1}``, bit ``b`` of the mask is the adjacency of the pair
``(n_i, n_j)`` with ``(i, j)`` the ``b``-th entry of
:func:`label_pairs` — identical to Algorithm 1's per-window bit layout and to
:func:`repro.graphlets.isomorphism` helpers, so masks feed straight into
``classify_bitmask`` / ``css_templates``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..relgraph.vectorized import vector_space


@lru_cache(maxsize=None)
def label_pairs(k: int) -> Tuple[Tuple[int, int], ...]:
    """Label-position pairs ``(i, j)``, ``i < j``, in bit order."""
    return tuple((i, j) for i in range(k) for j in range(i + 1, k))


def as_stream(block: np.ndarray, chains: int, d: int) -> np.ndarray:
    """Normalize engine output to a ``(steps, B, d)`` state stream.

    ``step_block`` returns ``(steps, B)`` for d = 1 and ``(steps, B, 2)``
    for d = 2; a single ``states()`` snapshot reshapes the same way with
    ``steps = 1``.
    """
    return block.reshape(-1, chains, d)


def sliding_windows(stream: np.ndarray, l: int) -> np.ndarray:
    """All length-``l`` sliding windows of a ``(T, B, d)`` state stream.

    Returns a zero-copy view of shape ``(T - l + 1, B, d, l)``: entry
    ``[w, b]`` is chain ``b``'s window starting at stream row ``w``
    (window axis last, per NumPy's ``sliding_window_view``).
    """
    if stream.shape[0] < l:
        raise ValueError(
            f"stream has {stream.shape[0]} rows; need at least l={l} for one window"
        )
    return np.lib.stride_tricks.sliding_window_view(stream, l, axis=0)


def _node_columns(windows: np.ndarray) -> List[np.ndarray]:
    """The ``m = d * l`` node columns of a ``(t, B, d, l)`` window block.

    Column ``c`` is the ``(t * B,)`` array of entry ``c`` of every
    window's node row, windows in (time, chain) order; node rows list
    their states d-major, so state ``p``'s nodes are columns ``p, l + p,
    …``.  Each column is a view of the stream when the block spans whole
    stream rows (for d = 1, column ``j`` is ``stream[j : j + t]``
    flattened); a partial-row slice of chains is copied once.
    """
    t, b, d, l = windows.shape
    grid = windows.transpose(2, 3, 0, 1).reshape(d, l, t * b)
    return [grid[i, p] for i in range(d) for p in range(l)]


def distinct_window_nodes(
    windows: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Filter a block of windows down to the valid k-node ones.

    ``windows`` is a ``(t, B, d, l)`` block of window states — the
    :func:`sliding_windows` view of a state stream, or a slice of it —
    holding ``W = t * B`` windows whose node rows are the ``m = d * l``
    ids their states cover.  Returns ``(valid, uniq)``: the ``(W,)`` flags
    of the windows covering exactly k distinct nodes, and the
    ``(valid.sum(), k)`` array of their sorted distinct nodes — the exact
    node lists Algorithm 1's per-window loop derives from its window's
    node multiset.

    Windows of exactly k node columns (every d = 1 window, and plain SRW
    on G(k)) run column-major: one ``(k, W)`` copy of the columns is
    sorted in place by the compare-exchange network
    :func:`_sorting_network`, a window is valid iff adjacent sorted
    columns differ, and ``uniq`` is the transposed view of the sorted
    columns — so ``uniq[:, j]`` is contiguous.  Wider windows are copied
    to ``(W, m)`` rows and keep the row-wise sort plus run-length dedup,
    which measured faster than a network there.  ``windows`` is never
    written (a sliding view is read-only).
    """
    t, b, d, l = windows.shape
    if d * l == k:
        # The k node columns as one private (k, W) copy, sorted in place.
        srt = np.array(windows.transpose(2, 3, 0, 1), order="C").reshape(k, t * b)
        low = np.empty(t * b, dtype=srt.dtype)
        for i, j in _sorting_network(k):
            np.minimum(srt[i], srt[j], out=low)
            np.maximum(srt[i], srt[j], out=srt[j])
            srt[i] = low
        valid = np.ones(t * b, dtype=bool)
        for j in range(k - 1):
            valid &= srt[j] != srt[j + 1]
        return valid, (srt if valid.all() else srt.compress(valid, axis=1)).T
    srt = np.sort(windows.reshape(t * b, d * l), axis=1)
    fresh = np.ones(srt.shape, dtype=bool)
    fresh[:, 1:] = srt[:, 1:] != srt[:, :-1]
    valid = fresh.sum(axis=1) == k
    uniq = srt[valid][fresh[valid]].reshape(-1, k)
    return valid, uniq


@lru_cache(maxsize=None)
def _sorting_network(k: int) -> Tuple[Tuple[int, int], ...]:
    """Compare-exchange pairs ``(i, j)``, ``i < j``, that sort k columns:
    odd-even transposition, k rounds of disjoint neighbour pairs."""
    return tuple((i, i + 1) for r in range(k) for i in range(r % 2, k - 1, 2))


@lru_cache(maxsize=None)
def walk_edge_columns(d: int, l: int) -> Tuple[Tuple[int, int], ...]:
    """Column pairs of a window node row that the walk proves adjacent.

    A node row lists its ``l`` states d-major (:func:`_node_columns`):
    state ``p``'s nodes sit at columns ``p, l + p, …``.  For d = 1
    consecutive states are the two ends of the edge the walk just
    crossed, columns ``(p, p + 1)``; for d = 2 every state is an edge,
    columns ``(p, l + p)``.  In a valid window these k - 1 edges span its
    k nodes.  For d >= 3 a state is a connected d-subgraph whose edges
    the row does not name: no pair is proven.
    """
    if d == 1:
        return tuple((p, p + 1) for p in range(l - 1))
    if d == 2:
        return tuple((p, l + p) for p in range(l))
    return ()


@lru_cache(maxsize=None)
def _pair_bit_table(k: int) -> np.ndarray:
    """Flat ``(k * k,)`` table: entry ``i * k + j`` is the mask bit of
    labels ``i, j`` (0 on the diagonal)."""
    table = np.zeros((k, k), dtype=np.int64)
    for bit, (i, j) in enumerate(label_pairs(k)):
        table[i, j] = table[j, i] = 1 << bit
    return table.reshape(-1)


def _label_ranks(uniq: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Label of every entry of a node column: its rank in its window's
    ``uniq`` row, as ``int8``.  Every entry is one of the row's sorted
    distinct nodes, so the rank is the count of ``uniq[:, 1:]`` entries
    at most equal to it."""
    rank = np.zeros(uniq.shape[0], dtype=np.int8)
    for j in range(1, uniq.shape[1]):
        rank += uniq[:, j] <= col
    return rank


def _pair_bits(rank_a: np.ndarray, rank_b: np.ndarray, k: int) -> np.ndarray:
    """The mask bit of every label pair ``(rank_a[w], rank_b[w])``.

    ``int8`` codes ``rank_a * k + rank_b`` stay below ``k * k``, exact
    for every k a classification table covers."""
    return _pair_bit_table(k).take(rank_a * k + rank_b)


def _valid_columns(windows: np.ndarray, valid: np.ndarray) -> List[np.ndarray]:
    """:func:`_node_columns` of the valid windows only."""
    columns = _node_columns(windows)
    if valid.all():
        return columns
    keep = np.flatnonzero(valid)
    return [col.take(keep) for col in columns]


def _proven_bits(
    uniq: np.ndarray,
    windows: np.ndarray,
    valid: np.ndarray,
    pairs: Tuple[Tuple[int, int], ...],
) -> np.ndarray:
    """Mask bits of every ``uniq`` row that the walk-proven column
    ``pairs`` set; all zero when nothing is proven."""
    proven = np.zeros(uniq.shape[0], dtype=np.int64)
    if not pairs:
        return proven
    k = uniq.shape[1]
    # For d <= 2 every column is in a proven pair.
    ranks = [_label_ranks(uniq, col) for col in _valid_columns(windows, valid)]
    for a, b in pairs:
        proven |= _pair_bits(ranks[a], ranks[b], k)
    return proven


def induced_bitmasks(
    graph, windows: np.ndarray, valid: np.ndarray, uniq: np.ndarray
) -> np.ndarray:
    """Labeled induced-subgraph bitmask of every valid window of a G(d) walk.

    ``windows`` is the ``(t, B, d, l)`` window block and ``valid``,
    ``uniq`` the :func:`distinct_window_nodes` result for it.  The pairs
    :func:`walk_edge_columns` proves adjacent are set without a probe;
    the rest are answered by batched ``graph.has_edges`` calls over the
    valid windows.  For d <= 2 that leaves C(k, 2) - (k - 1) probes per
    window (1, 3 and 6 at k = 3, 4 and 5); for d >= 3 all C(k, 2).  The
    masks are those of probing every pair: every walk edge is an edge of
    ``graph``.  ``graph`` must expose the vectorized probe (the CSR
    backend).  Bit order follows :func:`label_pairs`, matching
    Algorithm 1's per-window classification.

    Windows of exactly k node columns are classified column by column:
    each column's label rank is computed once, and each column pair —
    whose two labels differ in a valid window — sets the bit of its label
    pair, from the walk when proven, else from one ``has_edges`` call on
    the two columns.  Wider windows probe label pair by label pair, over
    the windows where the walk left that pair unproven.
    """
    d, l = windows.shape[2:]
    k = uniq.shape[1]
    pairs = walk_edge_columns(d, l)
    if d * l == k:
        columns = _valid_columns(windows, valid)
        ranks = [_label_ranks(uniq, col) for col in columns]
        bits = np.zeros(uniq.shape[0], dtype=np.int64)
        for a, b in label_pairs(k):
            bit = _pair_bits(ranks[a], ranks[b], k)
            if (a, b) in pairs:
                bits |= bit
            else:
                np.bitwise_or(bits, bit, out=bits, where=graph.has_edges(columns[a], columns[b]))
        return bits
    bits = _proven_bits(uniq, windows, valid, pairs)
    for bit, (i, j) in enumerate(label_pairs(k)):
        unknown = (bits & (1 << bit)) == 0
        if not unknown.any():
            continue
        rows = slice(None) if unknown.all() else np.flatnonzero(unknown)
        bits[rows] |= graph.has_edges(uniq[rows, i], uniq[rows, j]).astype(np.int64) << bit
    return bits


def state_degrees(
    graph, states: np.ndarray, d: int, nominal: bool = False
) -> np.ndarray:
    """G(d) degree of every state in an ``(..., d)`` id array.

    For d <= 2 this uses the closed forms the paper recommends walking
    with — ``deg(v)`` for d = 1, ``deg(u) + deg(v) - 2`` for d = 2 —
    gathered from the backend's ``degrees_array``.  For d >= 3 the block
    goes through :meth:`VectorSubgraphSpace.frontier
    <repro.relgraph.vectorized.VectorSubgraphSpace.frontier>`, which sorts
    each state's ``d`` CSR rows once and counts the swap candidates per
    position (rows are deduplicated, so the heavily repeated middle states
    of overlapping windows are each counted once); the result equals
    ``len(SubgraphSpace.neighbors(graph, state))`` exactly, which is what
    keeps vectorized CSS weights bit-identical to ``sampling_weight``.
    ``nominal=True`` applies the NB-SRW nominal degree
    ``d' = max(d - 1, 1)`` (§4.2) elementwise, matching
    :func:`repro.core.expanded_chain.nominal_degree`.

    Raises ``ValueError`` when the last axis of ``states`` is not ``d``:
    a mis-shaped block would otherwise read only its first columns.
    """
    if d < 1:
        raise ValueError(f"state degrees need d >= 1, got d={d}")
    if states.shape[-1:] != (d,):
        raise ValueError(
            f"states of shape {states.shape} are not G({d}) states: "
            f"expected shape (..., {d})"
        )
    if d == 1:
        out = graph.degrees_array[states[..., 0]]
    elif d == 2:
        degs = graph.degrees_array
        out = degs[states[..., 0]] + degs[states[..., 1]] - 2
    else:
        out = vector_space(d).degrees(graph, states)
    if nominal:
        out = np.maximum(out - 1, 1)
    return out
