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
  distinct nodes.  When a window row has exactly k entries (every d = 1
  window) its columns go through a compare-exchange sorting network and
  a row is valid iff adjacent sorted columns differ; longer rows get a
  row-wise sort + run-length dedup;
* :func:`induced_bitmasks` — the labeled induced-subgraph bitmask of
  every surviving window via the CSR backend's batched ``has_edges``
  (one probe-ordered search of the global edge-key array per label pair
  — no Python per-edge loops).  For d <= 2 the window's own states prove
  k - 1 of its C(k, 2) pairs adjacent (:func:`walk_edge_columns`), so
  only the remaining pairs are probed: 1 probe per window at k = 3, 3 at
  k = 4, 6 at k = 5, instead of 3, 6 and 10;
* :func:`state_degrees` — G(d) degrees of whole state arrays (closed
  forms for d <= 2, the swap-frontier counts of deduplicated rows for
  d >= 3),
  with the NB-SRW nominal-degree variant.

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
from typing import Tuple

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


def distinct_window_nodes(
    node_rows: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Filter window node multisets down to valid k-node windows.

    ``node_rows`` is ``(W, m)`` — one row per window, the multiset of the
    ``m = d * l`` node ids its states cover.  Returns ``(valid, uniq)``:
    ``valid`` flags the rows covering exactly k distinct nodes and
    ``uniq`` is the ``(valid.sum(), k)`` array of their sorted distinct
    nodes — the exact node lists Algorithm 1's per-window loop derives
    from its window's node multiset.

    Rows of exactly k entries are sorted column-wise by
    :func:`_sorting_network` on a private copy (``node_rows`` may be a
    read-only view), and ``uniq`` is the sorted rows themselves; wider
    rows keep the row-wise sort, which measured faster than a network
    there.
    """
    if node_rows.shape[1] == k:
        # Column-major copy: each compare-exchange streams two contiguous
        # columns; the rows handed back are C-ordered again.
        srt = np.array(node_rows, order="F")
        cols = [srt[:, j] for j in range(k)]
        low = np.empty(srt.shape[0], dtype=srt.dtype)
        for i, j in _sorting_network(k):
            np.minimum(cols[i], cols[j], out=low)
            np.maximum(cols[i], cols[j], out=cols[j])
            cols[i][...] = low
        valid = np.ones(srt.shape[0], dtype=bool)
        for j in range(k - 1):
            valid &= cols[j] != cols[j + 1]
        return valid, np.ascontiguousarray(srt) if valid.all() else srt[valid]
    srt = np.sort(node_rows, axis=1)
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

    A node row lists its ``l`` states d-major (``sliding_windows``
    reshaped to ``(W, d * l)``): state ``p``'s nodes sit at columns
    ``p, l + p, …``.  For d = 1 consecutive states are the two ends of
    the edge the walk just crossed, columns ``(p, p + 1)``; for d = 2
    every state is an edge, columns ``(p, l + p)``.  In a valid window
    these k - 1 edges span its k nodes.  For d >= 3 a state is a
    connected d-subgraph whose edges the row does not name: no pair is
    proven.
    """
    if d == 1:
        return tuple((p, p + 1) for p in range(l - 1))
    if d == 2:
        return tuple((p, l + p) for p in range(l))
    return ()


@lru_cache(maxsize=None)
def _pair_bit_table(k: int) -> np.ndarray:
    """``(k, k)`` table: entry ``[i, j]`` is the mask bit of labels ``i, j``."""
    table = np.zeros((k, k), dtype=np.int64)
    for bit, (i, j) in enumerate(label_pairs(k)):
        table[i, j] = table[j, i] = 1 << bit
    return table


def _proven_bits(
    uniq: np.ndarray, k: int, d: int, node_rows: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Mask bits of every ``uniq`` row that its walk states prove set.

    A column's label is its rank among the row's sorted distinct nodes
    (an ``int8`` count of smaller entries); :func:`_pair_bit_table` maps
    two ranks to their pair's bit.  All zero when nothing is proven.
    """
    proven = np.zeros(uniq.shape[0], dtype=np.int64)
    pairs = walk_edge_columns(d, k - d + 1)
    if not pairs:
        return proven
    rows = slice(None) if valid.all() else np.flatnonzero(valid)
    ranks = []
    for col in range(node_rows.shape[1]):  # for d <= 2 every column is paired
        nodes = node_rows[rows, col]
        rank = np.zeros(uniq.shape[0], dtype=np.int8)
        for j in range(k):
            rank += uniq[:, j] < nodes
        ranks.append(rank)
    table = _pair_bit_table(k)
    for a, b in pairs:
        proven |= table[ranks[a], ranks[b]]
    return proven


def induced_bitmasks(
    graph,
    uniq: np.ndarray,
    k: int,
    d: int,
    node_rows: np.ndarray,
    valid: np.ndarray,
) -> np.ndarray:
    """Labeled induced-subgraph bitmask of every valid window of a G(d) walk.

    ``node_rows`` are the ``(W, d * l)`` window node rows and ``valid``
    the :func:`distinct_window_nodes` mask that produced the sorted
    k-node rows ``uniq``.  The pairs :func:`walk_edge_columns` proves
    adjacent are set without a probe; every other label pair is answered
    by one batched ``graph.has_edges`` call over the rows where it is
    still unknown (no call when there are none).  For d <= 2 that leaves
    C(k, 2) - (k - 1) probes per window; for d >= 3 all C(k, 2).  The
    masks are those of probing every pair: every walk edge is an edge of
    ``graph``.  ``graph`` must expose the vectorized probe (the CSR
    backend).  Bit order follows :func:`label_pairs`, matching
    Algorithm 1's per-window classification.
    """
    bits = _proven_bits(uniq, k, d, node_rows, valid)
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
