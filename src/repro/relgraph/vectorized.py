"""Vectorized walk spaces over the CSR backend: whole blocks of chains.

The serial :mod:`repro.relgraph.spaces` advance one chain at a time; the
classes here advance **B chain states per NumPy call** and are what the
batched engine (:class:`repro.walks.batched.BatchedWalkEngine`) steps
through.  Three spaces cover every G(d):

* :class:`VectorNodeSpace` (d = 1) and :class:`VectorEdgeSpace` (d = 2)
  lift the paper's O(1) neighbor draws to fancy-indexing gathers over the
  CSR ``indptr``/``indices`` arrays, read once per engine block.  NB
  redraws, round by round, only the lanes that drew the previous state:
  the RNG use of the loops ``tests/reference.py`` keeps;
* :class:`VectorSubgraphSpace` (d >= 3) vectorizes §5's swap-one-node
  neighbor structure for a whole block of states at once.  One sorted
  pass over the ``d`` CSR rows of each state finds, for every neighbor
  ``w``, the set of state positions it touches; the runs of the state's
  own nodes give its induced pattern, so no edge probe is needed; and a
  per-d table over (pattern, touched set) gives the swap-out positions
  ``w`` may fill.  Uniform neighbor draws are two-stage (swap-out
  position by prefix-sum over per-position candidate counts, then the
  swap-in node by rank).

Sampling semantics for d >= 3 are *canonical*: a state's G(d) neighbors
are ordered by swap-out position (ascending position in the sorted state
tuple), then by swap-in node id, and one uniform variate per chain per
transition selects by rank.  A fixed seed therefore reproduces a simple
per-chain Python reference (draw the same variates, walk the same ordered
list) bit for bit — the parity suite in ``tests/test_vectorized_d3.py``
pins exactly that.

Degrees are exact: ``degrees`` counts the same distinct valid
``(swap-out, swap-in)`` pairs :meth:`SubgraphSpace.neighbors
<repro.relgraph.spaces.SubgraphSpace.neighbors>` enumerates, so the CSS
weight table evaluated over vectorized degrees is bit-identical to
``sampling_weight`` over the serial spaces' degrees.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .spaces import WalkSpaceError

#: States per block when evaluating degrees of large state tensors (CSS
#: middle states); bounds the frontier scratch arrays.
_DEGREE_CHUNK = 8192
#: The largest double below 1; times any degree it rounds below the degree.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _pair_order(d: int) -> Tuple[Tuple[int, int], ...]:
    """Label-position pairs ``(i, j)``, ``i < j``, in bitmask bit order
    (identical to :func:`repro.walks.windows.label_pairs`)."""
    return tuple((i, j) for i in range(d) for j in range(i + 1, d))


@lru_cache(maxsize=None)
def _swap_table(d: int) -> np.ndarray:
    """Valid swap-out positions per labeled pattern and touched set.

    A swap-in candidate keeps the state connected iff it touches *every*
    connected component of the remainder, and the components depend only
    on the state's labeled pattern and the swap-out position.  Entry
    ``[mask << d | touched]`` is therefore a ``d``-bit set whose bit
    ``j`` says that a node outside the state, adjacent to exactly the
    state positions in ``touched``, is a valid swap-in when position
    ``j`` leaves a state with pattern ``mask``.  ``touched == 0`` maps to
    the empty set, which is how state nodes are kept out of the
    candidates.  At most ``2^10 * 2^5`` entries (d = 5).
    """
    pairs = _pair_order(d)
    touched = np.arange(1 << d)
    table = np.zeros((1 << len(pairs), 1 << d), dtype=np.uint8)
    for mask in range(table.shape[0]):
        adj = [0] * d  # position bits adjacent to each position
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        for out in range(d):
            rest = ((1 << d) - 1) & ~(1 << out)
            valid = np.ones(touched.size, dtype=bool)
            left = rest
            while left:
                comp, grown = 0, left & -left  # flood from the lowest position
                while grown != comp:
                    comp = grown
                    for p in range(d):
                        if comp >> p & 1:
                            grown |= adj[p] & rest
                valid &= (touched & comp) != 0
                left &= ~comp
            table[mask] |= valid.astype(np.uint8) << out
    return table.reshape(-1)


def _offsets(deg: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``floor(U * deg)`` per lane, one uniform each; ``U == 1.0`` is
    clamped to :data:`_BELOW_ONE`, so every offset stays in its row."""
    u = rng.random(deg.size)
    np.minimum(u, _BELOW_ONE, out=u)
    u *= deg
    return u.astype(np.int64)


def _ragged_gather(csr, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbor lists of ``nodes`` (1-D), as
    ``(values, sizes)`` with segment ``i`` of ``values`` holding the
    sorted CSR row of ``nodes[i]``."""
    sizes = csr.degrees_array[nodes]
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), sizes
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    offsets = np.repeat(csr.indptr[nodes], sizes) + np.arange(total) - first
    return csr.indices[offsets], sizes


class VectorSpace:
    """Interface the batched engine steps through.

    State blocks use the engine's native layout: a 1-D node array for
    d = 1 and an ``(n, d)`` array of sorted rows for d >= 2.
    """

    d: int

    def initial(self, csr, rng: np.random.Generator, starts: np.ndarray) -> np.ndarray:
        """One starting state per entry of ``starts`` (non-isolated nodes)."""
        raise NotImplementedError

    def propose(self, csr, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One uniformly random G(d) neighbor per state."""
        raise NotImplementedError

    def propose_nb(
        self, csr, states: np.ndarray, prev: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One NB-SRW proposal per state (§4.2): uniform among neighbors
        other than ``prev``, with the forced-backtrack rule on degree-1
        states."""
        raise NotImplementedError

    def degrees(self, csr, states: np.ndarray) -> np.ndarray:
        """G(d) degree of every state in a native-layout block."""
        raise NotImplementedError


class _RejectionSpace(VectorSpace):
    """d <= 2: uniform neighbor draws over CSR rows, NB by rejection.

    ``propose``/``propose_nb`` write into ``out`` when given and take the
    graph arrays as ``arrays``, from :meth:`arrays`: the batched engine
    reads and checks them once per block.  Subclasses supply
    ``_draw(arrays, states, rng, out)``, one proposal per state, and
    ``_isolated(state)``, the error for a state without a neighbor.
    """

    def arrays(self, csr, states) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(degrees, indptr, indices)`` of ``csr``; raises
        :class:`WalkSpaceError` naming the first state without a neighbor."""
        deg = self.degrees(csr, states)
        if not (deg > 0).all():
            raise WalkSpaceError(self._isolated(states[(deg <= 0).nonzero()[0][0]]))
        return csr.degrees_array, csr.indptr, csr.indices

    @staticmethod
    def _same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a == b if a.ndim == 1 else (a == b).all(axis=1)

    def propose(self, csr, states, rng, out=None, arrays=None):
        return self._draw(arrays or self.arrays(csr, states), states, rng, out)

    def propose_nb(self, csr, states, prev, rng, out=None, arrays=None):
        """Reject-and-redraw: lanes whose proposal equals ``prev`` redraw,
        in ascending lane order, until none is left; only the
        still-rejected lanes draw each round.  ``prev`` neighbors
        ``states``, so a degree-1 lane draws it — the forced backtrack —
        and never redraws."""
        arrays = arrays or self.arrays(csr, states)
        nxt = self._draw(arrays, states, rng, out)
        lanes = self._same(nxt, prev).nonzero()[0]
        if lanes.size:
            lanes = lanes[self.degrees(csr, states[lanes]) > 1]
            while lanes.size:
                redraw = self._draw(arrays, states[lanes], rng, None)
                nxt[lanes] = redraw
                lanes = lanes[self._same(redraw, prev[lanes])]
        return nxt


class VectorNodeSpace(_RejectionSpace):
    """G(1) = G itself; state blocks are 1-D node arrays."""

    d = 1

    def initial(self, csr, rng, starts):
        return np.asarray(starts, dtype=np.int64).copy()

    @staticmethod
    def _isolated(node) -> str:
        return f"node {int(node)} is isolated: no neighbor to draw"

    def _draw(self, arrays, states, rng, out):
        degs, indptr, indices = arrays
        off = _offsets(degs[states], rng)
        off += indptr[states]
        return indices.take(off, out=out)

    def degrees(self, csr, states):
        return csr.degrees_array[states]


class VectorEdgeSpace(_RejectionSpace):
    """G(2): state blocks are ``(n, 2)`` sorted edge rows; proposals use
    the paper's §5 two-stage endpoint trick with rejection lanes."""

    d = 2

    def initial(self, csr, rng, starts):
        starts = np.asarray(starts, dtype=np.int64)
        v = vector_space(1).propose(csr, starts, rng)
        states = np.stack([np.minimum(starts, v), np.maximum(starts, v)], axis=1)
        if np.any(self.degrees(csr, states) <= 0):
            # An isolated edge has no G(2) neighbors; mirror the serial
            # walker, which raises on the first step.
            raise ValueError("a chain started on an isolated edge of G(2)")
        return states

    @staticmethod
    def _isolated(edge) -> str:
        # Both endpoints have degree 1: every proposal is the state itself.
        edge = tuple(int(x) for x in edge)
        return f"edge state {edge} has no G(2) neighbors (isolated edge)"

    def _draw(self, arrays, states, rng, out):
        """Pick an endpoint proportional to its degree, then a uniform
        neighbor of it; the lanes whose proposal is the state itself
        draw again, round by round."""
        degs, indptr, indices = arrays
        out = np.empty_like(states) if out is None else out
        u, v = states[:, 0], states[:, 1]
        du, dv = degs[u], degs[v]
        lanes = slice(None)  # every lane, then the ascending lanes still pending
        while True:
            pick_u = rng.random(u.size) * (du + dv) < du
            anchor = np.where(pick_u, u, v)
            off = _offsets(np.where(pick_u, du, dv), rng)
            off += indptr[anchor]
            w = indices[off]
            out[lanes, 0], out[lanes, 1] = np.minimum(anchor, w), np.maximum(anchor, w)
            miss = (w == np.where(pick_u, v, u)).nonzero()[0]
            if not miss.size:
                return out
            lanes = miss if isinstance(lanes, slice) else lanes[miss]
            u, v, du, dv = u[miss], v[miss], du[miss], dv[miss]

    def degrees(self, csr, states):
        degs = csr.degrees_array
        return degs[states[..., 0]] + degs[states[..., 1]] - 2


class VectorSubgraphSpace(VectorSpace):
    """G(d) for d >= 3 over CSR: block-at-a-time swap-frontier kernels.

    See the module docstring for the candidate order (swap-out position,
    then swap-in node id) every method shares.
    """

    def __init__(self, d: int) -> None:
        if d < 3:
            raise ValueError(
                "VectorSubgraphSpace requires d >= 3 (use VectorNode/EdgeSpace)"
            )
        self.d = d
        self._pairs = _pair_order(d)
        self._swap = _swap_table(d)
        # _bit[j] is position j's bit in a d-bit set; _members[s, j] says
        # whether set s holds position j.
        self._bit = np.uint8(1) << np.arange(d, dtype=np.uint8)
        self._members = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1

    # ------------------------------------------------------------------
    # Frontier kernel
    # ------------------------------------------------------------------
    def frontier(
        self, csr, states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Valid swap candidates of a block of sorted state rows.

        Returns ``(counts, cand_row, cand_w, cand_outs)``: ``counts[i, j]``
        is the number of valid swap-in nodes when row ``i`` drops its
        ``j``-th node.  ``cand_w`` lists every distinct neighbor of row
        ``cand_row``'s nodes, sorted by ``(cand_row, cand_w)``, and bit
        ``j`` of ``cand_outs`` says that it may replace position ``j``
        (state nodes and invalid neighbors have no bit set).  Filtering
        on bit ``j`` yields segment ``(i, j)`` in the canonical order.
        ``counts.sum(axis=1)`` is exactly ``len(SubgraphSpace.neighbors)``
        per row: distinct ``(j, w)`` pairs each yield a distinct state.

        One sorted pass does the work.  Every neighbor ``w`` of state
        position ``p`` in row ``i`` becomes the key ``(i, w, p)``; after
        the sort each run of one ``(i, w)`` ORs its positions into the
        set ``A(w)`` of positions ``w`` touches.  The runs of the state's
        own nodes spell its induced pattern, and :func:`_swap_table`
        maps ``(pattern, A(w))`` to the swap-outs ``w`` may fill.
        """
        n, d = states.shape
        w, sizes = _ragged_gather(csr, states.reshape(-1))
        if w.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return np.zeros((n, d), dtype=np.int64), empty, empty, empty.astype(np.uint8)
        # Key fields (row, node id, position); the id width follows the
        # node count, as in FusedD3Kernel.
        shift = max(int(csr.num_nodes - 1).bit_length(), 1)
        pbits = (d - 1).bit_length()
        rows = np.arange(n, dtype=np.int64)
        source = ((rows[:, None] << (shift + pbits)) | np.arange(d)).reshape(-1)
        key = np.repeat(source, sizes) | (w.astype(np.int64) << pbits)
        key.sort()
        run = key >> pbits
        first = np.empty(run.size, dtype=bool)
        first[0] = True
        np.not_equal(run[1:], run[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        touched = np.bitwise_or.reduceat(
            self._bit[key & ((1 << pbits) - 1)], starts
        )
        run = run[starts]

        # The state's own runs: their touched sets are the induced
        # adjacency, and clearing them drops state nodes as candidates.
        own = ((rows[:, None] << shift) | states).reshape(-1)
        at = np.minimum(np.searchsorted(run, own), run.size - 1)
        hit = run[at] == own
        adj = np.where(hit, touched[at], 0).reshape(n, d)
        touched[at[hit]] = 0
        mask = np.zeros(n, dtype=np.int64)
        for bit, (i, j) in enumerate(self._pairs):
            mask |= ((adj[:, i] >> j) & 1).astype(np.int64) << bit

        run_row = run >> shift
        outs = self._swap[(mask[run_row] << d) | touched]
        # Per-row histogram of swap-out sets, then one membership product.
        counts = (
            np.bincount((run_row << d) | outs, minlength=n << d).reshape(n, 1 << d)
            @ self._members
        )
        return counts, run_row, run & ((1 << shift) - 1), outs

    def _pick(self, cand_row, cand_outs, pos: np.ndarray) -> np.ndarray:
        """Candidates that may replace their row's position ``pos[row]``."""
        return (cand_outs & self._bit[pos][cand_row]) != 0

    def _select(
        self, states: np.ndarray, counts: np.ndarray, cand, r: np.ndarray
    ) -> np.ndarray:
        """The ``r``-th canonical neighbor of each row (two-stage: prefix
        sums over per-position counts pick the swap-out, rank within the
        position picks the swap-in)."""
        n = states.shape[0]
        cand_row, cand_w, cand_outs = cand
        cum = counts.cumsum(axis=1)
        out_j = (r[:, None] >= cum).sum(axis=1)
        rows = np.arange(n)
        seg = counts[rows, out_j]
        within = r - (cum[rows, out_j] - seg)
        chosen = cand_w[self._pick(cand_row, cand_outs, out_j)][
            np.cumsum(seg) - seg + within
        ]
        nxt = states.copy()
        nxt[rows, out_j] = chosen
        nxt.sort(axis=1)
        return nxt

    # ------------------------------------------------------------------
    # VectorSpace interface
    # ------------------------------------------------------------------
    def initial(self, csr, rng, starts):
        """Greedy random frontier growth from each start node — the
        vectorized mirror of :meth:`SubgraphSpace.initial_state`,
        including its multiset frontier (candidates weighted by how many
        current nodes they neighbor) and draw order."""
        grow = np.asarray(starts, dtype=np.int64)[:, None].copy()
        b = grow.shape[0]
        for _ in range(self.d - 1):
            cand, sizes = _ragged_gather(csr, grow.reshape(-1))
            row_sizes = sizes.reshape(grow.shape).sum(axis=1)
            row_of = np.repeat(np.arange(b), row_sizes)
            keep = ~(grow[row_of] == cand[:, None]).any(axis=1)
            counts = np.bincount(row_of[keep], minlength=b)
            if np.any(counts == 0):
                bad = int(grow[np.flatnonzero(counts == 0)[0], 0])
                raise WalkSpaceError(
                    f"cannot grow a connected {self.d}-node subgraph from seed {bad}"
                )
            offsets = np.cumsum(counts) - counts
            r = (rng.random(b) * counts).astype(np.int64)
            np.minimum(r, counts - 1, out=r)
            chosen = cand[keep][offsets + r]
            grow = np.concatenate([grow, chosen[:, None]], axis=1)
        grow.sort(axis=1)
        return grow

    def propose(self, csr, states, rng, u: Optional[np.ndarray] = None):
        """One uniform neighbor per row; ``u`` optionally supplies the
        pre-drawn uniforms (one per lane) so blocked callers can draw a
        whole ``(T, B)`` matrix up front — a C-order block equals T
        successive ``rng.random(B)`` calls, keeping the draw order
        bit-identical to per-step stepping."""
        counts, *cand = self.frontier(csr, states)
        deg = counts.sum(axis=1)
        if np.any(deg == 0):
            bad = states[np.flatnonzero(deg == 0)[0]]
            raise WalkSpaceError(
                f"state {tuple(int(x) for x in bad)} has no G({self.d}) neighbors"
            )
        if u is None:
            u = rng.random(states.shape[0])
        r = (u * deg).astype(np.int64)
        np.minimum(r, deg - 1, out=r)
        return self._select(states, counts, cand, r)

    def propose_nb(self, csr, states, prev, rng, u: Optional[np.ndarray] = None):
        """Exact NB draw: rank the reverse move (swap the newest node back
        out, the dropped node back in — always a valid candidate) and
        sample uniformly from the remaining ``deg - 1`` by skipping that
        rank.  One variate per lane per step, no rejection loop; degree-1
        states take the forced backtrack."""
        n = states.shape[0]
        counts, *cand = self.frontier(csr, states)
        cand_row, cand_w, cand_outs = cand
        deg = counts.sum(axis=1)
        rows = np.arange(n)
        # prev -> states swapped one node; the reverse move drops the node
        # not in prev and restores the node of prev missing from states.
        out_j = (~(states[:, :, None] == prev[:, None, :]).any(axis=2)).argmax(axis=1)
        back = prev[rows, (~(prev[:, :, None] == states[:, None, :]).any(axis=2)).argmax(axis=1)]
        # Its rank: every candidate of the earlier swap-outs, then the
        # candidates of its own swap-out with a smaller id.
        below = self._pick(cand_row, cand_outs, out_j) & (cand_w < back[cand_row])
        back_rank = (
            counts.cumsum(axis=1)[rows, out_j] - counts[rows, out_j]
            + np.bincount(cand_row[below], minlength=n)
        )
        if u is None:
            u = rng.random(n)
        r = (u * (deg - 1)).astype(np.int64)
        np.minimum(r, np.maximum(deg - 2, 0), out=r)
        r += (r >= back_rank) & (deg > 1)
        # Degree-1 lanes: r stays 0, selecting the lone (reverse) neighbor
        # — exactly the forced-backtrack rule.
        return self._select(states, counts, cand, r)

    def degrees(self, csr, states):
        """Exact G(d) degrees of an ``(..., d)`` block of sorted states.

        Rows are deduplicated first (window middles repeat heavily) and
        evaluated in bounded chunks, so CSS weight tables can hand whole
        ``(windows, templates, middles, d)`` tensors in."""
        arr = np.asarray(states, dtype=np.int64)
        lead = arr.shape[:-1]
        flat = arr.reshape(-1, self.d)
        if flat.shape[0] == 0:
            return np.zeros(lead, dtype=np.int64)
        uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
        out = np.empty(uniq.shape[0], dtype=np.int64)
        for start in range(0, uniq.shape[0], _DEGREE_CHUNK):
            block = uniq[start : start + _DEGREE_CHUNK]
            counts = self.frontier(csr, block)[0]
            out[start : start + block.shape[0]] = counts.sum(axis=1)
        return out[inverse.reshape(-1)].reshape(lead)


@lru_cache(maxsize=None)
def vector_space(d: int) -> VectorSpace:
    """Factory: the vectorized :class:`VectorSpace` for G(d) (stateless,
    cached per d)."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d == 1:
        return VectorNodeSpace()
    if d == 2:
        return VectorEdgeSpace()
    return VectorSubgraphSpace(d)
