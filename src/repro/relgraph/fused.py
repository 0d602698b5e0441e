"""Fused blocked step kernel for G(3): closed-form swap counts.

The generic :meth:`~repro.relgraph.vectorized.VectorSubgraphSpace.frontier`
materializes every chain's full swap-candidate frontier — a gather of
the ``d B`` state rows plus one sort of them — on *every* transition,
even though sampling only ever reads one segment of it.  For d = 3 the
per-segment candidate counts have a closed form, so the frontier never
needs to exist:

* drop a node ``o`` from the sorted state ``(s0, s1, s2)`` and call the
  remaining pair ``(x, y)``;
* if ``x ~ y`` the valid swap-ins are ``N(x) ∪ N(y)`` minus the state
  nodes:  ``count = deg(x) + deg(y) - |N(x) ∩ N(y)| - 2 - [o ~ x or o ~ y]``
  (``x`` and ``y`` always sit in each other's neighborhoods);
* if ``x !~ y`` they are ``N(x) ∩ N(y)`` minus the state nodes:
  ``count = |N(x) ∩ N(y)| - [o ~ x and o ~ y]``.

``|N(x) ∩ N(y)|`` for *adjacent* pairs is the per-edge triangle count — a
table the graph builds once per version and keeps
(:mod:`repro.graphs.tables`), indexed by the position of the directed
edge in the CSR layout.  The same key-table search
(:meth:`~repro.graphs.tables.EdgeTables.search`, in probe order) that
finds that position also answers the adjacency probe (position hits an
equal key iff the edge exists), so one batched search per transition
yields the induced-edge mask *and* every adjacent-pair cap.  Non-adjacent
pairs (the dropped node was a path middle) are rare per state — exactly
the pairs the mask marks — and only those lanes gather a row, the
smaller of the two, and probe it against the other.

No segment is ever built either.  Its candidates, in the generic
frontier's canonical order (swap-out position ascending, then swap-in
node id ascending), are the members of a *pool* of two sorted lists
minus the state nodes: ``N(b)`` and ``E``, where ``b`` is the pair's
higher-degree end and ``E`` the part of the other end's row that
``N(b)`` does not already cover (or, for a non-adjacent pair, that it
does).  Only that smaller row is gathered and probed.  The chosen
candidate is found by merge rank — state nodes skipped by their ranks,
then one merge-path count over ``E`` — and, for NB-SRW, the reverse
move's rank is three counts.  A fixed seed therefore yields
bit-identical trajectories: the kernel consumes exactly one uniform per
chain per transition, like :meth:`VectorSubgraphSpace.propose`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .spaces import WalkSpaceError

# Remainder-pair layout per swap-out position j of a sorted (s0, s1, s2):
# j drops states[:, j]; the pair is (states[:, _XI[j]], states[:, _YI[j]])
# and its adjacency is mask bit _ADJ[j] of the (e01, e02, e12) edge mask.
_XI = np.array([1, 0, 0])
_YI = np.array([2, 2, 1])
_ADJ = np.array([2, 1, 0])


class FusedD3Kernel:
    """Closed-form G(3) transition kernel over one CSR substrate.

    Owned by the :class:`~repro.walks.batched.BatchedWalkEngine`.  The
    per-graph tables it reads — padded directed keys, triangle table,
    adjacency bitmap — live on the graph
    (:class:`~repro.graphs.tables.EdgeTables`), so every engine on one
    graph version shares one build, and a
    :class:`~repro.graphs.delta.DeltaCSRGraph` drops them on every
    version bump.  The kernel keeps only per-lane scratch and holds no
    reference to the graph: the engine passes its graph to every
    :meth:`ready` and :meth:`propose` call, so graph and kernel never
    form a cycle and a dropped graph frees its tables at once, without
    waiting for the cyclic collector.
    """

    def __init__(self, csr) -> None:
        # Node-id bits of the lane-composite keys: a power-of-2 node
        # stride makes the lane/value split a shift+mask instead of a
        # division.  A graph's node count is fixed for life (overlay
        # versions and compaction keep it), so this is a constant.
        self._shift = max(int(csr.num_nodes - 1).bit_length(), 1)
        self._iota_buf: Optional[np.ndarray] = None

    def ready(self, csr) -> bool:
        """Whether the kernel can serve ``csr``'s current version; the
        first call per version builds the graph's G(3) tables."""
        return self._tables(csr) is not None

    def _tables(self, csr):
        """The graph's current tables with their G(3) part, or ``None``
        when the graph cannot carry them."""
        tables = csr._edge_tables()
        return tables if tables.build_g3() else None

    # ------------------------------------------------------------------
    # Per-segment selection by rank
    # ------------------------------------------------------------------
    def _iota(self, n: int) -> np.ndarray:
        """Cached ``arange(n)`` prefix (every gather re-derives one)."""
        buf = self._iota_buf
        if buf is None or buf.size < n:
            grow = 0 if buf is None else 2 * buf.size
            buf = np.arange(max(n, grow, 1024), dtype=np.int64)
            self._iota_buf = buf
        return buf[:n]

    def _smaller_row(self, t, x: np.ndarray, y: np.ndarray):
        """Gather the smaller of each pair's two CSR rows and probe it
        against the larger one.

        Per lane, ``a`` is the lower-degree end of ``(x, y)`` (ties keep
        ``x``) and ``b`` the other.  Returns ``(b, lane_of, vals, hits)``:
        ``vals`` is every ``N(a)`` row back to back, ``lane_of`` each
        entry's lane and ``hits`` whether it neighbors ``b``.
        """
        swap = t.degs[y] < t.degs[x]
        a = np.where(swap, y, x)
        b = np.where(swap, x, y)
        sizes = t.degs[a]
        csum = np.cumsum(sizes)
        total = int(csum[-1])
        offs = self._iota(total) + np.repeat(t.indptr[a] - (csum - sizes), sizes)
        vals = t.indices[offs]
        lane_of = np.repeat(self._iota(x.size), sizes)
        return b, lane_of, vals, t.has_edges(b[lane_of], vals)

    def _pool(self, t, x, y, inter, nodes):
        """A segment's pool, and where ``nodes`` sit in it, per lane.

        The valid swap-ins of a segment are its *pool* minus the state
        nodes.  With ``a``, ``b`` as in :meth:`_smaller_row`, an
        intersection lane (``inter``: ``x !~ y``) pools
        ``E = N(a) ∩ N(b)``; a union lane pools ``N(b) ⊔ E`` with
        ``E = N(a) \\ N(b)``, two disjoint sorted lists.  Only ``N(a)``
        is gathered; ``N(b)`` is read in place, ``indices[indptr[b] + j]``.

        Returns ``(b, keys, start, present, rank)``: ``keys`` lists E as
        ascending lane-composite keys ``lane << shift | node`` and
        ``start`` each lane's first slot in it; ``present[:, c]`` says
        whether the pool holds ``nodes[:, c]`` and ``rank[:, c]`` counts
        the pool members below it.
        """
        m = x.size
        shift = self._shift
        b, lane_of, vals, hits = self._smaller_row(t, x, y)
        keep = hits == inter[lane_of]
        keys = np.empty(int(np.count_nonzero(keep)) + 1, dtype=np.int64)
        np.bitwise_or((lane_of << shift)[keep], vals[keep], out=keys[:-1])
        keys[-1] = np.iinfo(np.int64).max  # a search past the end reads a miss
        # Column 0 (node 0 as the lowest possible id) finds each lane's
        # first E slot; the rest locate ``nodes``, in one search.
        lane_key = self._iota(m) << shift
        probes = lane_key[:, None] | np.column_stack([np.zeros(m, np.int64), nodes])
        at = np.searchsorted(keys, probes)
        start = at[:, 0]
        at = at[:, 1:]
        present = keys[at] == probes[:, 1:]
        rank = at - start[:, None]
        union = ~inter[:, None]
        row_probes = (b * t.stride)[:, None] + nodes
        pos = t.search(row_probes)
        present |= (t.keys[pos] == row_probes) & union
        rank += (pos - t.indptr[b][:, None]) * union
        return b, keys[:-1], start, present, rank

    def _isect_count(self, t, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``|N(x) ∩ N(y)|`` per lane for *non-adjacent* pairs: probe the
        smaller row's neighbors against the graph's adjacency tables (the
        bitmap, else a batched binary search) instead of materializing
        both rows."""
        _, lane_of, _, hits = self._smaller_row(t, x, y)
        return np.bincount(lane_of[hits], minlength=x.size)

    def _segment_rank(self, t, x, y, excl, bound, inter) -> np.ndarray:
        """Per lane: how many valid candidates of the segment precede
        ``bound`` in the canonical (ascending id) order."""
        nodes = np.column_stack([excl, bound])
        _, _, _, present, rank = self._pool(t, x, y, inter, nodes)
        below = present[:, :3] & (excl < bound[:, None])
        return rank[:, 3] - below.sum(axis=1)

    def _segment_select(self, t, x, y, excl, within, inter) -> np.ndarray:
        """The ``within``-th valid candidate of the segment, per lane.

        ``within`` becomes a pool position ``idx`` by stepping over the
        pool's state nodes in ascending order.  The pool's first
        ``idx + 1`` members are then E's first ``q`` and ``N(b)``'s first
        ``idx + 1 - q``, where E's ``i``-th member is among them iff
        ``i <= idx`` and fewer than ``idx - i + 1`` members of ``N(b)``
        are below it: the merge-path predicate, true for a prefix of
        each lane's E.  Its count is ``q``, and the answer is the larger
        of the two prefixes' last members.
        """
        b, keys, start, present, rank = self._pool(t, x, y, inter, excl)
        nb = t.degs[b] * ~inter
        idx = within.copy()
        for j in range(3):
            idx += present[:, j] & (rank[:, j] <= idx)
        lane = keys >> self._shift
        vals = keys & ((1 << self._shift) - 1)
        k = idx[lane] - (self._iota(keys.size) - start[lane])
        nb_e = nb[lane]
        head = t.indptr[b]
        beside = t.indices[head[lane] + np.clip(k, 0, np.maximum(nb_e - 1, 0))]
        taken = (k >= 0) & ((k >= nb_e) | (vals < beside))
        q = np.bincount(lane[taken], minlength=x.size)
        last_e = np.where(q > 0, vals[start + q - 1], -1)
        last_b = np.where(idx >= q, t.indices[head + np.maximum(idx - q, 0)], -1)
        return np.maximum(last_e, last_b)

    # ------------------------------------------------------------------
    # Transition kernel
    # ------------------------------------------------------------------
    def _counts(self, t, states: np.ndarray):
        """Closed-form per-swap-position candidate counts.

        Returns ``(counts (n, 3), edge mask (n, 3) as (e01, e02, e12))``.
        One search of the directed-edge key table answers both the three
        induced-adjacency probes and the adjacent-pair triangle caps.
        """
        keys, tri, stride = t.keys, t.tri, t.stride
        pair_keys = states[:, [0, 0, 1]] * stride + states[:, [1, 2, 2]]
        pos = t.search(pair_keys)
        e = keys[pos] == pair_keys  # (n, 3): e01, e02, e12
        dg = t.degs[states]
        # Swap-out j leaves pair (x, y) = columns (_XI[j], _YI[j]); its
        # adjacency and triangle cap sit at mask/probe column _ADJ[j].
        adj = e[:, _ADJ]
        cap = tri[pos][:, _ADJ]
        # Dropped-node adjacency to the remaining pair, per j.
        ox = e[:, [0, 0, 1]]
        oy = e[:, [1, 2, 2]]
        counts = dg[:, _XI] + dg[:, _YI] - cap - 2 - (ox | oy)
        lanes, js = np.nonzero(~adj)
        if lanes.size:
            x = states[lanes, _XI[js]]
            y = states[lanes, _YI[js]]
            # x, y, and the dropped node are the only state nodes the
            # intersection could contain, and only the dropped node
            # actually can (x !~ y keeps them out of each other's rows) —
            # it is in iff it neighbors both.
            counts[lanes, js] = self._isect_count(t, x, y) - (ox & oy)[lanes, js]
        return counts, e

    def _advance(self, t, states, e, counts, r, out):
        """Resolve global neighbor ranks ``r`` into next states."""
        n = states.shape[0]
        cum = counts.cumsum(axis=1)
        out_j = (r[:, None] >= cum).sum(axis=1)
        rows = self._iota(n)
        within = r - (cum[rows, out_j] - counts[rows, out_j])
        x = states[rows, _XI[out_j]]
        y = states[rows, _YI[out_j]]
        inter = ~e[rows, _ADJ[out_j]]
        chosen = self._segment_select(t, x, y, states, within, inter)
        nxt = out if out is not None else np.empty_like(states)
        np.copyto(nxt, states)
        nxt[rows, out_j] = chosen
        nxt.sort(axis=1)
        return nxt

    def propose(
        self,
        csr,
        states: np.ndarray,
        u: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One uniform G(3) neighbor per lane of ``csr`` from pre-drawn
        uniforms ``u`` — bit-identical to the generic
        :meth:`VectorSubgraphSpace.propose` for the same draws."""
        t = self._tables(csr)
        counts, e = self._counts(t, states)
        deg = counts.sum(axis=1)
        if np.any(deg == 0):
            bad = states[np.flatnonzero(deg == 0)[0]]
            raise WalkSpaceError(
                f"state {tuple(int(v) for v in bad)} has no G(3) neighbors"
            )
        r = (u * deg).astype(np.int64)
        np.minimum(r, deg - 1, out=r)
        return self._advance(t, states, e, counts, r, out)

    def propose_nb(
        self,
        csr,
        states: np.ndarray,
        prev: np.ndarray,
        u: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact NB draw (rank exclusion of the reverse move), fused.

        Mirrors :meth:`VectorSubgraphSpace.propose_nb` bit for bit: the
        reverse move's global rank comes from the closed-form prefix
        counts plus a rank query on its own segment, and degree-1 lanes
        keep the forced backtrack (``r`` stays 0)."""
        t = self._tables(csr)
        counts, e = self._counts(t, states)
        deg = counts.sum(axis=1)
        n = states.shape[0]
        rows = np.arange(n)
        out_jb = (~(states[:, :, None] == prev[:, None, :]).any(axis=2)).argmax(axis=1)
        back = prev[
            rows, (~(prev[:, :, None] == states[:, None, :]).any(axis=2)).argmax(axis=1)
        ]
        xb = states[rows, _XI[out_jb]]
        yb = states[rows, _YI[out_jb]]
        inter_b = ~e[rows, _ADJ[out_jb]]
        cum = counts.cumsum(axis=1)
        prefix = cum[rows, out_jb] - counts[rows, out_jb]
        back_rank = prefix + self._segment_rank(t, xb, yb, states, back, inter_b)
        r = (u * (deg - 1)).astype(np.int64)
        np.minimum(r, np.maximum(deg - 2, 0), out=r)
        r += (r >= back_rank) & (deg > 1)
        return self._advance(t, states, e, counts, r, out)
