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
the pairs the mask marks — and only those lanes pay a two-row gather.

Candidates are materialized solely for each lane's *chosen* segment (and,
for NB-SRW, the reverse-move segment that sets the excluded rank), in the
same canonical order as the generic frontier — swap-out position
ascending, then swap-in node id ascending — so a fixed seed yields
bit-identical trajectories: the kernel consumes exactly one uniform per
chain per transition, like :meth:`VectorSubgraphSpace.propose`.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    adjacency bitmap, int32 candidate ids — live on the graph
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
        self._lane_cache: dict = {}

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
    # Per-segment candidate machinery
    # ------------------------------------------------------------------
    def _iota(self, n: int) -> np.ndarray:
        """Cached ``arange(n)`` prefix (every gather re-derives one)."""
        buf = self._iota_buf
        if buf is None or buf.size < n:
            grow = 0 if buf is None else 2 * buf.size
            buf = np.arange(max(n, grow, 1024), dtype=np.int64)
            self._iota_buf = buf
        return buf[:n]

    def _segment_candidates(
        self,
        t,
        x: np.ndarray,
        y: np.ndarray,
        excl: np.ndarray,
        inter: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Valid swap-in candidates of one ``(x, y)`` segment per lane.

        ``excl`` is the ``(m, 3)`` state rows (state nodes are never
        candidates); ``inter`` marks lanes whose pair is non-adjacent
        (candidates = the intersection rather than the union).  Returns
        ``(kept, counts, offsets)``: ``kept`` holds the surviving
        *composite keys* ascending within each lane — the canonical
        order — and callers unpack values (``key & mask``) only for the
        elements they actually touch, which keeps the rank-``r``
        selection path free of full-width extraction passes.

        One composite sort does all the work: keys are
        ``(lane << 1 | inter) << shift | node`` — int32 when the top
        lane fits — so the post-sort passes are pure shift/mask ops with
        no per-element gathers.  State-node exclusions are applied
        *before* the sort by rewriting their keys to the dtype's max
        sentinel (strictly above every valid key), which parks them in a
        tail slice that is simply cut off.
        """
        m = x.size
        shift = self._shift
        nodes = np.empty(2 * m, dtype=np.int64)
        nodes[0::2] = x
        nodes[1::2] = y
        sizes = t.degs[nodes]
        csum = np.cumsum(sizes)
        total = int(csum[-1])
        adj = csum - sizes - t.indptr[nodes]
        offs = self._iota(total) - np.repeat(adj, sizes)
        vals = t.cand[offs]
        slim = t.cand.dtype == np.int32 and (m << (shift + 1)) < 2**31
        kdt = np.int32 if slim else np.int64
        pre = self._lane_cache.get((m, slim))
        if pre is None:
            lane2 = np.arange(m, dtype=kdt) << 1
            heads = np.arange(m + 1, dtype=kdt) << (shift + 1)
            sent = kdt(np.iinfo(kdt).max)
            self._lane_cache[(m, slim)] = pre = (lane2, heads, sent)
        lane2, heads, sent = pre
        lane_sizes = sizes.reshape(m, 2).sum(axis=1)
        lane_flag = lane2 | inter.astype(kdt)
        key = np.repeat(lane_flag << shift, lane_sizes)
        key |= vals.astype(kdt, copy=False)
        # State-node exclusion by direct probe: a state value occurs at
        # most once per CSR row, so six key-table probes per lane
        # (3 excluded values x 2 rows), searched as one batch, locate
        # every excluded slot — no full-width compare passes over the
        # gathered candidates.
        probes = (nodes[:, None] * t.stride + np.repeat(excl, 2, axis=0)).ravel()
        pos = t.search(probes)
        hit = t.keys[pos] == probes
        ndrop = int(np.count_nonzero(hit))
        if ndrop:
            key[(pos + np.repeat(adj, 3))[hit]] = sent
        key.sort()
        if ndrop:
            key = key[: key.size - ndrop]
        run = np.empty(key.size, dtype=bool)
        if key.size:
            run[0] = True
            np.not_equal(key[1:], key[:-1], out=run[1:])
        # Union lanes keep each distinct value (run heads); intersection
        # lanes keep values both rows contain (the duplicate positions —
        # CSR rows are distinct, so a key repeats at most twice): that is
        # ``run XOR inter``.
        keep = run ^ ((key & (kdt(1) << shift)) != 0)
        kept = key[keep]
        # ``kept`` stays lane-ascending, so per-lane extents fall out of
        # m binary searches against the lane boundary keys instead of a
        # full-array bincount (or materializing a lane column at all).
        bounds = np.searchsorted(kept, heads)
        counts = np.diff(bounds)
        offsets = bounds[:-1]
        return kept, counts, offsets

    def _isect_count(self, t, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``|N(x) ∩ N(y)|`` per lane for *non-adjacent* pairs: probe the
        smaller row's neighbors against the graph's adjacency tables (the
        bitmap, else a batched binary search) instead of materializing
        both rows."""
        m = x.size
        swap = t.degs[y] < t.degs[x]
        a = np.where(swap, y, x)
        b = np.where(swap, x, y)
        sizes = t.degs[a]
        csum = np.cumsum(sizes)
        total = int(csum[-1])
        offs = self._iota(total) + np.repeat(
            t.indptr[a] - (csum - sizes), sizes
        )
        hits = t.has_edges(np.repeat(b, sizes), t.indices[offs])
        lane_of = np.repeat(self._iota(m), sizes)
        return np.bincount(lane_of[hits], minlength=m)

    def _segment_rank(self, t, x, y, excl, bound, inter) -> np.ndarray:
        """Per lane: how many valid candidates of the segment precede
        ``bound`` in the canonical (ascending id) order."""
        kept, _, _ = self._segment_candidates(t, x, y, excl, inter)
        shift = self._shift
        lanes = kept >> (shift + 1)
        values = kept & kept.dtype.type((1 << shift) - 1)
        below = values < bound[lanes]
        return np.bincount(lanes[below], minlength=x.size)

    def _segment_select(self, t, x, y, excl, within, inter) -> np.ndarray:
        """The ``within``-th valid candidate of the segment, per lane."""
        kept, _, offsets = self._segment_candidates(t, x, y, excl, inter)
        # Only the chosen element per lane is unpacked from its key.
        mask = kept.dtype.type((1 << self._shift) - 1)
        return (kept[offsets + within] & mask).astype(np.int64)

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
