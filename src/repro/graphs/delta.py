"""Log-structured edge-delta overlay on the immutable CSR backend.

:class:`DeltaCSRGraph` makes the frozen :class:`~repro.graphs.CSRGraph`
usable on *edge streams* — the paper's own OSN setting — without giving
up the vectorized walk kernels.  The design is the classic log-structured
split (LogBase-style, see PAPERS.md): bulk adjacency stays in the
immutable CSR ``indptr``/``indices`` arrays of a **base** snapshot, and
mutations accumulate in a small hot layer —

* an append-only edge **log** (``int32`` endpoint arrays plus a boolean
  tombstone bitmap marking deletes) recording every applied operation
  since the last compaction, and
* a per-node **flip index**: for each touched node, the set of neighbors
  whose adjacency differs from the base (an inserted-but-absent edge or
  a deleted-but-present one).  An insert followed by a delete of the
  same edge cancels out of the index (the log keeps both entries).

Reads serve the merged view: ``has_edge``/``has_edges`` answer from the
base and patch the (few) probes that hit the flip index via one
``searchsorted`` over the sorted delta keys; ``neighbors`` filters and
extends only touched rows; degrees are maintained incrementally.  The
``indptr``/``indices`` *properties* splice the sorted delta keys into
the base CSR, once per version: one ``searchsorted`` of the delta keys
into the base's sorted directed keys places every flipped edge, deletes
drop their base slots and inserts are ``np.insert``-ed in place — O(m)
copies plus O(delta log m), no sort.  So every vectorized consumer —
:mod:`repro.relgraph.vectorized`, :mod:`repro.walks.windows`, the
batched engine — runs unchanged on a mutating graph.

``compact()`` turns that spliced view into a fresh immutable
:class:`CSRGraph` (bit-identical to rebuilding from scratch over the
live edge set) and rebases the overlay on it; ``version`` increments
monotonically on every ``apply`` and every effective ``compact``, which
is what
:class:`~repro.streaming.ContinuousSession` and the service daemon key
their refresh / republish logic on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from .graph import Edge, GraphError
from .csr import CSRGraph, _edge_array, _probe_ids

#: Initial capacity of the append-only log arrays (doubled on overflow).
_LOG_INITIAL_CAPACITY = 16

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


def _canonical_pairs(pairs: Iterable[Edge], n: int, label: str) -> np.ndarray:
    """Validate and canonicalize a batch of edge pairs to ``u < v`` rows."""
    arr = _edge_array(pairs, label)
    if arr.size == 0:
        return arr
    if np.any(arr < 0) or np.any(arr >= n):
        bad = arr[np.any((arr < 0) | (arr >= n), axis=1)][0]
        raise GraphError(
            f"{label} endpoint out of range for num_nodes={n}: "
            f"({int(bad[0])}, {int(bad[1])})"
        )
    if np.any(arr[:, 0] == arr[:, 1]):
        bad = int(arr[arr[:, 0] == arr[:, 1]][0, 0])
        raise GraphError(f"{label} contains self-loop ({bad}, {bad})")
    return np.sort(arr, axis=1)


class DeltaCSRGraph(CSRGraph):
    """Mutable read-path overlay over an immutable CSR base.

    Parameters
    ----------
    base:
        Any full-access graph; converted to :class:`CSRGraph` once.  A
        ``DeltaCSRGraph`` input is snapshotted at its current merged
        view (the new overlay starts with an empty log at version 0).

    The node set is fixed at construction — only edges churn.  All
    :class:`CSRGraph` read methods (including the vectorized
    ``has_edges`` and the ``indptr``/``indices`` arrays the batched
    kernels gather from) answer for the *current* merged view, so the
    overlay is a drop-in ``backend="csr"``-compatible substrate
    (``isinstance(delta, CSRGraph)`` holds and ``batch_support`` passes).
    """

    __slots__ = (
        "base",
        "version",
        "_log_u",
        "_log_v",
        "_log_del",
        "_log_len",
        "_flipped",
        "_row_cache",
        "_dkeys",
        "_dalive",
        "_mat",
    )

    def __init__(self, base) -> None:
        base = CSRGraph.from_graph(base) if not isinstance(base, CSRGraph) else base
        if isinstance(base, DeltaCSRGraph):
            base = CSRGraph(base.indptr.copy(), base.indices.copy())
        if base.num_nodes >= np.iinfo(np.int32).max:
            raise GraphError(
                "DeltaCSRGraph logs endpoints as int32; "
                f"num_nodes={base.num_nodes} does not fit"
            )
        self.base = base
        self.version = 0
        # Parent slots (CSRGraph.__init__ is bypassed: ``indptr``/``indices``
        # are read-only properties here, so the parent constructor's
        # assignments would not apply).
        self._degrees = base.degrees_array.copy()
        self._num_edges = base.num_edges
        self._nset_cache: dict = {}
        self._tables = None
        # Append-only operation log (int32 endpoints + tombstone bitmap).
        self._log_u = np.empty(_LOG_INITIAL_CAPACITY, dtype=np.int32)
        self._log_v = np.empty(_LOG_INITIAL_CAPACITY, dtype=np.int32)
        self._log_del = np.zeros(_LOG_INITIAL_CAPACITY, dtype=bool)
        self._log_len = 0
        # node -> set of neighbors whose adjacency differs from the base.
        self._flipped: Dict[int, Set[int]] = {}
        self._row_cache: Dict[int, np.ndarray] = {}
        # Sorted directed delta keys (u * (n + 1) + v) + live flags, for
        # patching vectorized has_edges probes.
        self._dkeys = _EMPTY_I64
        self._dalive = _EMPTY_BOOL
        # Cached merged (indptr, indices); version 0 merged == base.
        self._mat: Tuple[np.ndarray, np.ndarray] = (base.indptr, base.indices)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, inserts: Iterable[Edge] = (), deletes: Iterable[Edge] = ()) -> int:
        """Apply one batch of edge updates; returns the new ``version``.

        Both lists are validated against the **pre-batch** view: every
        insert must be absent, every delete present, and the batch may
        not contain duplicates or an insert/delete of the same edge.
        Deletes are logged before inserts.  An invalid batch raises
        :class:`~repro.graphs.GraphError` naming the offending edge and
        leaves the overlay untouched.
        """
        n = self.base.num_nodes
        ins = _canonical_pairs(inserts, n, "inserts")
        dels = _canonical_pairs(deletes, n, "deletes")
        if ins.size == 0 and dels.size == 0:
            return self.version
        stride = n + 1
        ins_keys = ins[:, 0] * stride + ins[:, 1]
        del_keys = dels[:, 0] * stride + dels[:, 1]
        for keys, label in ((ins_keys, "inserts"), (del_keys, "deletes")):
            if np.unique(keys).size != keys.size:
                raise GraphError(f"{label} batch contains duplicate edges")
        clash = np.intersect1d(ins_keys, del_keys)
        if clash.size:
            u, v = divmod(int(clash[0]), stride)
            raise GraphError(
                f"edge ({u}, {v}) appears in both inserts and deletes "
                "of one batch"
            )
        if ins.size:
            present = self.has_edges(ins[:, 0], ins[:, 1])
            if np.any(present):
                u, v = (int(x) for x in ins[present][0])
                raise GraphError(f"cannot insert ({u}, {v}): edge already present")
        if dels.size:
            present = self.has_edges(dels[:, 0], dels[:, 1])
            if not np.all(present):
                u, v = (int(x) for x in dels[~present][0])
                raise GraphError(f"cannot delete ({u}, {v}): no such edge")
        for u, v in dels:
            self._apply_one(int(u), int(v), True)
        for u, v in ins:
            self._apply_one(int(u), int(v), False)
        self._rebuild_delta_keys()
        self._mat = None
        self._tables = None
        self.version += 1
        return self.version

    def _apply_one(self, u: int, v: int, is_delete: bool) -> None:
        if self._log_len == self._log_u.size:
            cap = self._log_u.size * 2
            for name in ("_log_u", "_log_v", "_log_del"):
                old = getattr(self, name)
                grown = np.zeros(cap, dtype=old.dtype)
                grown[: old.size] = old
                setattr(self, name, grown)
        i = self._log_len
        self._log_u[i] = u
        self._log_v[i] = v
        self._log_del[i] = is_delete
        self._log_len = i + 1
        for a, b in ((u, v), (v, u)):
            flip = self._flipped.get(a)
            if flip is None:
                flip = self._flipped[a] = set()
            if b in flip:  # cancels a prior logged op on this edge
                flip.discard(b)
                if not flip:
                    del self._flipped[a]
            else:
                flip.add(b)
            self._row_cache.pop(a, None)
            self._nset_cache.pop(a, None)
        step = -1 if is_delete else 1
        self._degrees[u] += step
        self._degrees[v] += step
        self._num_edges += step

    def _rebuild_delta_keys(self) -> None:
        if not self._flipped:
            self._dkeys = _EMPTY_I64
            self._dalive = _EMPTY_BOOL
            return
        us: List[int] = []
        vs: List[int] = []
        for a, nbrs in self._flipped.items():
            us.extend([a] * len(nbrs))
            vs.extend(nbrs)
        ua = np.asarray(us, dtype=np.int64)
        va = np.asarray(vs, dtype=np.int64)
        keys = ua * (self.base.num_nodes + 1) + va
        order = np.argsort(keys)  # keys are unique
        self._dkeys = keys[order]
        # A flipped edge absent from the base is a live insert; one present
        # in the base is a (dead) delete.
        self._dalive = ~self.base.has_edges(ua[order], va[order])

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> CSRGraph:
        """Merge the log into a fresh immutable :class:`CSRGraph`.

        The result wraps the spliced merged view, which is bit-identical
        (``indptr``/``indices``) to a from-scratch
        :meth:`CSRGraph.from_edges` rebuild over the live edge set.  The
        overlay rebases onto it — empty log, caches
        cleared — and ``version`` increments.  Compacting a clean
        overlay (no operations logged since the last compaction) is a
        no-op that returns the current base unchanged.
        """
        if self._log_len == 0:
            return self.base
        fresh = CSRGraph(*self._merged())
        self.base = fresh
        self._degrees = fresh.degrees_array.copy()
        self._num_edges = fresh.num_edges
        self._nset_cache = {}
        self._tables = None
        self._log_u = np.empty(_LOG_INITIAL_CAPACITY, dtype=np.int32)
        self._log_v = np.empty(_LOG_INITIAL_CAPACITY, dtype=np.int32)
        self._log_del = np.zeros(_LOG_INITIAL_CAPACITY, dtype=bool)
        self._log_len = 0
        self._flipped = {}
        self._row_cache = {}
        self._dkeys = _EMPTY_I64
        self._dalive = _EMPTY_BOOL
        self._mat = (fresh.indptr, fresh.indices)
        self.version += 1
        return fresh

    # ------------------------------------------------------------------
    # Merged-view accessors
    # ------------------------------------------------------------------
    def _merged(self) -> Tuple[np.ndarray, np.ndarray]:
        """Merged ``(indptr, indices)``: the base with the delta keys
        spliced in, built once per version (see the module docstring)."""
        mat = self._mat
        if mat is None:
            base = self.base
            if not self._flipped:
                mat = (base.indptr, base.indices)
            else:
                dkeys, alive = self._dkeys, self._dalive
                dead = ~alive
                pos = np.searchsorted(base._directed_keys(), dkeys)
                keep = np.ones(base.indices.size, dtype=bool)
                keep[pos[dead]] = False
                at = pos[alive] - np.cumsum(dead)[alive]  # less earlier deletes
                indices = np.insert(
                    base.indices[keep], at, dkeys[alive] % (base.num_nodes + 1)
                )
                indptr = np.zeros(base.num_nodes + 1, dtype=np.int64)
                np.cumsum(self._degrees, out=indptr[1:])
                mat = (indptr, indices)
            self._mat = mat
        return mat

    @property
    def indptr(self) -> np.ndarray:  # type: ignore[override]
        """Merged-view CSR row pointers (spliced once per version)."""
        return self._merged()[0]

    @property
    def indices(self) -> np.ndarray:  # type: ignore[override]
        """Merged-view CSR neighbor ids (spliced once per version)."""
        return self._merged()[1]

    @property
    def num_nodes(self) -> int:  # type: ignore[override]
        """Fixed node count (from the base; node churn is out of scope)."""
        return self.base.num_nodes

    @property
    def delta_edges(self) -> int:
        """Operations logged since the last compaction."""
        return self._log_len

    @property
    def log(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The append-only log as ``(u, v, deleted)`` read-only views."""
        out = (
            self._log_u[: self._log_len],
            self._log_v[: self._log_len],
            self._log_del[: self._log_len],
        )
        for arr in out:
            arr.flags.writeable = False
        return out

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted merged neighbor row of ``v`` (cached for touched rows)."""
        flip = self._flipped.get(v)
        if not flip:
            return self.base.neighbors(v)
        row = self._row_cache.get(v)
        if row is None:
            base_row = self.base.neighbors(v)
            flip_arr = np.fromiter(flip, dtype=np.int64, count=len(flip))
            kept = base_row[~np.isin(base_row, flip_arr)]
            added = flip_arr[~np.isin(flip_arr, base_row)]
            row = np.sort(np.concatenate([kept, added]))
            row.flags.writeable = False
            self._row_cache[v] = row
        return row

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency test on the merged view (base answer, flip-patched)."""
        flip = self._flipped.get(u)
        if flip is not None and v in flip:
            return not self.base.has_edge(u, v)
        return self.base.has_edge(u, v)

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized merged-view adjacency: base answers, delta-patched.

        One extra ``searchsorted`` over the (tiny) sorted delta-key array
        patches exactly the probes that hit a flipped edge — O(delta)
        extra work per batch, independent of graph size.
        """
        us, vs = _probe_ids(us, vs)
        out = self.base.has_edges(us, vs)  # fresh and contiguous: patched in place
        dkeys = self._dkeys
        if dkeys.size:
            probes = (us * (self.base.num_nodes + 1) + vs).reshape(-1)
            pos = np.searchsorted(dkeys, probes)
            pos[pos == dkeys.size] = 0  # safe gather; mask handles validity
            hit = dkeys[pos] == probes
            if np.any(hit):
                out.reshape(-1)[hit] = self._dalive[pos[hit]]
        return out

    def __reduce__(self):
        # Base, log and version define the overlay; the flip index, the
        # degrees and the merged view are replayed from the log.
        return (_restore, (self.base, *self.log, self.version))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaCSRGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, version={self.version}, "
            f"pending={self._log_len})"
        )


def _restore(base, log_u, log_v, log_del, version) -> DeltaCSRGraph:
    """Unpickle a :class:`DeltaCSRGraph`: replay its log onto its base."""
    graph = DeltaCSRGraph(base)
    for u, v, is_delete in zip(log_u.tolist(), log_v.tolist(), log_del.tolist()):
        graph._apply_one(u, v, is_delete)
    graph._rebuild_delta_keys()
    graph._mat = None
    graph.version = version
    return graph
