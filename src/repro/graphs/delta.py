"""Log-structured edge-delta overlay on the immutable CSR backend.

:class:`DeltaCSRGraph` makes the frozen :class:`~repro.graphs.CSRGraph`
usable on *edge streams* — the paper's own OSN setting — without giving
up the vectorized walk kernels.  The design is the classic log-structured
split (LogBase-style, see PAPERS.md): bulk adjacency stays in the
immutable CSR ``indptr``/``indices`` arrays of a **base** snapshot, and
mutations accumulate in one small hot layer —

* an append-only edge **log** (``int32`` endpoint arrays plus a boolean
  tombstone bitmap marking deletes) recording every applied operation
  since the last compaction, and
* its index, the sorted directed **delta keys** ``u * (n + 1) + v`` of
  the edges whose adjacency differs from the base, each with a live flag
  (an inserted-but-absent edge is live, a deleted-but-present one dead).
  A key is flipped while the log holds it an odd number of times, so an
  insert followed by a delete of the same edge cancels out of the keys
  (the log keeps both entries).  ``apply`` and unpickling fold log rows
  into the keys with one ``np.unique`` parity count; degrees move by
  ``np.add.at``.

The ``indptr``/``indices`` *properties* splice the delta keys into the
base CSR, once per version: one ``searchsorted`` of the delta keys into
the base's sorted directed keys places every flipped edge, deletes drop
their base slots and inserts are ``np.insert``-ed in place — O(m) copies
plus O(delta log m), no sort.  Every scalar read (``neighbors``,
``has_edge``, ``edges``, ...) is the inherited :class:`CSRGraph` method
on that merged view, and so is every vectorized consumer —
:mod:`repro.relgraph.vectorized`, :mod:`repro.walks.windows`, the
batched engine — which runs unchanged on a mutating graph.  Only
``has_edges`` answers from the base's lookup tables and patches the
probes that hit a delta key with one ``searchsorted``: building tables
for each version's merged view would cost O(m) per batch, and a stream
makes a version per batch.

``compact()`` turns the spliced view into a fresh immutable
:class:`CSRGraph` (bit-identical to rebuilding from scratch over the
live edge set) and rebases the overlay on it; ``version`` increments
monotonically on every ``apply`` and every effective ``compact``, which
is what
:class:`~repro.streaming.ContinuousSession` and the service daemon key
their refresh / republish logic on.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from .csr import CSRGraph, Edge, GraphError, _edge_array, _probe_ids, sorted_unique


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


_EMPTY_I64 = _frozen(np.empty(0, dtype=np.int64))
_EMPTY_BOOL = _frozen(np.empty(0, dtype=bool))
_EMPTY_LOG = (_frozen(np.empty(0, dtype=np.int32)),) * 2 + (_EMPTY_BOOL,)


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
        Any full-access graph; its :meth:`CSRGraph.from_graph` form is
        the base.  A ``DeltaCSRGraph`` input is snapshotted at its
        current merged view (the new overlay starts with an empty log at
        version 0).

    The node set is fixed at construction — only edges churn.  All
    :class:`CSRGraph` read methods (including the vectorized
    ``has_edges`` and the ``indptr``/``indices`` arrays the batched
    kernels gather from) answer for the *current* merged view, so the
    overlay is a drop-in ``backend="csr"``-compatible substrate
    (``isinstance(delta, CSRGraph)`` holds and ``batch_support`` passes).
    The overlay is mutable, hence unhashable: a graph-keyed cache must
    not return a previous version's answer.
    """

    __slots__ = ("base", "version", "_log", "_dkeys", "_dalive", "_mat")

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, base) -> None:
        base = CSRGraph.from_graph(base)
        if isinstance(base, DeltaCSRGraph):
            base = CSRGraph(base.indptr.copy(), base.indices.copy())
        if base.num_nodes >= np.iinfo(np.int32).max:
            raise GraphError(
                "DeltaCSRGraph logs endpoints as int32; "
                f"num_nodes={base.num_nodes} does not fit"
            )
        self.version = 0
        self._rebase(base)

    def _rebase(self, base: CSRGraph) -> None:
        """Serve ``base`` with an empty log (construction and compaction)."""
        self.base = base
        # Parent slots (CSRGraph.__init__ is bypassed: ``indptr``/``indices``
        # are read-only properties here, so the parent constructor's
        # assignments would not apply).
        self._degrees = base.degrees_array.copy()
        self._num_edges = base.num_edges
        self._nset_cache: dict = {}
        self._tables = None
        # Append-only operation log: (u, v, deleted), read-only arrays.
        self._log: Tuple[np.ndarray, np.ndarray, np.ndarray] = _EMPTY_LOG
        # Sorted directed delta keys (u * (n + 1) + v) + live flags.
        self._dkeys = _EMPTY_I64
        self._dalive = _EMPTY_BOOL
        # Cached merged (indptr, indices); an empty log's view is the base.
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
            if sorted_unique(keys).size != keys.size:
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
        pairs = np.concatenate([dels, ins])
        deleted = np.arange(len(pairs)) < len(dels)
        self._fold(pairs[:, 0], pairs[:, 1], deleted)
        self.version += 1
        return self.version

    def _fold(self, u: np.ndarray, v: np.ndarray, deleted: np.ndarray) -> None:
        """Append log rows ``(u, v, deleted)`` and fold them into the hot
        layer.  A directed key is flipped while the log holds it an odd
        number of times: the current delta keys (each held an odd number
        of times) plus both directions of the new rows, kept where their
        count is odd.  Shared by :meth:`apply` and unpickling."""
        u = u.astype(np.int64)
        v = v.astype(np.int64)
        self._log = tuple(
            _frozen(np.concatenate([old, new.astype(old.dtype)]))
            for old, new in zip(self._log, (u, v, deleted))
        )
        stride = self.base.num_nodes + 1
        keys, counts = np.unique(
            np.concatenate([self._dkeys, u * stride + v, v * stride + u]),
            return_counts=True,
        )
        self._dkeys = keys[counts % 2 == 1]
        # A flipped edge absent from the base is a live insert; one present
        # in the base is a (dead) delete.
        self._dalive = ~self.base.has_edges(self._dkeys // stride, self._dkeys % stride)
        step = np.where(deleted, -1, 1)
        np.add.at(self._degrees, u, step)
        np.add.at(self._degrees, v, step)
        self._num_edges += int(step.sum())
        for node in np.union1d(u, v).tolist():
            self._nset_cache.pop(node, None)
        self._mat = None
        self._tables = None

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
        if not self.delta_edges:
            return self.base
        fresh = CSRGraph(*self._merged())
        self._rebase(fresh)
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
            if not self._dkeys.size:
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
        return self._log[0].size

    @property
    def log(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The append-only log as read-only ``(u, v, deleted)`` arrays."""
        return self._log

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized merged-view adjacency: base answers, delta-patched.

        One extra ``searchsorted`` over the (tiny) sorted delta-key array
        patches exactly the probes that hit a flipped edge — O(delta)
        extra work per batch, independent of graph size, where tables
        over each version's merged view would cost O(m) to build.
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

    def copy(self) -> CSRGraph:
        """A plain :class:`CSRGraph` over a private copy of the merged view."""
        return CSRGraph(self.indptr.copy(), self.indices.copy())

    def __reduce__(self):
        # Base, log and version define the overlay; the delta keys, the
        # degrees and the merged view are folded again from the log.
        return (_restore, (self.base, *self._log, self.version))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaCSRGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, version={self.version}, "
            f"pending={self.delta_edges})"
        )


def _restore(base, log_u, log_v, log_del, version) -> DeltaCSRGraph:
    """Unpickle a :class:`DeltaCSRGraph`: fold its log onto its base."""
    graph = DeltaCSRGraph(base)
    if log_u.size:
        graph._fold(log_u, log_v, log_del)
    graph.version = version
    return graph
