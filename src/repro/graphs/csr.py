"""CSR (compressed sparse row) graph backend.

:class:`CSRGraph` stores the adjacency structure of a simple undirected
graph in two NumPy arrays — ``indptr`` (length ``n + 1``) and ``indices``
(length ``2m``, each row sorted ascending) — the classic CSR layout used by
scientific sparse-matrix kernels and by locality-aware graph systems.  It
is a drop-in *read-only* replacement for :class:`~repro.graphs.Graph`: the
walk spaces, estimators and baselines only call ``neighbors`` /
``neighbor_set`` / ``degree`` / ``has_edge``, all of which CSR provides.

Why a second backend
--------------------
The list backend keeps one Python list **and** one Python set per node:
flexible, O(1) adjacency tests, but pointer-chasing and several hundred
bytes per edge.  CSR packs the same information into two contiguous
arrays (8–16 bytes per directed edge), which

* makes uniform neighbor draws a pair of array loads (``indices[indptr[v]
  + j]``) that vectorize across many chains at once (see
  :mod:`repro.walks.batched`), and
* turns adjacency tests into O(log deg) binary searches on the sorted row
  (``has_edge``), trading a constant factor for an order of magnitude less
  memory traffic.

Backend selection is by construction — build the graph you want and pass
it anywhere a ``Graph`` is accepted; :func:`as_backend` converts by name
(the CLI's ``--backend`` flag).  Sampling results are identical between
backends for a fixed seed whenever the walk only draws from sorted
neighbor lists (all d <= 2 methods); see ``tests/test_csr.py``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .graph import Edge, Graph, GraphError, _coerce_node_id
from .tables import EdgeTables

#: Cache cap for memoized ``neighbor_set`` rows (hot hub nodes dominate
#: random-walk classification probes; a bounded cache keeps memory flat).
_NEIGHBOR_SET_CACHE_CAP = 1 << 16

_BOOL_TYPES = frozenset((bool, np.bool_))


def _edge_array(edges: Iterable[Edge], label: str) -> np.ndarray:
    """A batch of ``(u, v)`` pairs as an ``(m, 2)`` ``int64`` array.

    Node ids must be integers, as for :class:`Graph`: the batch's dtype
    rejects floats, strings and ``None``, and a scan of element types
    catches bools, which NumPy folds silently into an int array.
    """
    seq = edges if isinstance(edges, np.ndarray) else list(edges)
    arr = np.asarray(seq)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"{label} must be (u, v) pairs")
    if arr.dtype.kind not in "iu" or (
        arr is not seq and not _BOOL_TYPES.isdisjoint(map(type, chain.from_iterable(seq)))
    ):
        for u, v in seq:  # raises GraphError naming the first bad edge
            _coerce_node_id(u, (u, v))
            _coerce_node_id(v, (u, v))
    return arr.astype(np.int64, copy=False)


def _probe_ids(us, vs) -> Tuple[np.ndarray, np.ndarray]:
    """``has_edges`` ids as ``int64`` arrays of one shape, checked before
    any cast: floats would truncate, bools read as 0/1, shapes broadcast."""
    us, vs = np.asarray(us), np.asarray(vs)
    if us.shape != vs.shape:
        raise GraphError(f"probe id arrays differ in shape: {us.shape} and {vs.shape}")
    if us.size and not {us.dtype.kind, vs.dtype.kind} <= {"i", "u"}:
        raise GraphError(f"node ids must be integers, got {us.dtype} and {vs.dtype} probes")
    return us.astype(np.int64, copy=False), vs.astype(np.int64, copy=False)


class CSRGraph:
    """Immutable CSR view of a simple undirected graph.

    Build with :meth:`from_graph` (the common path: convert a loaded
    :class:`Graph` once, walk many times) or :meth:`from_edges`.  The
    constructor takes pre-validated CSR arrays and is mostly internal.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; row ``v`` of the
        adjacency structure is ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        Concatenated neighbor ids, each row sorted ascending, no
        duplicates, no self-loops, symmetric (``u`` in row ``v`` iff ``v``
        in row ``u``).
    """

    __slots__ = (
        "indptr",
        "indices",
        "_degrees",
        "_num_edges",
        "_nset_cache",
        "_tables",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise GraphError("indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise GraphError("indptr must start at 0 and end at len(indices)")
        self._degrees = np.diff(self.indptr)
        if np.any(self._degrees < 0):
            raise GraphError("indptr must be non-decreasing")
        self._num_edges = self.indices.size // 2
        self._nset_cache: dict = {}
        self._tables: Optional[EdgeTables] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Convert a list-backend :class:`Graph` (rows are already sorted)."""
        if isinstance(graph, CSRGraph):
            return graph
        if not hasattr(graph, "degrees"):
            raise GraphError(
                f"cannot build a CSRGraph from {type(graph).__name__}: full "
                "adjacency access is required, but a RestrictedGraph only "
                "exposes crawled neighborhoods"
            )
        degrees = np.asarray(graph.degrees(), dtype=np.int64)
        indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        if graph.num_nodes:
            flat: List[int] = []
            for v in graph.nodes():
                flat.extend(graph.neighbors(v))
            indices = np.asarray(flat, dtype=np.int64)
        else:
            indices = np.empty(0, dtype=np.int64)
        return cls(indptr, indices)

    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], num_nodes: Optional[int] = None
    ) -> "CSRGraph":
        """Build directly from an edge iterable (deduplicated, validated).

        Vectorized: both edge orientations are stacked, lexsorted and
        deduplicated in NumPy, so construction is O(m log m) with small
        constants rather than millions of Python-level set inserts.
        """
        pairs = _edge_array(edges, "edges")
        if pairs.size == 0:
            n = int(num_nodes) if num_nodes is not None else 0
            return cls(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
        if num_nodes is None:
            num_nodes = int(pairs.max()) + 1
        n = int(num_nodes)
        if np.any(pairs < 0) or np.any(pairs >= n):
            raise GraphError(f"edge endpoint out of range for num_nodes={n}")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise GraphError("self-loops not allowed in a simple graph")
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(indptr, dst)

    def to_graph(self) -> Graph:
        """Materialize back into the list backend."""
        return Graph(self.num_nodes, self.edges())

    # ------------------------------------------------------------------
    # Basic accessors (Graph-compatible surface)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (including isolated ones)."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def nodes(self) -> range:
        """All node ids as a range."""
        return range(self.num_nodes)

    def edges(self) -> Iterator[Edge]:
        """Iterate edges as ``(u, v)`` with ``u < v``, sorted."""
        indptr, indices = self.indptr, self.indices
        for u in range(self.num_nodes):
            for v in indices[indptr[u] : indptr[u + 1]]:
                if u < v:
                    yield (u, int(v))

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return int(self._degrees[v])

    def degrees(self) -> List[int]:
        """Degree of every node, indexed by node id."""
        return self._degrees.tolist()

    @property
    def degrees_array(self) -> np.ndarray:
        """Degrees as an ``int64`` array (zero-copy; do not mutate)."""
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor row of ``v`` as an array view (do not mutate).

        Supports ``len``, indexing and iteration — everything the walk
        spaces do with the list backend's neighbor lists.
        """
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_set(self, v: int) -> frozenset:
        """Neighbor set of ``v`` (memoized; bounded cache).

        The set backend keeps these permanently; CSR materializes them on
        demand for the d >= 3 walk spaces and graphlet classification,
        caching the most recently touched rows (walks revisit hubs).
        """
        cached = self._nset_cache.get(v)
        if cached is None:
            if len(self._nset_cache) >= _NEIGHBOR_SET_CACHE_CAP:
                self._nset_cache.clear()
            cached = frozenset(self.neighbors(v).tolist())
            self._nset_cache[v] = cached
        return cached

    def _node_range_error(self, node) -> GraphError:
        return GraphError(
            f"node id {int(node)} out of range for num_nodes={self.num_nodes}"
        )

    def has_edge(self, u: int, v: int) -> bool:
        """O(log deg) adjacency test via binary search on the sorted row.

        Raises :class:`GraphError` for an id outside ``[0, num_nodes)``.
        """
        n = self.num_nodes
        if not 0 <= u < n:
            raise self._node_range_error(u)
        if not 0 <= v < n:
            raise self._node_range_error(v)
        lo, hi = self.indptr[u], self.indptr[u + 1]
        i = lo + np.searchsorted(self.indices[lo:hi], v)
        return i < hi and self.indices[i] == v

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized adjacency tests: ``out[i] = has_edge(us[i], vs[i])``.

        Encodes every directed edge as ``u * (n + 1) + v`` — a globally
        monotone key sequence in CSR order — and answers from the graph's
        lazily built tables (:mod:`repro.graphs.tables`): the fused G(3)
        kernel's adjacency bitmap if built, else a probe-filter bit test
        and an ordered key search for the probes that pass it.  Non-integer
        ids, unequal shapes and ids outside ``[0, num_nodes)`` (``v = n + 1``
        would read row ``u + 1``) raise :class:`GraphError`.
        """
        us, vs = _probe_ids(us, vs)
        shape, us, vs = us.shape, us.reshape(-1), vs.reshape(-1)
        n = self.num_nodes
        # Negative ids wrap to huge unsigned values: one max per array
        # checks both bounds.
        if us.size and max(us.view(np.uint64).max(), vs.view(np.uint64).max()) >= n:
            bad = int(np.argmax((us < 0) | (us >= n) | (vs < 0) | (vs >= n)))
            raise self._node_range_error(us[bad] if not 0 <= us[bad] < n else vs[bad])
        return self._edge_tables().has_edges(us, vs).reshape(shape)

    def _edge_tables(self) -> EdgeTables:
        """This graph's derived lookup tables (built once, then cached)."""
        tables = self._tables
        if tables is None:
            tables = self._tables = EdgeTables(self.indptr, self.indices, self._degrees)
        return tables

    def _directed_keys(self) -> np.ndarray:
        """Sorted directed edge keys ``u * (n + 1) + v`` in CSR order: a
        view of the table's keys without their sentinel."""
        return self._edge_tables().keys[:-1]

    def max_degree(self) -> int:
        """Largest degree in the graph (0 for the empty graph)."""
        return int(self._degrees.max()) if self.num_nodes else 0

    # ------------------------------------------------------------------
    # Derived quantities used by the estimators
    # ------------------------------------------------------------------
    def induced_edges(self, nodes: Sequence[int]) -> List[Edge]:
        """Edges of the subgraph induced by ``nodes`` (as pairs of node ids)."""
        node_list = list(nodes)
        found = []
        for i, u in enumerate(node_list):
            for v in node_list[i + 1 :]:
                if self.has_edge(u, v):
                    found.append((u, v) if u < v else (v, u))
        return found

    def induced_edge_count(self, nodes: Sequence[int]) -> int:
        """Number of edges in the subgraph induced by ``nodes``."""
        node_list = list(nodes)
        count = 0
        for i, u in enumerate(node_list):
            count += sum(1 for v in node_list[i + 1 :] if self.has_edge(u, v))
        return count

    def is_connected_subset(self, nodes: Sequence[int]) -> bool:
        """Whether the subgraph induced by ``nodes`` is connected."""
        node_list = list(nodes)
        if not node_list:
            return False
        node_set = set(node_list)
        stack = [node_list[0]]
        seen = {node_list[0]}
        while stack:
            u = stack.pop()
            for v in self.neighbors(u):
                v = int(v)
                if v in node_set and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(node_set)

    def edge_relationship_count(self) -> int:
        """``|R(2)|`` — number of edges of the 2-node relationship graph G(2)."""
        d = self._degrees
        return int((d * (d - 1) // 2).sum())

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CSRGraph):
            return bool(
                np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.num_edges))

    def __reduce__(self):
        # The defining arrays only: degrees, the neighbor-set cache and
        # the lookup tables are rebuilt on demand after unpickling.
        return (type(self), (self.indptr, self.indices))

    def copy(self) -> "CSRGraph":
        """Deep copy (new array storage)."""
        return CSRGraph(self.indptr.copy(), self.indices.copy())

    # ------------------------------------------------------------------
    # Shared-memory publication (see repro.graphs.shared)
    # ------------------------------------------------------------------
    def to_shared(self, name: Optional[str] = None):
        """Publish this graph into shared memory once; returns the owner
        :class:`~repro.graphs.shared.SharedCSRGraph` view.  Other
        processes attach zero-copy via :meth:`from_shared` with the
        owner's ``.handle``.  A graph that already lives in shared
        memory is returned unchanged."""
        from .shared import SharedCSRGraph

        if isinstance(self, SharedCSRGraph):
            return self
        return SharedCSRGraph.create(self, name=name)

    @classmethod
    def from_shared(cls, handle):
        """Attach to a segment published by :meth:`to_shared` elsewhere.

        ``handle`` is a :class:`~repro.graphs.shared.SharedGraphHandle`
        (or its ``to_dict()`` form).  The returned graph's arrays are
        read-only views over the shared pages; call its ``close()`` when
        done — unlinking stays with the owner.
        """
        from .shared import SharedCSRGraph

        return SharedCSRGraph.attach(handle)

    # ------------------------------------------------------------------
    # Disk persistence (see repro.graphs.mmap)
    # ------------------------------------------------------------------
    def save(self, directory):
        """Persist the CSR arrays to ``directory`` in the memory-mapped
        layout (versioned header + checksummed raw int64 files); reopen
        with :meth:`load` for a disk-backed
        :class:`~repro.graphs.mmap.MmapCSRGraph`."""
        from .mmap import save_csr

        return save_csr(self, directory)

    @classmethod
    def load(cls, directory, verify="auto"):
        """Open a directory written by :meth:`save` as a disk-backed
        :class:`~repro.graphs.mmap.MmapCSRGraph` (validated; see
        :meth:`repro.graphs.mmap.MmapCSRGraph.load`)."""
        from .mmap import MmapCSRGraph

        return MmapCSRGraph.load(directory, verify=verify)


BACKENDS = ("list", "csr", "delta", "mmap")


def as_backend(graph, backend: str, context: Optional[str] = None):
    """Convert ``graph`` to the named storage backend.

    ``"list"`` is the seed :class:`Graph` (lists + sets); ``"csr"`` is
    :class:`CSRGraph`; ``"delta"`` is the mutable
    :class:`~repro.graphs.delta.DeltaCSRGraph` overlay for edge-stream
    workloads; ``"mmap"`` is the disk-backed
    :class:`~repro.graphs.mmap.MmapCSRGraph` (an in-RAM graph is spilled
    to a process-lifetime temp directory).  A graph already in the
    requested backend is returned
    unchanged — identity, not a copy (a ``DeltaCSRGraph`` counts as
    ``"csr"``: it serves the full CSR read surface).  ``context`` names
    the call site requesting the conversion so failures (e.g. a
    :class:`RestrictedGraph` asked to become CSR) point at the flag to
    change rather than at library internals.
    """
    if backend == "list":
        return graph.to_graph() if isinstance(graph, CSRGraph) else graph
    if backend == "csr":
        if isinstance(graph, CSRGraph):
            return graph
        try:
            return CSRGraph.from_graph(graph)
        except GraphError as exc:
            site = context or 'as_backend(graph, "csr")'
            raise GraphError(
                f"{site}: {exc}. Pass backend=\"list\" (or omit the backend) "
                "to keep the crawl-access wrapper as-is, or convert the "
                "underlying full-access graph to CSR before wrapping it"
            ) from None
    if backend == "delta":
        from .delta import DeltaCSRGraph

        if isinstance(graph, DeltaCSRGraph):
            return graph
        try:
            return DeltaCSRGraph(CSRGraph.from_graph(graph))
        except GraphError as exc:
            site = context or 'as_backend(graph, "delta")'
            raise GraphError(f"{site}: {exc}") from None
    if backend == "mmap":
        from .mmap import to_mmap

        try:
            return to_mmap(graph)
        except GraphError as exc:
            site = context or 'as_backend(graph, "mmap")'
            raise GraphError(f"{site}: {exc}") from None
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
