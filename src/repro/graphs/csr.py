"""CSR (compressed sparse row) graph storage.

:class:`CSRGraph` is the one in-memory storage class of the library: a
simple undirected graph with node ids ``0 .. n-1`` held in two NumPy
arrays — ``indptr`` (length ``n + 1``) and ``indices`` (length ``2m``,
each row sorted ascending) — the classic CSR layout used by scientific
sparse-matrix kernels and by locality-aware graph systems.  Every
full-access graph is one: the list :class:`~repro.graphs.Graph`
subclasses it, as do the delta, disk and shared-memory forms
(:mod:`repro.graphs.delta`, :mod:`repro.graphs.mmap`,
:mod:`repro.graphs.shared`).  Only the crawl wrapper
:class:`~repro.graphs.RestrictedGraph` is not.  All of them answer the
whole-graph and vectorized reads (``num_edges``, ``edges``,
``degrees_array``, ``has_edges``, ...) from the same arrays.

Two walker families
-------------------
The backend name (:func:`as_backend`, the CLI's ``--backend`` flag)
therefore chooses how a graph is *walked*, not how it is stored:

* ``"list"`` — a :class:`~repro.graphs.Graph`: Python scalar views
  (sorted neighbor lists and hash sets, built from the arrays on first
  scalar use) and one serial walker per chain, each drawing from its own
  ``random.Random``;
* ``"csr"`` — a plain :class:`CSRGraph` (or a delta, disk or shared
  form): array rows for scalar reads, O(log deg) binary-search
  ``has_edge``, and the batched engine (:mod:`repro.walks.batched`) for
  multi-chain runs, whose uniform neighbor draws are array loads
  (``indices[indptr[v] + j]``) across all chains at once.

A single-chain run draws the same walk on both for a fixed seed; a
multi-chain run does not, as the serial walkers and the batched engine
draw from different generators (``tests/srw_golden.json`` pins both).
"""

from __future__ import annotations

import numbers
import operator
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .tables import EdgeTables

Edge = Tuple[int, int]


class GraphError(ValueError):
    """Raised for structurally invalid graph operations or inputs."""


def _coerce_node_id(node, edge) -> int:
    """Validate one endpoint of an edge and return it as a plain ``int``.

    Anything that is not an integer (floats, strings, ``None``, ...) — or
    is a ``bool``, which would silently alias node 0/1 — raises
    :class:`GraphError` *here*, with the offending edge in the message,
    instead of surfacing later as an opaque ``TypeError`` inside
    ``sorted()`` or a set operation.  NumPy integer scalars are accepted
    and normalized to native ``int`` so adjacency storage stays uniform.
    """
    if isinstance(node, bool) or not isinstance(node, numbers.Integral):
        raise GraphError(
            f"node ids must be integers, got {node!r} "
            f"({type(node).__name__}) in edge {edge!r}"
        )
    return int(node)

#: Cache cap for memoized ``neighbor_set`` rows (hot hub nodes dominate
#: random-walk classification probes; a bounded cache keeps memory flat).
_NEIGHBOR_SET_CACHE_CAP = 1 << 16

_BOOL_TYPES = frozenset((bool, np.bool_))

#: Rows per block of :meth:`CSRGraph.edges`: bounds what one step of the
#: iterator reads of a disk-backed graph.
_EDGE_BLOCK_ROWS = 1 << 12


def sorted_unique(values) -> np.ndarray:
    """The sorted distinct values of ``values``, flattened, like a plain
    ``np.unique(values)``, but by one sort and a mask: NumPy 2's plain
    ``np.unique`` hashes, which is many times slower on integer keys."""
    return _drop_repeats(np.sort(values, axis=None))


def _drop_repeats(keys: np.ndarray) -> np.ndarray:
    """A sorted 1-D array without its repeats."""
    first = np.ones(keys.size, dtype=bool)  # sorted: a repeat equals its predecessor
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _edge_array(edges: Iterable[Edge], label: str) -> np.ndarray:
    """A batch of ``(u, v)`` pairs as an ``(m, 2)`` ``int64`` array.

    Node ids must be integers, as for :class:`Graph`: the batch's dtype
    rejects floats, strings and ``None``, and a scan of element types
    catches bools, which NumPy folds silently into an int array.  A
    rejected batch is walked pair by pair, so the :class:`GraphError`
    names its first bad pair.
    """
    seq = edges if isinstance(edges, np.ndarray) else list(edges)
    if not len(seq):
        return np.empty((0, 2), dtype=np.int64)
    try:
        arr = np.asarray(seq)
    except ValueError:  # ragged: some pair is not two scalars
        arr = None
    if (
        arr is None
        or arr.shape[1:] != (2,)
        or arr.dtype.kind not in "iu"
        or (arr is not seq and not _BOOL_TYPES.isdisjoint(map(type, chain.from_iterable(seq))))
    ):
        for pair in seq:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise GraphError(f"{label} must be (u, v) pairs, got {pair!r}") from None
            _coerce_node_id(u, (u, v))
            _coerce_node_id(v, (u, v))
    try:
        return arr.astype(np.int64, copy=False)
    except OverflowError:  # Python ints beyond int64
        raise GraphError(f"{label} has node ids beyond the int64 range") from None


def _sized_edges(edges: Iterable[Edge], num_nodes: Optional[int]) -> Tuple[int, np.ndarray]:
    """``(num_nodes, pairs)`` for the ``from_edges`` constructors: the
    node count is ``max id + 1`` when omitted."""
    pairs = _edge_array(edges, "edges")
    if num_nodes is None:
        num_nodes = max(int(pairs.max()) + 1, 0) if pairs.size else 0
    return num_nodes, pairs


def _build(num_nodes: int, edges: Iterable[Edge]) -> Tuple[np.ndarray, np.ndarray]:
    """The one edge-to-CSR build behind every edge-list constructor:
    validate, sort the directed keys ``u * n + v`` of both orientations
    once, drop repeats; returns ``(indptr, indices)``.  Errors name the
    first offending edge in input order: id types, then self-loops, then
    ids outside ``[0, num_nodes)``.  The arrays are read-only, as a list
    :class:`~repro.graphs.Graph` shares them with its plain CSR form."""
    n = operator.index(num_nodes)
    if n < 0:
        raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
    pairs = _edge_array(edges, "edges")
    u, v = pairs[:, 0], pairs[:, 1]
    loops = u == v
    if loops.any():
        i = int(np.argmax(loops))
        raise GraphError(f"self-loop ({u[i]}, {v[i]}) not allowed in a simple graph")
    # Negative ids wrap to huge unsigned values: one test per bound.
    outside = pairs.view(np.uint64) >= n
    if outside.any():
        i = int(np.argmax(outside.any(axis=1)))
        raise GraphError(f"edge ({u[i]}, {v[i]}) out of range for num_nodes={n}")
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()  # in place: a build's largest array is not copied
    keys = _drop_repeats(keys)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    indices = keys % n
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def _rebuild(cls, indptr: np.ndarray, indices: np.ndarray) -> "CSRGraph":
    """A ``cls`` over CSR arrays the caller owns, with no edge sort: the
    one path of unpickling, :meth:`CSRGraph.copy` and
    :meth:`CSRGraph.to_graph`.  The arrays become read-only; a list
    :class:`~repro.graphs.Graph` starts with unbuilt scalar views."""
    indptr.flags.writeable = indices.flags.writeable = False
    graph = cls.__new__(cls)
    CSRGraph.__init__(graph, indptr, indices)
    return graph


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
    """An immutable simple undirected graph stored as CSR arrays.

    Build with :meth:`from_edges`, or take the plain CSR form of a list
    :class:`~repro.graphs.Graph` with :meth:`from_graph`.  The
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
    def from_graph(cls, graph) -> "CSRGraph":
        """``graph.full_access_csr()``: a list :class:`~repro.graphs.Graph`'s
        plain CSR form over the arrays it was built on (not a copy), any
        other CSR graph itself."""
        if not isinstance(graph, CSRGraph):
            raise GraphError(
                f"cannot build a CSRGraph from {type(graph).__name__}: full "
                "adjacency access is required, but a RestrictedGraph only "
                "exposes crawled neighborhoods"
            )
        return graph.full_access_csr()

    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], num_nodes: Optional[int] = None
    ) -> "CSRGraph":
        """Build from an edge iterable (deduplicated, validated) with one
        NumPy sort and no per-edge Python work.  ``num_nodes`` defaults to
        ``max node id + 1``."""
        return CSRGraph(*_build(*_sized_edges(edges, num_nodes)))

    def to_graph(self):
        """This graph as a list :class:`~repro.graphs.Graph` (itself if it
        is one) over a copy of its arrays."""
        from .graph import Graph  # lazy: graph subclasses this module's class

        if isinstance(self, Graph):
            return self
        return _rebuild(Graph, np.array(self.indptr), np.array(self.indices))

    def _edge_block(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """The edges of rows ``lo`` to ``hi`` once, as sorted ``(u, v)``
        columns with ``u < v``."""
        indptr = self.indptr
        cols = np.asarray(self.indices[indptr[lo] : indptr[hi]])
        rows = np.repeat(np.arange(lo, hi, dtype=np.int64), self.degrees_array[lo:hi])
        upper = rows < cols
        return rows[upper], cols[upper]

    def full_access_csr(self) -> "CSRGraph":
        """The CSR form the vectorized window pipeline probes: itself."""
        return self

    # ------------------------------------------------------------------
    # Basic accessors
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
        """Iterate edges as ``(u, v)`` Python ints with ``u < v``, sorted.
        Lazy: a block of rows is read at a time."""
        return chain.from_iterable(
            map(self._edge_tuples, range(0, self.num_nodes, _EDGE_BLOCK_ROWS))
        )

    def _edge_tuples(self, lo: int) -> Iterator[Edge]:
        """The edges of the row block at ``lo``.  A row's edges share one
        int object for ``u``, which keeps a materialized edge list small."""
        hi = min(lo + _EDGE_BLOCK_ROWS, self.num_nodes)
        rows, cols = self._edge_block(lo, hi)
        return zip(np.arange(lo, hi, dtype=object)[rows - lo].tolist(), cols.tolist())

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
        spaces do with a list :class:`~repro.graphs.Graph`'s neighbor
        lists.
        """
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_set(self, v: int) -> frozenset:
        """Neighbor set of ``v`` (memoized; bounded cache).

        A list :class:`~repro.graphs.Graph` keeps these permanently; here
        they are made on demand for the d >= 3 walk spaces and graphlet
        classification, caching the most recently touched rows (walks
        revisit hubs).
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
        return bool(i < hi and self.indices[i] == v)

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
        """This graph's derived lookup tables, built once and kept by its
        :meth:`full_access_csr` form: a list Graph and its plain CSR form
        share one build."""
        owner = self.full_access_csr()
        tables = owner._tables
        if tables is None:
            tables = owner._tables = EdgeTables(owner.indptr, owner.indices, owner._degrees)
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
            u_set = self.neighbor_set(u)
            for v in node_list[i + 1 :]:
                if v in u_set:
                    found.append((u, v) if u < v else (v, u))
        return found

    def induced_edge_count(self, nodes: Sequence[int]) -> int:
        """Number of edges in the subgraph induced by ``nodes``."""
        node_list = list(nodes)
        count = 0
        for i, u in enumerate(node_list):
            u_set = self.neighbor_set(u)
            count += sum(1 for v in node_list[i + 1 :] if v in u_set)
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
            for v in self.neighbor_set(u):
                if v in node_set and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(node_set)

    def edge_relationship_count(self) -> int:
        """``|R(2)|`` — number of edges of the 2-node relationship graph G(2).

        Two edges of ``G`` are adjacent in G(2) iff they share an endpoint, so
        ``|R(2)| = (1/2) * sum over edges (u,v) of (d_u + d_v - 2)``
        (equivalently ``sum over nodes of C(d_v, 2)``).
        """
        d = self._degrees
        return int((d * (d - 1) // 2).sum())

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

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
        # The defining arrays only: degrees, the scalar views and caches
        # and the lookup tables are rebuilt on demand after unpickling.
        return (_rebuild, (type(self), self.indptr, self.indices))

    def copy(self) -> "CSRGraph":
        """Deep copy of the same type (new array storage)."""
        return _rebuild(type(self), self.indptr.copy(), self.indices.copy())

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
    """Convert ``graph`` to the named backend.

    ``"list"`` is a :class:`~repro.graphs.Graph` (Python scalar views,
    one serial walker per chain), built from a copy of a CSR graph's
    arrays; ``"csr"`` is the graph's plain :class:`CSRGraph` form (the
    batched engine for multi-chain runs), sharing a Graph's arrays;
    ``"delta"`` is the mutable
    :class:`~repro.graphs.delta.DeltaCSRGraph` overlay for edge-stream
    workloads; ``"mmap"`` is the disk-backed
    :class:`~repro.graphs.mmap.MmapCSRGraph` (an in-RAM graph is spilled
    to a process-lifetime temp directory).  A graph already in the
    requested backend is returned unchanged — identity, not a copy (a
    delta, disk or shared graph counts as ``"csr"``).  ``context`` names
    the call site requesting the conversion so failures (e.g. a
    :class:`RestrictedGraph` asked to become CSR) point at the flag to
    change rather than at library internals.
    """
    if backend == "list":
        return graph.to_graph() if isinstance(graph, CSRGraph) else graph
    if backend == "csr":
        if isinstance(graph, CSRGraph):
            return graph.full_access_csr()
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
            return DeltaCSRGraph(graph)
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
