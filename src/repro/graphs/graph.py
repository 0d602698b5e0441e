"""The list graph: CSR storage plus Python scalar views.

The whole library operates on :class:`Graph` — an immutable simple
undirected graph with contiguous integer node ids ``0 .. n-1``.  It *is*
a :class:`~repro.graphs.CSRGraph`: construction validates the edges and
builds the sorted CSR arrays with one NumPy sort, and every whole-graph
and vectorized read (``num_edges``, ``edges``, ``degrees``,
``has_edges``, ...), equality, hashing, pickling and ``copy`` come from
there.  What a ``Graph`` adds is the ``"list"`` backend: its scalar
reads use Python views built from the arrays on first use, then kept:

* sorted Python lists (``neighbors``, ``degree``) — cheap uniform
  sampling by index and deterministic iteration order, and
* hash sets (``neighbor_set``, ``has_edge``) — O(1) adjacency tests,
  which dominate graphlet classification (each k-node sample needs up
  to C(k, 2) adjacency probes);

and its multi-chain runs take one serial walker per chain (see
:func:`~repro.walks.batched.batch_support`).  Its plain CSR form
(:meth:`Graph.full_access_csr`, ``backend="csr"``) shares its arrays and
walks multi-chain runs on the batched engine.  A graph only the CSR
kernels read never builds the views; a pickle carries the arrays only.
"""

from __future__ import annotations

import weakref
from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from .csr import CSRGraph, Edge, _build, _sized_edges


class _FirstUse:
    """A view's slot until the first read indexes it: that read builds the
    view into the slot, so later reads index the real list unchecked."""

    __slots__ = ("_graph", "_build")

    def __init__(self, graph: "Graph", build) -> None:
        self._graph = weakref.ref(graph)  # no cycle: a dropped graph frees at once
        self._build = build

    def __getitem__(self, v):
        return self._build(self._graph())[v]


class Graph(CSRGraph):
    """A simple undirected graph with nodes ``0 .. num_nodes - 1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Nodes are always the contiguous integers
        ``0 .. num_nodes - 1``; isolated nodes are allowed.
    edges:
        Iterable of ``(u, v)`` pairs, or an ``(m, 2)`` integer array.
        Self-loops are rejected; duplicate edges (in either orientation)
        are silently collapsed, matching the paper's simple-graph
        assumption.
    """

    __slots__ = ("_adj", "_adj_sets", "_plain", "__weakref__")

    def __new__(cls, *args, **kwargs):
        # Every Graph, built from edges or from arrays (unpickling, copy),
        # starts with unbuilt views and no plain CSR form.
        graph = super().__new__(cls)
        graph._adj = _FirstUse(graph, Graph._lists)
        graph._adj_sets = _FirstUse(graph, Graph._sets)
        graph._plain = None
        return graph

    def __init__(self, num_nodes: int, edges: Iterable[Edge] = ()) -> None:
        super().__init__(*_build(num_nodes, edges))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge], num_nodes: Optional[int] = None) -> "Graph":
        """Build a graph from an edge iterable.

        If ``num_nodes`` is omitted it is inferred as ``max node id + 1``.
        """
        return cls(*_sized_edges(edges, num_nodes))

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Iterable[int]]) -> "Graph":
        """Build a graph from an adjacency-list sequence (index = node id)."""
        edges = [
            (u, v)
            for u, neighbors in enumerate(adjacency)
            for v in neighbors
            if u < v
        ]
        return cls(len(adjacency), edges)

    def _lists(self) -> List[List[int]]:
        """Build the sorted neighbor lists from the CSR rows (first use)."""
        # One shared int object per node id, not 2m fresh ones: less memory, fewer misses.
        ids = np.arange(self.num_nodes, dtype=object)
        flat, bounds = ids[self.indices].tolist(), self.indptr.tolist()
        adj = self._adj = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return adj

    def _sets(self) -> List[Set[int]]:
        """Build the neighbor sets from the neighbor lists (first use)."""
        sets = self._adj_sets = [set(self.neighbors(v)) for v in self.nodes()]
        return sets

    def full_access_csr(self) -> CSRGraph:
        """This graph's plain :class:`~repro.graphs.CSRGraph` form over the
        same read-only arrays: what ``backend="csr"`` walks, and what the
        vectorized window pipeline probes.  Made on first use and kept, so
        both forms share one build of the lookup tables."""
        plain = self._plain
        if plain is None:
            plain = self._plain = CSRGraph(self.indptr, self.indices)
        return plain

    # ------------------------------------------------------------------
    # Scalar reads through the Python views
    # ------------------------------------------------------------------
    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        if v < 0:
            raise self._node_range_error(v)
        try:
            return len(self._adj[v])
        except IndexError:
            raise self._node_range_error(v) from None

    def neighbors(self, v: int) -> List[int]:
        """Sorted neighbor list of ``v``.

        The returned list is the graph's internal storage — callers must not
        mutate it.  Raises :class:`GraphError` for an id outside
        ``[0, num_nodes)``, like every scalar read (a negative index would
        read a row from the end of the list).
        """
        if v < 0:
            raise self._node_range_error(v)
        try:
            return self._adj[v]
        except IndexError:
            raise self._node_range_error(v) from None

    def neighbor_set(self, v: int) -> Set[int]:
        """Neighbor set of ``v`` (internal storage — do not mutate)."""
        if v < 0:
            raise self._node_range_error(v)
        try:
            return self._adj_sets[v]
        except IndexError:
            raise self._node_range_error(v) from None

    def has_edge(self, u: int, v: int) -> bool:
        """O(1) adjacency test."""
        if v in self.neighbor_set(u):
            return True
        if not 0 <= v < len(self._adj_sets):  # built by the read of u's set
            raise self._node_range_error(v)
        return False
