"""Core undirected simple graph type.

The whole library operates on :class:`Graph` — an immutable simple
undirected graph with contiguous integer node ids ``0 .. n-1``.  Arrays
come first: construction validates the edges and builds the sorted CSR
arrays with one NumPy sort (:mod:`repro.graphs.csr`); they are the graph
(``full_access_csr()``) and answer whole-graph queries.  Scalar reads
use Python views built from them on first use, then kept:

* sorted Python lists (``neighbors``, ``degree``) — cheap uniform
  sampling by index and deterministic iteration order, and
* hash sets (``neighbor_set``, ``has_edge``) — O(1) adjacency tests,
  which dominate graphlet classification (each k-node sample needs up
  to C(k, 2) adjacency probes).

A graph only the CSR kernels walk never builds them; a pickle carries
the edges only.
"""

from __future__ import annotations

import numbers
import weakref
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

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


class _FirstUse:
    """A view's slot until the first read indexes it: that read builds the
    view into the slot, so later reads index the real list unchecked."""

    __slots__ = ("_graph", "_build")

    def __init__(self, graph: "Graph", build) -> None:
        self._graph = weakref.ref(graph)  # no cycle: a dropped graph frees at once
        self._build = build

    def __getitem__(self, v):
        return self._build(self._graph())[v]


class Graph:
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

    __slots__ = ("_csr", "_adj", "_adj_sets", "__weakref__")

    def __init__(self, num_nodes: int, edges: Iterable[Edge] = ()) -> None:
        from .csr import _build  # lazy: csr imports this module

        self._csr = _build(num_nodes, edges)
        self._adj = _FirstUse(self, Graph._lists)
        self._adj_sets = _FirstUse(self, Graph._sets)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge], num_nodes: Optional[int] = None) -> "Graph":
        """Build a graph from an edge iterable.

        If ``num_nodes`` is omitted it is inferred as ``max node id + 1``.
        """
        from .csr import _edge_array  # lazy: csr imports this module

        pairs = _edge_array(edges, "edges")
        if num_nodes is None:
            num_nodes = max(int(pairs.max()) + 1, 0) if pairs.size else 0
        return cls(num_nodes, pairs)

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
        flat, bounds = ids[self._csr.indices].tolist(), self._csr.indptr.tolist()
        adj = self._adj = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return adj

    def _sets(self) -> List[Set[int]]:
        """Build the neighbor sets from the neighbor lists (first use)."""
        sets = self._adj_sets = [set(self.neighbors(v)) for v in self.nodes()]
        return sets

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (including isolated ones)."""
        return self._csr.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._csr.num_edges

    def nodes(self) -> range:
        """All node ids as a range."""
        return range(self.num_nodes)

    def edges(self) -> Iterator[Edge]:
        """Iterate edges as ``(u, v)`` with ``u < v``, sorted."""
        return self._csr.edges()

    def full_access_csr(self):
        """This graph as a :class:`~repro.graphs.CSRGraph`: the arrays it
        was built on, shared (read-only), for the vectorized window
        pipeline's probes and :meth:`CSRGraph.from_graph`."""
        return self._csr

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return len(self._adj[v])

    def degrees(self) -> List[int]:
        """Degree of every node, indexed by node id."""
        return self._csr.degrees()

    def neighbors(self, v: int) -> List[int]:
        """Sorted neighbor list of ``v``.

        The returned list is the graph's internal storage — callers must not
        mutate it.
        """
        return self._adj[v]

    def neighbor_set(self, v: int) -> Set[int]:
        """Neighbor set of ``v`` (internal storage — do not mutate)."""
        return self._adj_sets[v]

    def has_edge(self, u: int, v: int) -> bool:
        """O(1) adjacency test."""
        return v in self._adj_sets[u]

    def max_degree(self) -> int:
        """Largest degree in the graph (0 for the empty graph)."""
        return self._csr.max_degree()

    # ------------------------------------------------------------------
    # Derived quantities used by the estimators (CSRGraph shares the
    # induced-subgraph probes: they only read neighbor_set)
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
        return self._csr.edge_relationship_count()

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._csr == other._csr

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.num_edges))

    def __reduce__(self):
        # The edges only: the Python lists and sets are rebuilt on first
        # scalar use after unpickling.
        return (type(self), (self.num_nodes, self._csr._edge_pairs()))

    def copy(self) -> "Graph":
        """Deep copy (new adjacency storage)."""
        return Graph(self.num_nodes, self._csr._edge_pairs())
