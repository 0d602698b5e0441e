"""Core undirected simple graph type.

The whole library operates on :class:`Graph` — an immutable-after-build,
adjacency-list representation of a simple undirected graph with contiguous
integer node ids ``0 .. n-1``.  Two parallel adjacency structures are kept:

* sorted Python lists (``neighbors``) — cheap uniform sampling by index and
  deterministic iteration order, and
* hash sets (``has_edge``) — O(1) adjacency tests, which dominate graphlet
  classification (each k-node sample needs up to C(k, 2) adjacency probes).

The memory overhead of the duplicate structure is acceptable at the scales
this reproduction targets (up to a few million edges).
"""

from __future__ import annotations

import numbers
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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


class Graph:
    """A simple undirected graph with nodes ``0 .. num_nodes - 1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Nodes are always the contiguous integers
        ``0 .. num_nodes - 1``; isolated nodes are allowed.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected; duplicate
        edges (in either orientation) are silently collapsed, matching the
        paper's simple-graph assumption.
    """

    __slots__ = ("_adj", "_adj_sets", "_num_edges", "_csr")

    def __init__(self, num_nodes: int, edges: Iterable[Edge] = ()) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        adj_sets: List[Set[int]] = [set() for _ in range(num_nodes)]
        num_edges = 0
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                u, v = _coerce_node_id(u, (u, v)), _coerce_node_id(v, (u, v))
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) not allowed in a simple graph")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise GraphError(
                    f"edge ({u}, {v}) out of range for num_nodes={num_nodes}"
                )
            if v not in adj_sets[u]:
                adj_sets[u].add(v)
                adj_sets[v].add(u)
                num_edges += 1
        self._adj: List[List[int]] = [sorted(s) for s in adj_sets]
        self._adj_sets: List[Set[int]] = adj_sets
        self._num_edges = num_edges

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge], num_nodes: Optional[int] = None) -> "Graph":
        """Build a graph from an edge iterable.

        If ``num_nodes`` is omitted it is inferred as ``max node id + 1``.
        """
        edge_list = [
            (_coerce_node_id(u, (u, v)), _coerce_node_id(v, (u, v)))
            for u, v in edges
        ]
        if num_nodes is None:
            num_nodes = 1 + max((max(u, v) for u, v in edge_list), default=-1)
        return cls(num_nodes, edge_list)

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

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (including isolated ones)."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def nodes(self) -> range:
        """All node ids as a range."""
        return range(len(self._adj))

    def edges(self) -> Iterator[Edge]:
        """Iterate edges as ``(u, v)`` with ``u < v``, sorted."""
        for u, neighbors in enumerate(self._adj):
            for v in neighbors:
                if u < v:
                    yield (u, v)

    def full_access_csr(self):
        """This graph as a :class:`~repro.graphs.CSRGraph`, for the
        vectorized window pipeline's probes: built on first use and kept
        (a graph never changes after construction)."""
        csr = getattr(self, "_csr", None)  # the slot is unset until then
        if csr is None:
            from .csr import CSRGraph  # lazy: csr imports this module

            csr = self._csr = CSRGraph.from_graph(self)
        return csr

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return len(self._adj[v])

    def degrees(self) -> List[int]:
        """Degree of every node, indexed by node id."""
        return [len(neighbors) for neighbors in self._adj]

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
        return max((len(n) for n in self._adj), default=0)

    # ------------------------------------------------------------------
    # Derived quantities used by the estimators
    # ------------------------------------------------------------------
    def induced_edges(self, nodes: Sequence[int]) -> List[Edge]:
        """Edges of the subgraph induced by ``nodes`` (as pairs of node ids)."""
        node_list = list(nodes)
        found = []
        for i, u in enumerate(node_list):
            u_set = self._adj_sets[u]
            for v in node_list[i + 1 :]:
                if v in u_set:
                    found.append((u, v) if u < v else (v, u))
        return found

    def induced_edge_count(self, nodes: Sequence[int]) -> int:
        """Number of edges in the subgraph induced by ``nodes``."""
        node_list = list(nodes)
        count = 0
        for i, u in enumerate(node_list):
            u_set = self._adj_sets[u]
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
            for v in self._adj_sets[u]:
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
        return sum(d * (d - 1) // 2 for d in self.degrees())

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.num_edges))

    def copy(self) -> "Graph":
        """Deep copy (new adjacency storage)."""
        return Graph(self.num_nodes, self.edges())
