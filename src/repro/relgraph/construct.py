"""Explicit construction of the subgraph relationship graph G(d).

In production the framework never materializes G(d) (the paper calls this
"impractical due to intensive computation cost"); this module builds it
anyway, for *small* graphs, because an explicit G(d) is the ideal oracle:

* validating the on-the-fly neighbor generation in :mod:`.spaces`,
* checking connectivity of G(d) (Theorem 3.1 of Wang et al. [36]),
* computing exact stationary distributions / mixing times of walks on G(d)
  for the Theorem 3 bound, and
* exact |R(d)| for count estimation with d >= 3.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Tuple

from ..graphs.graph import Graph
from .spaces import State


def enumerate_states(graph: Graph, d: int) -> List[State]:
    """All states of G(d): connected induced d-node subgraphs, as sorted
    tuples (delegates to the ESU enumerator)."""
    from ..exact.enumerate import enumerate_connected_subgraphs

    return list(enumerate_connected_subgraphs(graph, d))


def relationship_graph(graph: Graph, d: int) -> Tuple[Graph, List[State]]:
    """Materialize G(d) = (H(d), R(d)).

    Returns
    -------
    (relgraph, states):
        ``relgraph`` is a :class:`Graph` whose node ``i`` corresponds to
        ``states[i]``; ``states`` is sorted lexicographically.
    """
    states = sorted(enumerate_states(graph, d))
    index: Dict[State, int] = {s: i for i, s in enumerate(states)}
    edges = []
    if d == 1:
        edges = [(u, v) for u, v in graph.edges()]
    else:
        # Two states are adjacent iff they share d-1 nodes.  Group states by
        # each (d-1)-subset; states sharing a subset are pairwise adjacent.
        buckets: Dict[Tuple[int, ...], List[int]] = {}
        for i, s in enumerate(states):
            for subset in combinations(s, d - 1):
                buckets.setdefault(subset, []).append(i)
        seen = set()
        for members in buckets.values():
            for a_pos in range(len(members)):
                for b_pos in range(a_pos + 1, len(members)):
                    pair = (members[a_pos], members[b_pos])
                    if pair not in seen:
                        seen.add(pair)
                        edges.append(pair)
    return Graph(len(states), edges), states


def state_degree_fn(relgraph: Graph, states: List[State]) -> Callable[[State], int]:
    """The G(d)-degree of a state (a sorted node tuple), read off an
    explicit :func:`relationship_graph` — an O(1) lookup where
    :meth:`~repro.relgraph.spaces.WalkSpace.degree` enumerates."""
    return {state: relgraph.degree(i) for i, state in enumerate(states)}.__getitem__


def relationship_edge_count(graph: Graph, d: int) -> int:
    """|R(d)| — number of edges of G(d).

    Closed forms for d <= 2 (|R(1)| = |E|, |R(2)| = sum_v C(d_v, 2));
    explicit construction otherwise.
    """
    if d == 1:
        return graph.num_edges
    if d == 2:
        return graph.edge_relationship_count()
    relgraph, _ = relationship_graph(graph, d)
    return relgraph.num_edges
