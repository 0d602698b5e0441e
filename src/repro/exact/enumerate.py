"""ESU (FANMOD) enumeration of connected induced k-node subgraphs.

This is the library's ground-truth engine: the paper obtains exact graphlet
concentrations "through well-tuned enumeration methods [3, 13]"; we use the
ESU algorithm (Wernicke 2006), which enumerates every connected induced
k-node subgraph exactly once, and classify each enumerated subgraph with the
catalog's canonical classifier.

Cost is linear in the number of k-subgraphs, which explodes with k — hence
the dataset tiers in :mod:`repro.graphs.datasets` (the paper likewise limits
5-node ground truth to its smallest graphs).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..graphlets.catalog import classify_nodes, graphlets
from ..graphs.graph import Graph


def enumerate_connected_subgraphs(graph: Graph, k: int) -> Iterator[Tuple[int, ...]]:
    """Yield each connected induced k-node subgraph exactly once.

    Subgraphs are emitted as sorted node tuples.  For k = 1, 2 this reduces
    to nodes / edges.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k == 1:
        for v in graph.nodes():
            yield (v,)
        return
    if k == 2:
        yield from graph.edges()
        return

    neighbor_set = graph.neighbor_set

    def extend(
        subgraph: List[int], extension: List[int], root: int
    ) -> Iterator[Tuple[int, ...]]:
        if len(subgraph) == k - 1:
            # Leaf level: each extension node completes one subgraph.
            base = tuple(subgraph)
            for w in extension:
                yield tuple(sorted(base + (w,)))
            return
        in_sub = set(subgraph)
        sub_neighborhood = {x for u in subgraph for x in neighbor_set(u)}
        ext = list(extension)
        while ext:
            w = ext.pop()
            new_ext = list(ext)
            for x in neighbor_set(w):
                if x > root and x not in in_sub and x not in sub_neighborhood:
                    new_ext.append(x)
            yield from extend(subgraph + [w], new_ext, root)

    for v in graph.nodes():
        yield from extend([v], [u for u in graph.neighbors(v) if u > v], v)


def count_connected_subgraphs(graph: Graph, k: int) -> int:
    """Number of connected induced k-node subgraphs (total graphlet count)."""
    return sum(1 for _ in enumerate_connected_subgraphs(graph, k))


def exact_counts(graph: Graph, k: int) -> Dict[int, int]:
    """Exact per-type graphlet counts ``C_i^k`` via full enumeration.

    Returns a dict mapping graphlet index (catalog order) -> count, with an
    entry for every type (zero included).
    """
    counts = {g.index: 0 for g in graphlets(k)}
    for nodes in enumerate_connected_subgraphs(graph, k):
        counts[classify_nodes(graph, nodes)] += 1
    return counts

