"""Exact counting: ground truth for every estimator in the library."""

from collections.abc import Hashable
from functools import lru_cache
from typing import Dict

from ..graphs.graph import Graph
from .enumerate import (
    count_connected_subgraphs,
    enumerate_connected_subgraphs,
    exact_counts as _esu_counts,
)
from .fourcounts import exact_four_counts, noninduced_four_counts
from .triads import (
    TriadCensus,
    edge_triangle_counts,
    exact_triad_counts,
    global_clustering_coefficient,
    triad_census,
    triangle_count,
    triangles_per_edge,
    triangles_per_node,
    wedge_count,
)


def exact_counts(graph: Graph, k: int) -> Dict[int, int]:
    """Exact graphlet counts for any supported k.

    The closed forms count k = 3 and k = 4 (orders of magnitude faster
    than enumeration); larger k enumerates with ESU
    (:func:`repro.exact.enumerate.exact_counts`, which also cross-checks
    the closed forms).
    """
    if k == 3:
        return exact_triad_counts(graph)
    if k == 4:
        return exact_four_counts(graph)
    return _esu_counts(graph, k)


def exact_concentrations(graph: Graph, k: int) -> Dict[int, float]:
    """Exact graphlet concentrations ``c_i^k = C_i^k / sum_j C_j^k`` for
    any supported k (see :func:`exact_counts`)."""
    counts = exact_counts(graph, k)
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"graph has no connected {k}-node subgraphs")
    return {index: count / total for index, count in counts.items()}


@lru_cache(maxsize=64)
def _cached_counts(graph: Graph, k: int):
    return exact_counts(graph, k)


def exact_counts_cached(graph: Graph, k: int) -> Dict[int, int]:
    """Memoized :func:`exact_counts`.

    ``Graph`` hashes cheaply and compares structurally, so repeated
    ground-truth requests for the same dataset — the common pattern across
    the benchmark suite, where 5-node enumeration costs minutes — hit the
    cache.  A defensive copy is returned.  An unhashable graph (the
    mutable :class:`~repro.graphs.DeltaCSRGraph`, whose edges change
    under one identity) is counted uncached.
    """
    if not isinstance(graph, Hashable):
        return exact_counts(graph, k)
    return dict(_cached_counts(graph, k))


def exact_concentrations_cached(graph: Graph, k: int) -> Dict[int, float]:
    """Memoized :func:`exact_concentrations`."""
    counts = exact_counts_cached(graph, k)
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"graph has no connected {k}-node subgraphs")
    return {index: count / total for index, count in counts.items()}


__all__ = [
    "TriadCensus",
    "count_connected_subgraphs",
    "edge_triangle_counts",
    "enumerate_connected_subgraphs",
    "exact_concentrations",
    "exact_counts",
    "exact_counts_cached",
    "exact_concentrations_cached",
    "exact_four_counts",
    "exact_triad_counts",
    "global_clustering_coefficient",
    "noninduced_four_counts",
    "triad_census",
    "triangle_count",
    "triangles_per_edge",
    "triangles_per_node",
    "wedge_count",
]
