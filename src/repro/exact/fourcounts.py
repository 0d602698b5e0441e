"""Exact 4-node graphlet counts via combinatorial formulas.

The paper's "Exact" baseline uses combinatorial counters (Ahmed et al. [3],
Hocevar & Demsar [13]) that avoid per-subgraph enumeration.  This module
implements that approach for k = 4: count *non-induced* occurrences of each
pattern from triangle/co-degree statistics, then convert to induced counts
with the (upper-triangular) spanning-subgraph inclusion matrix.

Non-induced counts:

* 3-paths      N_p4   = sum_e (d_u - 1)(d_v - 1) - 3T
* 3-stars      N_star = sum_v C(d_v, 3)
* 4-cycles     N_c4   = (1/2) sum_{u<w} C(codeg(u, w), 2)
* tailed-tri.  N_tail = sum_triangles (d_u + d_v + d_w - 6)
* diamonds     N_dia  = sum_e C(t_e, 2)
* 4-cliques    N_k4   = (1/6) sum_e |{adjacent pairs in common-neighborhood}|

Inversion (each non-induced pattern count is a positive combination of the
induced counts of its super-patterns; coefficients = number of spanning
copies of the pattern in each graphlet):

    I_k4  = N_k4
    I_dia = N_dia - 6 I_k4
    I_c4  = N_c4 - I_dia - 3 I_k4
    I_tail= N_tail - 4 I_dia - 12 I_k4
    I_star= N_star - I_tail - 2 I_dia - 4 I_k4
    I_p4  = N_p4 - 2 I_tail - 4 I_c4 - 6 I_dia - 12 I_k4

Cross-validated against the ESU enumerator in the test suite.
"""

from __future__ import annotations

from typing import Dict

from ..graphs.graph import Graph
from .triads import triangle_count, triangles_per_edge  # noqa: F401  (re-export)

# Catalog order for k = 4: 0 path, 1 star, 2 cycle, 3 tailed, 4 diamond, 5 clique.
PATH, STAR, CYCLE, TAILED, DIAMOND, CLIQUE = range(6)


def noninduced_four_counts(graph: Graph) -> Dict[str, int]:
    """The six non-induced 4-node pattern counts (see module docstring)."""
    degrees = graph.degrees()
    # Directed per-edge triangle array (each undirected edge twice).
    t_edge = triangles_per_edge(graph)
    total_triangles = int(t_edge.sum()) // 6

    n_p4 = (
        sum((degrees[u] - 1) * (degrees[v] - 1) for u, v in graph.edges())
        - 3 * total_triangles
    )
    n_star = sum(d * (d - 1) * (d - 2) // 6 for d in degrees)

    # Co-degree pair statistics: for each node, every unordered pair of its
    # neighbors gains one common neighbor.
    codeg: Dict[tuple, int] = {}
    for v in graph.nodes():
        neighbors = graph.neighbors(v)
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1 :]:
                key = (a, b)
                codeg[key] = codeg.get(key, 0) + 1
    n_c4 = sum(c * (c - 1) // 2 for c in codeg.values()) // 2

    n_tail = 0
    for u in graph.nodes():
        higher = [v for v in graph.neighbors(u) if v > u]
        for i, v in enumerate(higher):
            v_set = graph.neighbor_set(v)
            for w in higher[i + 1 :]:
                if w in v_set:
                    n_tail += degrees[u] + degrees[v] + degrees[w] - 6

    n_dia = int((t_edge * (t_edge - 1) // 2).sum()) // 2

    k4_times_6 = 0
    for u, v in graph.edges():
        common = [w for w in graph.neighbors(u) if w in graph.neighbor_set(v)]
        for i, w in enumerate(common):
            w_set = graph.neighbor_set(w)
            k4_times_6 += sum(1 for x in common[i + 1 :] if x in w_set)
    n_k4, remainder = divmod(k4_times_6, 6)
    assert remainder == 0, "K4 raw count must be divisible by 6"

    return {
        "p4": n_p4,
        "star": n_star,
        "c4": n_c4,
        "tail": n_tail,
        "diamond": n_dia,
        "k4": n_k4,
    }


def exact_four_counts(graph: Graph) -> Dict[int, int]:
    """Exact induced 4-node graphlet counts, keyed by catalog index."""
    n = noninduced_four_counts(graph)
    i_k4 = n["k4"]
    i_dia = n["diamond"] - 6 * i_k4
    i_c4 = n["c4"] - i_dia - 3 * i_k4
    i_tail = n["tail"] - 4 * i_dia - 12 * i_k4
    i_star = n["star"] - i_tail - 2 * i_dia - 4 * i_k4
    i_p4 = n["p4"] - 2 * i_tail - 4 * i_c4 - 6 * i_dia - 12 * i_k4
    counts = {
        PATH: i_p4,
        STAR: i_star,
        CYCLE: i_c4,
        TAILED: i_tail,
        DIAMOND: i_dia,
        CLIQUE: i_k4,
    }
    for index, value in counts.items():
        if value < 0:
            raise AssertionError(
                f"negative induced count {value} for type {index}: "
                "inclusion inversion failed"
            )
    return counts

