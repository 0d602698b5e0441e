"""Exact variance analysis of the estimators (Lemma 5).

Lemma 5 states that under the stationary distribution, the CSS functional
``h_i(X) / p(X)`` has variance no larger than the basic functional
``h_i(X) / (alpha_i pi_e(X))``.  For small graphs both variances can be
computed *exactly* by enumerating the expanded state space M(l), turning
the lemma into a checkable identity (and quantifying how much CSS helps on
a given graph — the per-type variance ratios drive the Figure 4 gaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..graphlets.catalog import classify_bitmask, graphlets, induced_bitmask
from ..graphs.graph import Graph
from ..relgraph.construct import relationship_graph, state_degree_fn
from .alpha import alpha_table
from .css import sampling_weight
from .expanded_chain import enumerate_windows, stationary_weight


@dataclass(frozen=True)
class VarianceReport:
    """Exact first and second moments of both estimator functionals for one
    graphlet type.

    Both functionals share the same mean (the exact count C_i — that is
    unbiasedness); ``basic_variance >= css_variance`` is Lemma 5.
    """

    graphlet_index: int
    mean: float
    basic_variance: float
    css_variance: float

    @property
    def variance_reduction(self) -> float:
        """1 - Var_css / Var_basic (0 when CSS cannot help)."""
        if self.basic_variance == 0:
            return 0.0
        return 1.0 - self.css_variance / self.basic_variance


def lemma5_variances(graph: Graph, k: int, d: int) -> Dict[int, VarianceReport]:
    """Exact stationary variances of both functionals, per graphlet type.

    Enumerates M(l) of the explicit relationship graph — small graphs only
    (the cost is the number of length-l walks on G(d)).
    """
    l = k - d + 1
    relgraph, states = relationship_graph(graph, d)
    two_r = 2.0 * relgraph.num_edges
    alphas = alpha_table(k, d)
    num_types = len(alphas)

    degree_of_state = state_degree_fn(relgraph, states)

    mean: List[float] = [0.0] * num_types
    second_basic: List[float] = [0.0] * num_types
    second_css: List[float] = [0.0] * num_types
    for window in enumerate_windows(relgraph, l):
        window_states = [states[i] for i in window]
        nodes = sorted({v for s in window_states for v in s})
        if len(nodes) != k:
            continue
        mask = induced_bitmask(graph, nodes)
        type_index = classify_bitmask(mask, k)
        degrees = [relgraph.degree(i) for i in window]
        pi_e = stationary_weight(degrees) / two_r
        basic_value = 1.0 / (alphas[type_index] * pi_e)
        css_value = two_r / sampling_weight(mask, nodes, k, d, degree_of_state)
        mean[type_index] += pi_e * basic_value
        second_basic[type_index] += pi_e * basic_value**2
        second_css[type_index] += pi_e * css_value**2

    return {
        g.index: VarianceReport(
            graphlet_index=g.index,
            mean=mean[g.index],
            basic_variance=second_basic[g.index] - mean[g.index] ** 2,
            css_variance=second_css[g.index] - mean[g.index] ** 2,
        )
        for g in graphlets(k)
        if alphas[g.index] > 0
    }
