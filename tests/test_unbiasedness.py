"""Deterministic unbiasedness checks (Eq. 4 and Eq. 7).

Instead of sampling, enumerate the *entire* expanded state space M(l) for a
small graph, weight every window by its exact stationary probability
(Theorem 2), and apply the estimator's own re-weighting code.  The
expectation

    E_pie[ h_i(X) / (alpha_i pi_e(X)) ]  =  C_i          (basic, Eq. 4)
    E_pie[ h_i(X) / p(X) ]               =  C_i          (CSS,   Eq. 7)

must equal the exact graphlet counts *exactly* (up to float rounding) —
this validates the full weighting pipeline (alpha coefficients, Theorem 2
weights, CSS templates, classification) with zero statistical noise.
"""

from __future__ import annotations

import math

import pytest

from repro.core.alpha import alpha_table
from repro.core.css import sampling_weight
from repro.core.expanded_chain import enumerate_windows, stationary_weight
from repro.exact import exact_counts
from repro.graphlets import classify_bitmask, graphlets, induced_bitmask
from repro.graphs import Graph
from repro.graphs.generators import lollipop_graph, path_graph, star_graph
from repro.relgraph import relationship_graph


def expectation_of_estimator(graph: Graph, k: int, d: int, css: bool):
    """Exact E[weight * indicator] per type over the full expanded chain.

    Returns estimates of C_i for every graphlet type.
    """
    l = k - d + 1
    relgraph, states = relationship_graph(graph, d)
    two_r = 2.0 * relgraph.num_edges
    alphas = alpha_table(k, d)

    if d == 1:
        def degree_of_state(state):
            return graph.degree(state[0])
    elif d == 2:
        def degree_of_state(state):
            return graph.degree(state[0]) + graph.degree(state[1]) - 2
    else:
        state_index = {s: i for i, s in enumerate(states)}

        def degree_of_state(state):
            return relgraph.degree(state_index[tuple(sorted(state))])

    estimates = [0.0] * len(alphas)
    for window in enumerate_windows(relgraph, l):
        window_states = [states[i] for i in window]
        nodes = sorted({v for s in window_states for v in s})
        if len(nodes) != k:
            continue
        mask = induced_bitmask(graph, nodes)
        type_index = classify_bitmask(mask, k)
        degrees = [relgraph.degree(i) for i in window]
        pi_e = stationary_weight(degrees) / two_r  # Theorem 2
        if css:
            weight = two_r / sampling_weight(mask, nodes, k, d, degree_of_state)
        else:
            weight = 1.0 / (alphas[type_index] * stationary_weight(degrees) / two_r)
        estimates[type_index] += pi_e * weight
    return estimates


CASES = [
    ("figure1", 3, 1, False),
    ("figure1", 3, 1, True),
    ("figure1", 3, 2, False),
    ("figure1", 4, 2, False),
    ("figure1", 4, 2, True),
    ("figure1", 4, 3, False),
    ("lollipop", 3, 1, False),
    ("lollipop", 3, 1, True),
    ("lollipop", 4, 2, False),
    ("lollipop", 4, 2, True),
    ("lollipop", 5, 2, True),
]

#: Hostile shapes: a hub with degree-1 leaves, a long degree-2 chain, and
#: a clique with a long tail.  Each leaves some graphlet classes empty, so
#: their expectation must come out zero.
HOSTILE = {
    "star": lambda: star_graph(6),
    "path": lambda: path_graph(9),
    "lollipop-tail": lambda: lollipop_graph(4, 8),
}
HOSTILE_COMBOS = [
    (3, 1, False),
    (3, 1, True),
    (4, 2, False),
    (4, 2, True),
    (4, 3, False),
    (5, 2, True),
]
CASES += [(name, *combo) for name in HOSTILE for combo in HOSTILE_COMBOS]


def build(name, figure1_graph):
    if name == "figure1":
        return figure1_graph
    if name in HOSTILE:
        return HOSTILE[name]()
    return lollipop_graph(4, 3)  # asymmetric degrees: a stringent check


class TestExactUnbiasedness:
    @pytest.mark.parametrize("name,k,d,css", CASES)
    def test_expectation_equals_exact_counts(self, name, k, d, css, figure1_graph):
        graph = build(name, figure1_graph)
        truth = exact_counts(graph, k)
        estimates = expectation_of_estimator(graph, k, d, css)
        for g in graphlets(k):
            alpha = alpha_table(k, d)[g.index]
            if alpha == 0:
                assert estimates[g.index] == 0.0
                continue
            assert math.isclose(
                estimates[g.index], truth[g.index], rel_tol=1e-9, abs_tol=1e-9
            ), (g.name, estimates[g.index], truth[g.index])

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_shapes_leave_classes_empty(self, name):
        """Each hostile shape exercises the zero-expectation path."""
        for k in (4, 5):
            assert 0 in exact_counts(HOSTILE[name](), k).values()

    def test_karate_triangle_expectation(self, karate):
        """The same identity on a real graph (d=1, k=3: 45 triangles)."""
        estimates = expectation_of_estimator(karate, 3, 1, css=False)
        truth = exact_counts(karate, 3)
        assert math.isclose(estimates[1], truth[1], rel_tol=1e-9)
        assert math.isclose(estimates[0], truth[0], rel_tol=1e-9)

    def test_karate_css_expectation(self, karate):
        estimates = expectation_of_estimator(karate, 3, 1, css=True)
        truth = exact_counts(karate, 3)
        assert math.isclose(estimates[1], truth[1], rel_tol=1e-9)
