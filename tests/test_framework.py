"""Tests for running the paper's framework through ``repro.estimate``."""

from __future__ import annotations

import math

import pytest

import repro
from repro.core import recommended_method
from repro.exact import exact_concentrations, exact_counts
from repro.graphs import RestrictedGraph
from repro.relgraph import relationship_edge_count


class TestRecommendedMethods:
    def test_paper_recommendations(self):
        assert recommended_method(3) == "SRW1CSSNB"
        assert recommended_method(4) == "SRW2CSS"
        assert recommended_method(5) == "SRW2CSS"


class TestGraphletEstimator:
    """What the removed ``GraphletEstimator`` class did, through the
    registry: method names resolve and a run returns its budget."""

    def test_default_method_resolution(self, karate):
        est = repro.estimate(karate, recommended_method(4), k=4, budget=100, seed=1)
        assert est.method == "SRW2CSS"

    def test_explicit_method(self, karate):
        est = repro.estimate(karate, "srw2nb", k=3, budget=100, seed=1)
        assert est.method == "SRW2NB"

    def test_run_returns_result(self, karate):
        result = repro.estimate(
            karate, recommended_method(3), k=3, budget=2_000, seed=2
        )
        assert result.steps == 2_000

    def test_invalid_method_rejected(self, karate):
        with pytest.raises(KeyError):
            repro.estimate(karate, "MAGIC", k=3)


def _counts(graph, k, method, budget, seed, relationship_edges=None):
    """Count estimates keyed by graphlet name: ``est.counts(|R(d)|)``."""
    est = repro.estimate(graph, method, k=k, budget=budget, seed=seed)
    if relationship_edges is None:
        base = getattr(graph, "_graph", graph)  # unwrap RestrictedGraph
        relationship_edges = relationship_edge_count(base, est.d)
    counts = est.counts(relationship_edges)
    return {g.name: float(counts[g.index]) for g in repro.graphlets(k)}


class TestOneShots:
    """Concentrations and counts, formerly ``estimate_concentration`` /
    ``estimate_counts``, read off one ``repro.estimate`` call."""

    def test_estimate_concentration(self, karate):
        truth = exact_concentrations(karate, 3)
        estimate = repro.estimate(
            karate, recommended_method(3), k=3, budget=30_000, seed=4
        ).concentration_dict()
        assert abs(estimate["triangle"] - truth[1]) < 0.02
        assert math.isclose(sum(estimate.values()), 1.0, rel_tol=1e-9)

    def test_estimate_counts_computes_r_d(self, karate):
        truth = exact_counts(karate, 3)
        counts = _counts(karate, 3, recommended_method(3), 40_000, seed=5)
        assert abs(counts["triangle"] - truth[1]) < 0.25 * truth[1]
        assert abs(counts["wedge"] - truth[0]) < 0.25 * truth[0]

    def test_estimate_counts_explicit_r_d(self, karate):
        counts = _counts(
            karate, 3, recommended_method(3), 20_000, seed=6,
            relationship_edges=karate.num_edges,
        )
        assert counts["triangle"] > 0

    def test_estimate_counts_restricted_graph_unwraps(self, karate):
        api = RestrictedGraph(karate, seed_node=0)
        counts = _counts(api, 3, "SRW1", 20_000, seed=7)
        truth = exact_counts(karate, 3)
        assert abs(counts["triangle"] - truth[1]) < 0.4 * truth[1]
