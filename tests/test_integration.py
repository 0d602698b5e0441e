"""End-to-end integration tests: the full pipeline as a user would run it."""

from __future__ import annotations

import math
import random

import pytest

import repro
from repro import (
    MethodSpec,
    RestrictedGraph,
    estimate,
    exact_concentrations,
    load_dataset,
    run_estimation,
    run_trials,
)


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestCrawlScenario:
    """The paper's headline use case: estimate graphlet statistics of a
    graph reachable only through neighbor-list APIs."""

    def test_restricted_crawl_estimates_triangles(self):
        hidden = load_dataset("brightkite-like")
        api = RestrictedGraph(hidden, seed_node=0)
        result = estimate(api, "srw1cssnb", k=3, budget=15_000, seed=1)
        truth = exact_concentrations(hidden, 3)
        assert abs(result.concentrations[1] - truth[1]) < 0.25 * truth[1] + 0.01
        # The crawl must have touched only a bounded set of nodes.
        assert api.api_calls <= hidden.num_nodes

    def test_restricted_crawl_4node(self):
        hidden = load_dataset("epinion-like")
        api = RestrictedGraph(hidden, seed_node=0)
        result = estimate(api, "srw2css", k=4, budget=10_000, seed=2)
        truth = exact_concentrations(hidden, 4)
        dominant = max(truth, key=truth.get)
        assert abs(result.concentrations[dominant] - truth[dominant]) < 0.15


class TestAccuracyOrdering:
    def test_css_improves_over_basic(self):
        """The paper's core empirical claim (Fig. 4): CSS reduces NRMSE.

        Measured on the triangle concentration of a clustered graph with a
        modest budget, averaged over trials.
        """
        graph = load_dataset("slashdot-like")
        truth = exact_concentrations(graph, 3)
        basic = run_trials(graph, 3, "SRW1", steps=3_000, trials=24, base_seed=3)
        css = run_trials(graph, 3, "SRW1CSS", steps=3_000, trials=24, base_seed=3)
        assert css.nrmse_for(truth, 1) < basic.nrmse_for(truth, 1)

    def test_srw2_beats_psrw_for_4node_cliques(self):
        """Fig. 4b: smaller d wins for rare graphlets (clique, index 5)."""
        graph = load_dataset("facebook-like")
        truth = exact_concentrations(graph, 4)
        srw2 = run_trials(graph, 4, "SRW2CSS", steps=3_000, trials=16, base_seed=4)
        psrw = run_trials(graph, 4, "SRW3", steps=3_000, trials=16, base_seed=4)
        assert srw2.nrmse_for(truth, 5) < psrw.nrmse_for(truth, 5)


class TestConsistency:
    def test_concentration_vs_counts_consistent(self):
        """Count estimates renormalize to the concentration estimates."""
        graph = load_dataset("karate")
        result = estimate(graph, "srw1", k=3, budget=10_000, seed=5)
        counts = result.counts(graph.num_edges)
        concentration = result.concentrations
        total = counts.sum()
        for i in range(2):
            assert math.isclose(counts[i] / total, concentration[i], rel_tol=1e-9)

    def test_one_shot_matches_estimator_api(self):
        """The registry one-shot equals Algorithm 1 run with the same seed."""
        graph = load_dataset("karate")
        one_shot = estimate(graph, "srw1", k=3, budget=5_000, seed=6)
        result = run_estimation(
            graph, MethodSpec.parse("SRW1", 3), 5_000, rng=random.Random(6)
        )
        assert math.isclose(
            one_shot.concentration_dict()["triangle"],
            result.concentration_dict()["triangle"],
        )


class TestDatasetPipeline:
    @pytest.mark.parametrize("name", ["karate", "brightkite-like", "slashdot-like"])
    def test_tiny_datasets_full_pipeline(self, name):
        graph = load_dataset(name)
        truth = exact_concentrations(graph, 3)
        summary = run_trials(graph, 3, "SRW1CSSNB", steps=4_000, trials=6, base_seed=7)
        error = summary.nrmse_for(truth, 1)
        assert error < 0.6  # loose: just confirms the pipeline is sane
