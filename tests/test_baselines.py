"""Tests for the baseline methods (§6.3)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import estimate
from repro.baselines import guise_neighbors, path_weights
from repro.baselines.path_sampling import PathSampler
from repro.baselines.wedge import WedgeSampler
from repro.exact import (
    exact_concentrations,
    exact_counts,
    global_clustering_coefficient,
    wedge_count,
)
from repro.graphs import Graph, RestrictedGraph
from repro.graphs.generators import path_graph


class TestWedgeSampling:
    def test_triangle_concentration_converges(self, karate):
        truth = exact_concentrations(karate, 3)[1]
        result = estimate(karate, "wedge", budget=30_000, seed=1)
        assert abs(result.triangle_concentration - truth) < 0.1 * truth + 0.005

    def test_triangle_count_converges(self, karate):
        result = estimate(karate, "wedge", budget=30_000, seed=2)
        assert abs(result.triangle_count - 45) < 8

    def test_closed_fraction_estimates_transitivity(self, karate):
        result = estimate(karate, "wedge", budget=30_000, seed=3)
        cc = global_clustering_coefficient(karate)
        assert abs(result.closed_fraction - cc) < 0.03

    def test_wedge_graphlet_count(self, karate):
        result = estimate(karate, "wedge", budget=30_000, seed=4)
        truth = exact_counts(karate, 3)[0]
        assert abs(result.wedge_graphlet_count - truth) < 0.1 * truth

    def test_total_wedges_exact(self, karate):
        sampler = WedgeSampler(karate)
        assert sampler.total_wedges == wedge_count(karate)

    def test_center_distribution(self, karate):
        """Centers must appear proportional to C(d_v, 2)."""
        sampler = WedgeSampler(karate, random.Random(5))
        from collections import Counter

        draws = Counter(sampler.sample_center() for _ in range(30_000))
        hub = max(karate.nodes(), key=karate.degree)
        d = karate.degree(hub)
        expected = (d * (d - 1) / 2) / sampler.total_wedges
        assert abs(draws[hub] / 30_000 - expected) < 0.1 * expected

    def test_no_wedges_raises(self):
        with pytest.raises(ValueError):
            estimate(Graph(2, [(0, 1)]), "wedge", budget=10)
        # Enough nodes for k = 3, but a perfect matching has no wedge.
        with pytest.raises(ValueError, match="no wedges"):
            estimate(Graph(4, [(0, 1), (2, 3)]), "wedge", budget=10)

    def test_nonpositive_samples(self, karate):
        with pytest.raises(ValueError):
            estimate(karate, "wedge", budget=0)


class TestPathSampling:
    def test_beta_values_match_paper(self):
        """beta = Hamiltonian-path counts: 1, 0, 4, 2, 6, 12."""
        assert path_weights() == (1, 0, 4, 2, 6, 12)

    def test_counts_converge(self, karate):
        truth = exact_counts(karate, 4)
        result = estimate(karate, "path_sampling", budget=40_000, seed=1)
        counts = result.count_dict()
        for name, index in [("path", 0), ("tailed-triangle", 3), ("chordal-cycle", 4)]:
            assert abs(counts[name] - truth[index]) < 0.25 * truth[index] + 5

    def test_star_invisible(self, karate):
        result = estimate(karate, "path_sampling", budget=1_000, seed=2)
        assert math.isnan(result.count_dict()["3-star"])

    def test_clique_estimate(self, karate):
        result = estimate(karate, "path_sampling", budget=60_000, seed=3)
        truth = exact_counts(karate, 4)[5]
        assert abs(result.count_dict()["clique"] - truth) < 0.6 * truth + 3

    def test_total_weight_formula(self, karate):
        sampler = PathSampler(karate)
        expected = sum(
            (karate.degree(u) - 1) * (karate.degree(v) - 1)
            for u, v in karate.edges()
        )
        assert sampler.total_weight == expected

    def test_no_paths_raises(self):
        with pytest.raises(ValueError):
            estimate(path_graph(2), "path_sampling", budget=10)
        # Enough nodes for k = 4, but every star edge has tau_e = 0.
        with pytest.raises(ValueError, match="no 3-paths"):
            estimate(Graph(4, [(0, 1), (0, 2), (0, 3)]), "path_sampling", budget=10)

    def test_concentrations_ignore_star(self, karate):
        result = estimate(karate, "path_sampling", budget=5_000, seed=4)
        conc = result.concentrations
        visible = [c for c in conc if not math.isnan(c)]
        assert math.isclose(sum(visible), 1.0, rel_tol=1e-9)


class TestWedgeMHRW:
    def test_converges(self, karate):
        truth = exact_concentrations(karate, 3)[1]
        result = estimate(karate, "wedge_mhrw", budget=30_000, seed=1)
        assert abs(result.triangle_concentration - truth) < 0.15 * truth + 0.01

    def test_wedge_concentration_complement(self, karate):
        result = estimate(karate, "wedge_mhrw", budget=5_000, seed=2)
        assert math.isclose(
            result.wedge_concentration + result.triangle_concentration, 1.0
        )

    def test_nominal_api_cost_is_three_per_step(self, karate):
        result = estimate(karate, "wedge_mhrw", budget=1_000, seed=3)
        assert result.nominal_api_calls == 3_000

    def test_restricted_access_run(self, karate):
        api = RestrictedGraph(karate, seed_node=0)
        result = estimate(api, "wedge_mhrw", budget=3_000, seed=4)
        assert result.api_calls is not None and result.api_calls > 0

    def test_low_degree_seed_advances(self, karate):
        # Node 11 has degree 1 in karate: the walk must move before sampling.
        result = estimate(karate, "wedge_mhrw", budget=2_000, seed=5, seed_node=11)
        assert result.steps == 2_000

    def test_clustering_coefficient_identity(self, karate):
        result = estimate(karate, "wedge_mhrw", budget=30_000, seed=6)
        cc = global_clustering_coefficient(karate)
        assert abs(result.clustering_coefficient - cc) < 0.05


class TestHardimanKatzir:
    def test_clustering_converges(self, karate):
        truth = global_clustering_coefficient(karate)
        result = estimate(karate, "hardiman_katzir", budget=40_000, seed=1)
        assert abs(result.clustering_coefficient - truth) < 0.1 * truth

    def test_triangle_concentration_identity(self, karate):
        result = estimate(karate, "hardiman_katzir", budget=40_000, seed=2)
        truth = exact_concentrations(karate, 3)[1]
        assert abs(result.triangle_concentration - truth) < 0.15 * truth

    def test_wedge_complement(self, karate):
        result = estimate(karate, "hardiman_katzir", budget=2_000, seed=3)
        assert math.isclose(
            result.wedge_concentration, 1 - result.triangle_concentration
        )

    def test_positive_steps_required(self, karate):
        with pytest.raises(ValueError):
            estimate(karate, "hardiman_katzir", budget=0)


class TestGuise:
    def test_neighbor_symmetry(self, karate):
        """y in N(x) iff x in N(y) — required for MH correctness."""
        rng = random.Random(1)
        from repro.relgraph import SubgraphSpace

        state = SubgraphSpace(4).initial_state(karate, rng, seed_node=0)
        for neighbor in guise_neighbors(karate, state)[:10]:
            assert state in guise_neighbors(karate, neighbor)

    def test_neighbor_sizes_valid(self, karate):
        rng = random.Random(2)
        from repro.relgraph import SubgraphSpace

        state = SubgraphSpace(3).initial_state(karate, rng, seed_node=0)
        for neighbor in guise_neighbors(karate, state):
            assert 3 <= len(neighbor) <= 5
            assert karate.is_connected_subset(neighbor)

    def test_triad_concentration_converges(self, karate):
        truth = exact_concentrations(karate, 3)
        result = estimate(karate, "guise", budget=15_000, seed=3)
        concentrations = result.concentration_dict()
        assert abs(concentrations["triangle"] - truth[1]) < 0.25 * truth[1] + 0.02

    def test_four_node_concentrations(self, karate):
        result = estimate(karate, "guise", k=4, budget=10_000, seed=7)
        concentrations = result.concentration_dict()
        assert result.k == 4
        assert abs(sum(concentrations.values()) - 1.0) < 1e-9

    def test_rejection_rate_reported(self, karate):
        result = estimate(karate, "guise", budget=2_000, seed=4)
        assert 0.0 <= result.rejection_rate < 1.0

    def test_visits_all_sizes(self, karate):
        result = estimate(karate, "guise", budget=5_000, seed=5)
        for k in (3, 4, 5):
            assert result.visits[k].sum() > 0

    def test_positive_steps_required(self, karate):
        with pytest.raises(ValueError):
            estimate(karate, "guise", budget=0)


class TestPSRW:
    def test_psrw_is_srw_kminus1(self, karate):
        result = estimate(karate, "psrw", k=4, budget=2_000, seed=1)
        assert result.method == "SRW3"
        assert result.d == 3

    def test_srw_is_on_gk(self, karate):
        result = estimate(karate, "srw", k=3, budget=2_000, seed=2)
        assert result.d == 3
        assert result.method == "SRW3"

    def test_psrw_converges_k3(self, karate):
        truth = exact_concentrations(karate, 3)[1]
        result = estimate(karate, "psrw", k=3, budget=30_000, seed=3)
        assert abs(result.concentrations[1] - truth) < 0.15 * truth + 0.01

    def test_reproducible(self, karate):
        a = estimate(karate, "psrw", k=3, budget=1_000, seed=4)
        b = estimate(karate, "psrw", k=3, budget=1_000, seed=4)
        assert np.array_equal(a.sums, b.sums)

    @pytest.mark.parametrize(
        "name, k, grammar",
        [("psrw", 4, "srw3"), ("psrw", 3, "srw2"), ("srw", 3, "srw3"), ("srw", 4, "srw4")],
    )
    def test_named_specs_are_srw_grammar(self, karate, name, k, grammar):
        """"psrw" is SRW(k - 1) and "srw" is SRW(k), bit for bit."""
        named = estimate(karate, name, k=k, budget=1_000, seed=5)
        plain = estimate(karate, grammar, k=k, budget=1_000, seed=5)
        assert named.method == plain.method
        assert np.array_equal(named.sums, plain.sums)

    def test_named_spec_default_k(self, karate):
        assert estimate(karate, "psrw", budget=200, seed=6).k == 4
        assert estimate(karate, "srw", budget=200, seed=6).k == 3


class TestCrossMethodAgreement:
    def test_all_triangle_estimators_agree(self, karate):
        """Five independent estimator families must bracket the same truth
        — an end-to-end consistency check of the whole library."""
        truth = exact_concentrations(karate, 3)[1]

        def triangles(method, **kwargs):
            return estimate(karate, method, budget=20_000, seed=10, **kwargs)

        estimates = {
            "wedge": triangles("wedge").triangle_concentration,
            "wedge_mhrw": triangles("wedge_mhrw").triangle_concentration,
            "hk": triangles("hardiman_katzir").triangle_concentration,
            "psrw": triangles("psrw", k=3).concentrations[1],
        }
        for name, value in estimates.items():
            assert abs(value - truth) < 0.2 * truth + 0.01, name
