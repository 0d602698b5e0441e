"""Tests for the evaluation harness."""

from __future__ import annotations

import math

import pytest

from repro.evaluation import (
    convergence_sweep,
    cosine_similarity,
    decompose_nrmse,
    dict_rows,
    format_table,
    graphlet_kernel_similarity,
    nrmse,
    nrmse_table,
    random_start_nodes,
    run_trials,
    similarity_trials,
)
from repro.exact import exact_concentrations
from repro.graphs.generators import erdos_renyi, powerlaw_cluster


class TestMetrics:
    def test_nrmse_zero_for_perfect(self):
        assert nrmse([0.5, 0.5, 0.5], 0.5) == 0.0

    def test_nrmse_pure_bias(self):
        assert math.isclose(nrmse([0.6, 0.6], 0.5), 0.2)

    def test_nrmse_pure_variance(self):
        assert math.isclose(nrmse([0.4, 0.6], 0.5), 0.2)

    def test_nrmse_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            nrmse([0.1], 0.0)

    def test_nrmse_empty_rejected(self):
        with pytest.raises(ValueError):
            nrmse([], 0.5)

    def test_decomposition_consistent(self):
        stats = decompose_nrmse([0.4, 0.5, 0.9], 0.5)
        recombined = math.sqrt(
            stats["relative_std"] ** 2 + stats["relative_bias"] ** 2
        )
        assert math.isclose(stats["nrmse"], recombined, rel_tol=1e-12)


class TestRunTrials:
    def test_shapes_and_metadata(self, karate):
        summary = run_trials(karate, 3, "SRW1", steps=500, trials=5, base_seed=1)
        assert summary.estimates.shape == (5, 2)
        assert summary.method == "SRW1"
        assert summary.mean_valid_samples > 0

    def test_trials_distinct(self, karate):
        summary = run_trials(karate, 3, "SRW1", steps=500, trials=4, base_seed=2)
        assert len({tuple(row) for row in summary.estimates}) > 1

    def test_nrmse_for(self, karate):
        truth = exact_concentrations(karate, 3)
        summary = run_trials(karate, 3, "SRW1CSSNB", steps=4_000, trials=8, base_seed=3)
        error = summary.nrmse_for(truth, 1)
        assert 0 < error < 1.0

    def test_nrmse_all_skips_zero_truth(self, karate):
        truth = {0: 0.9, 1: 0.0}
        summary = run_trials(karate, 3, "SRW1", steps=500, trials=3, base_seed=4)
        assert set(summary.nrmse_all(truth)) == {0}

    def test_start_nodes_cycled(self, karate):
        starts = random_start_nodes(karate, 3, seed=5)
        summary = run_trials(
            karate, 3, "SRW1", steps=300, trials=3, base_seed=5, start_nodes=starts
        )
        assert summary.trials == 3

    def test_nrmse_table_multiple_methods(self, karate):
        table = nrmse_table(
            karate, 3, ["SRW1", "SRW2"], steps=2_000, trials=5, target_index=1
        )
        assert set(table) == {"SRW1", "SRW2"}
        assert all(v > 0 for v in table.values())


class TestConvergence:
    def test_sweep_structure(self, karate):
        curves = convergence_sweep(
            karate,
            3,
            ["SRW1CSSNB"],
            step_grid=[500, 2_000, 8_000],
            trials=8,
            target_index=1,
        )
        assert len(curves) == 1
        curve = curves[0]
        assert curve.steps == [500, 2_000, 8_000]
        assert len(curve.nrmse) == 3

    def test_error_shrinks_with_budget(self, karate):
        """Figure 6's qualitative claim."""
        curves = convergence_sweep(
            karate,
            3,
            ["SRW1CSS"],
            step_grid=[300, 10_000],
            trials=12,
            target_index=1,
            base_seed=7,
        )
        assert curves[0].is_improving()


class TestSimilarity:
    def test_cosine_identical(self):
        assert math.isclose(cosine_similarity([0.2, 0.8], [0.2, 0.8]), 1.0)

    def test_cosine_orthogonal(self):
        assert math.isclose(cosine_similarity([1, 0], [0, 1]), 0.0)

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([0, 0], [1, 0])

    def test_exact_similarity_reflexive(self, karate):
        assert math.isclose(
            graphlet_kernel_similarity(karate, karate, k=4), 1.0
        )

    def test_similar_models_score_higher(self):
        """Two powerlaw-cluster graphs are more similar to each other than
        to a sparse ER graph — the Table 7 mechanism."""
        a = powerlaw_cluster(300, 4, 0.5, seed=1)
        b = powerlaw_cluster(300, 4, 0.5, seed=2)
        c = erdos_renyi(300, 0.01, seed=3)
        from repro.graphs import largest_connected_component

        c, _ = largest_connected_component(c)
        within = graphlet_kernel_similarity(a, b, k=4)
        across = graphlet_kernel_similarity(a, c, k=4)
        assert within > across

    def test_estimated_similarity_close_to_exact(self, karate):
        exact = graphlet_kernel_similarity(karate, karate, k=4)
        estimated = graphlet_kernel_similarity(
            karate, karate, k=4, steps=8_000, method="SRW2CSS", seed=5
        )
        assert abs(estimated - exact) < 0.05

    def test_similarity_trials_stats(self, karate):
        stats = similarity_trials(
            karate, karate, k=4, steps=2_000, method="SRW2", trials=4
        )
        assert 0.8 < stats["mean"] <= 1.0
        assert stats["std"] >= 0.0


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1.0], ["bb", 2.5]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_dict_rows(self):
        headers, rows = dict_rows({"r1": {"a": 1, "b": 2}, "r2": {"b": 3}})
        assert headers == ["key", "a", "b"]
        assert rows[1] == ["r2", "", 3]
