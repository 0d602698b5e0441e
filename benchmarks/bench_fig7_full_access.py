"""Figure 7: count estimation vs full-access samplers at equal time.

The paper grants wedge sampling / 3-path sampling 200K independent samples
and gives the framework the same *wall-clock* budget, comparing NRMSE of
graphlet-count estimates.  Claims reproduced:

* for triangle counts, the walk (SRW1CSSNB) is competitive with wedge
  sampling — wedge wins on the highest-concentration graphs, the walk wins
  when triangles are rare (Fig. 7a);
* for 4-clique counts, SRW2CSS is competitive with 3-path sampling without
  any preprocessing pass (Fig. 7b).
"""

from __future__ import annotations

import random

from conftest import emit

from repro import estimate
from repro.core.estimator import MethodSpec, run_estimation
from repro.evaluation import format_table, nrmse
from repro.exact import exact_counts
from repro.graphlets import graphlet_by_name
from repro.graphs import load_dataset
from repro.relgraph import relationship_edge_count

TRIALS = 12
BASELINE_SAMPLES = 20_000


def calibrate_steps(graph, spec, target_seconds: float) -> int:
    """Walk steps that fit the same wall-clock budget as the baseline."""
    probe = run_estimation(graph, spec, 2_000, rng=random.Random(0))
    per_step = probe.elapsed_seconds / 2_000
    return max(500, int(target_seconds / per_step))


def test_fig7a_triangle_counts_vs_wedge(benchmark):
    spec = MethodSpec.parse("SRW1CSSNB", 3)
    rows = []
    outcome = {}
    for name in ("brightkite-like", "wikipedia-like"):
        graph = load_dataset(name)
        truth = exact_counts(graph, 3)[1]
        baseline = estimate(graph, "wedge", budget=BASELINE_SAMPLES, seed=1)
        budget = baseline.elapsed_seconds + baseline.preprocess_seconds
        steps = calibrate_steps(graph, spec, budget)
        r1 = relationship_edge_count(graph, 1)

        wedge_estimates = [
            estimate(graph, "wedge", budget=BASELINE_SAMPLES, seed=10 + t).triangle_count
            for t in range(TRIALS)
        ]
        walk_estimates = []
        for t in range(TRIALS):
            result = run_estimation(graph, spec, steps, rng=random.Random(100 + t))
            walk_estimates.append(float(result.counts(r1)[1]))
        outcome[name] = (
            nrmse(walk_estimates, truth),
            nrmse(wedge_estimates, truth),
            steps,
        )
        rows.append([name, outcome[name][0], outcome[name][1], steps])
    emit(
        "Figure 7a: NRMSE of triangle counts, equal wall-clock budget",
        format_table(["dataset", "SRW1CSSNB", "wedge sampling", "walk steps"], rows),
    )
    # Both families estimate within sane error; the walk is competitive
    # (within 3x) everywhere and the comparison is non-degenerate.
    for name, (walk_err, wedge_err, _) in outcome.items():
        assert walk_err < 1.0 and wedge_err < 1.0, name
        assert walk_err < 3 * wedge_err, name
    benchmark.extra_info["results"] = {
        k: (round(a, 4), round(b, 4)) for k, (a, b, _) in outcome.items()
    }
    graph = load_dataset("brightkite-like")
    benchmark(lambda: estimate(graph, "wedge", budget=5_000, seed=3).triangle_count)


def test_fig7b_clique_counts_vs_path_sampling(benchmark):
    spec = MethodSpec.parse("SRW2CSS", 4)
    clique = graphlet_by_name(4, "clique").index
    rows = []
    outcome = {}
    for name in ("brightkite-like", "facebook-like"):
        graph = load_dataset(name)
        truth = exact_counts(graph, 4)[clique]
        baseline = estimate(graph, "path_sampling", budget=BASELINE_SAMPLES, seed=1)
        budget = baseline.elapsed_seconds + baseline.preprocess_seconds
        steps = calibrate_steps(graph, spec, budget)
        r2 = relationship_edge_count(graph, 2)

        path_estimates = [
            estimate(graph, "path_sampling", budget=BASELINE_SAMPLES, seed=10 + t)
            .count_dict()["clique"]
            for t in range(TRIALS)
        ]
        walk_estimates = []
        for t in range(TRIALS):
            result = run_estimation(graph, spec, steps, rng=random.Random(200 + t))
            walk_estimates.append(float(result.counts(r2)[clique]))
        outcome[name] = (nrmse(walk_estimates, truth), nrmse(path_estimates, truth))
        rows.append([name, outcome[name][0], outcome[name][1], steps])
    emit(
        "Figure 7b: NRMSE of 4-clique counts, equal wall-clock budget",
        format_table(["dataset", "SRW2CSS", "3-path sampling", "walk steps"], rows),
    )
    for name, (walk_err, path_err) in outcome.items():
        assert walk_err < 1.5 and path_err < 1.5, name
        assert walk_err < 4 * path_err, name
    benchmark.extra_info["results"] = {
        k: (round(a, 4), round(b, 4)) for k, v in outcome.items() for a, b in [v]
    }
    graph = load_dataset("brightkite-like")
    benchmark(
        lambda: estimate(graph, "path_sampling", budget=5_000, seed=3).count_dict()
    )
