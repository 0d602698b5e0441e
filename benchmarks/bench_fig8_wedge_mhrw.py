"""Figure 8: the framework vs the MHRW-adapted wedge sampling.

The paper adapts wedge sampling to restricted access (Algorithm 4) and
shows SRW1CSSNB achieves much lower NRMSE at equal random-walk steps
(Fig. 8a), that both converge (Fig. 8b), and that the adaptation costs 3
API calls per step against the framework's 1.

Figures 8a/8b run as the declarative ``fig8`` suite (`repro bench
--suite fig8` from the CLI; both methods share one spec per
dataset/budget since the registry drives them through the same session
protocol).  The API-cost measurement stays a direct RestrictedGraph
probe — it counts calls, not trials.  Set BENCH_JOBS=N to parallelize.
"""

from __future__ import annotations

import dataclasses
import random

from conftest import bench_jobs, emit

from repro import estimate
from repro.core.estimator import MethodSpec, run_estimation
from repro.evaluation import format_table
from repro.experiments import get_suite, run_experiment
from repro.graphs import RestrictedGraph, load_dataset


def test_fig8a_accuracy(benchmark):
    specs = [s for s in get_suite("fig8") if s.name.startswith("fig8a")]
    rows = []
    outcome = {}
    for spec in specs:
        dataset = spec.graph.partition(":")[2]
        result = run_experiment(spec, jobs=bench_jobs())
        ours = result.nrmse("SRW1CSSNB")
        theirs = result.nrmse("wedge_mhrw")
        outcome[dataset] = (ours, theirs)
        rows.append([dataset, ours, theirs, f"{theirs / ours:.2f}x"])
    emit(
        f"Figure 8a: NRMSE of c32, SRW1CSSNB vs Wedge-MHRW ({specs[0].budget} steps)",
        format_table(
            ["dataset", "SRW1CSSNB", "Wedge-MHRW", "MHRW/ours"], rows
        ),
    )
    # The framework wins on a majority of datasets (paper: on all).
    wins = sum(1 for ours, theirs in outcome.values() if ours < theirs)
    assert wins >= 2, outcome
    benchmark.extra_info["results"] = {
        k: (round(a, 4), round(b, 4)) for k, (a, b) in outcome.items()
    }
    probe = dataclasses.replace(
        specs[0], name="fig8a-probe", methods=("wedge_mhrw",), budget=1_000,
        trials=4, base_seed=1,
    )
    benchmark(lambda: run_experiment(probe, jobs=1))


def test_fig8b_convergence(benchmark):
    specs = sorted(
        (s for s in get_suite("fig8") if s.name.startswith("fig8b")),
        key=lambda s: s.budget,
    )
    grid = [spec.budget for spec in specs]
    finals = {"SRW1CSSNB": [], "wedge_mhrw": []}
    for spec in specs:
        result = run_experiment(spec, jobs=bench_jobs())
        for method in finals:
            finals[method].append(result.nrmse(method))
    rows = [
        [{"SRW1CSSNB": "SRW1CSSNB", "wedge_mhrw": "Wedge-MHRW"}[m]] + errors
        for m, errors in finals.items()
    ]
    emit(
        "Figure 8b: convergence of c32 estimates (slashdot-like)",
        format_table(["method"] + [str(s) for s in grid], rows),
    )
    for label, errors in finals.items():
        assert errors[-1] < errors[0], label
    benchmark.extra_info["final"] = {
        k: round(v[-1], 4) for k, v in finals.items()
    }
    probe = dataclasses.replace(
        specs[0], name="fig8b-probe", methods=("SRW1CSSNB",), budget=500,
        trials=2, base_seed=900,
    )
    benchmark(lambda: run_experiment(probe, jobs=1))


def test_fig8_api_cost(benchmark):
    """The 3x API-call asymmetry, measured through RestrictedGraph."""
    hidden = load_dataset("gowalla-like")
    steps = 2_000

    api = RestrictedGraph(hidden, seed_node=0)
    run_estimation(
        api, MethodSpec.parse("SRW1CSSNB", 3), steps,
        rng=random.Random(1), seed_node=0,
    )
    ours = api.api_calls

    api = RestrictedGraph(hidden, seed_node=0)
    result = estimate(api, "wedge_mhrw", budget=steps, seed=1)
    theirs_measured = api.api_calls
    theirs_nominal = result.nominal_api_calls

    emit(
        "Figure 8 (cost): API calls for 2,000 walk steps",
        format_table(
            ["method", "measured (cached)", "nominal (uncached)"],
            [
                ["SRW1CSSNB", ours, steps],
                ["Wedge-MHRW", theirs_measured, theirs_nominal],
            ],
        ),
    )
    assert theirs_nominal == 3 * steps
    assert theirs_measured >= ours  # adaptation never cheaper
    benchmark.extra_info["ours"] = ours
    benchmark.extra_info["theirs"] = theirs_measured

    benchmark(
        lambda: estimate(
            RestrictedGraph(hidden, seed_node=0), "wedge_mhrw", budget=200, seed=2
        ).nominal_api_calls
    )
