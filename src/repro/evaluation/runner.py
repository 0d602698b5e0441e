"""Multi-trial experiment runners — for *any* registered estimator.

The paper estimates NRMSE over up to 1,000 independent simulations
(§6.2.1).  :func:`run_trials` repeats an estimation method with distinct
seeds and collects the per-type concentration estimates;
:func:`nrmse_table` reduces those to NRMSE against exact ground truth —
the quantity plotted in Figures 4, 6, 7 and 8.

Both are thin wrappers over the parallel experiment engine
(:mod:`repro.experiments`): pass ``jobs=N`` to fan the independent
trials out over a process pool.  Seeds are derived per trial
(``base_seed + t``, the historical stream), never per worker, so the
estimates are bit-identical whatever ``jobs`` is.

Methods are named by registry string (``"SRW1CSSNB"``, ``"guise"``,
``"wedge_mhrw"``, ``"exact"``, …) and driven through the streaming
session protocol, so framework methods and baselines share one harness
and one result table — no per-method branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.result import Estimate
from ..exact import exact_concentrations_cached
from ..experiments.engine import TrialTask, run_tasks
from ..experiments.spec import random_start_nodes
from ..graphlets.catalog import graphlets
from ..graphs.graph import Graph
from .metrics import nrmse

__all__ = [
    "TrialSummary",
    "nrmse_table",
    "random_start_nodes",
    "run_trials",
]


@dataclass
class TrialSummary:
    """Concentration estimates from repeated runs of one method."""

    k: int
    method: str
    steps: int
    trials: int
    estimates: np.ndarray  # shape (trials, num_types)
    mean_elapsed: float
    mean_valid_samples: float

    def nrmse_for(self, truth: Dict[int, float], index: int) -> float:
        """NRMSE for one graphlet type against exact concentrations."""
        return nrmse(self.estimates[:, index], truth[index])

    def nrmse_all(self, truth: Dict[int, float]) -> Dict[int, float]:
        """NRMSE per graphlet type (skipping zero-truth types)."""
        return {
            index: nrmse(self.estimates[:, index], value)
            for index, value in truth.items()
            if value > 0
        }


def run_trials(
    graph,
    k: int,
    method: str,
    steps: int,
    trials: int,
    base_seed: int = 0,
    seed_node: int = 0,
    start_nodes: Optional[Sequence[int]] = None,
    jobs: int = 1,
) -> TrialSummary:
    """Repeat one method ``trials`` times with seeds ``base_seed + t``.

    ``method`` is any registry name (framework grammar or baseline);
    every trial streams through the method's session.  ``start_nodes``
    optionally randomizes the walk's starting point per trial (the paper
    starts each simulation independently).  ``jobs > 1`` runs trials on
    a process pool with identical results (each trial's seed is a pure
    function of ``base_seed`` and the trial index).
    """
    tasks = [
        TrialTask(
            index=t,
            trial=t,
            method=method,
            k=k,
            budget=steps,
            seed=base_seed + t,
            seed_node=(
                start_nodes[t % len(start_nodes)] if start_nodes else seed_node
            ),
        )
        for t in range(trials)
    ]
    rows = run_tasks(graph, tasks, jobs=jobs)
    results = [Estimate.from_dict(row["estimate"]) for row in rows]
    num_types = len(graphlets(k))
    estimates = np.zeros((trials, num_types))
    for t, result in enumerate(results):
        estimates[t] = result.concentrations
    return TrialSummary(
        k=k,
        method=results[-1].method if results else method,
        steps=steps,
        trials=trials,
        estimates=estimates,
        mean_elapsed=sum(r.elapsed_seconds for r in results) / trials,
        mean_valid_samples=sum(r.samples for r in results) / trials,
    )


def nrmse_table(
    graph: Graph,
    k: int,
    methods: Sequence[str],
    steps: int,
    trials: int,
    target_index: int,
    truth: Optional[Dict[int, float]] = None,
    base_seed: int = 0,
    jobs: int = 1,
) -> Dict[str, float]:
    """NRMSE of one graphlet type for several methods — one Figure 4 group.

    ``methods`` may mix framework methods and baselines (one table spans
    both, the Figures 7/8 layout).
    """
    if truth is None:
        truth = exact_concentrations_cached(graph, k)
    starts = random_start_nodes(graph, trials, seed=base_seed)
    table = {}
    for method in methods:
        summary = run_trials(
            graph, k, method, steps, trials, base_seed=base_seed,
            start_nodes=starts, jobs=jobs,
        )
        table[method] = summary.nrmse_for(truth, target_index)
    return table
