"""Joint 3/4/5-node estimation from one crawl + anytime convergence.

Two library extensions beyond the paper's Algorithm 1:

* ``run_joint_estimation`` — the MSS idea of Wang et al. [36] generalized
  to this framework: one walk on G(2) carries windows of lengths 2, 3 and
  4 simultaneously, so a single API-budget crawl yields 3-, 4- *and*
  5-node concentrations at once.  Every size's window t starts at walk
  step t, so each size's estimate equals its own standalone SRW2CSS run
  (SRW2 for k = 3) at the same seed, bit for bit; only the crawl is
  shared.
* ``run_with_checkpoints`` — snapshots of the running estimate along one
  walk, rendering the anytime convergence curve without re-walking.

    python examples/joint_estimation.py
"""

from __future__ import annotations

import random

from repro import RestrictedGraph, exact_concentrations, load_dataset
from repro.core import MethodSpec, run_joint_estimation, run_with_checkpoints
from repro.evaluation import ascii_line_chart, format_table
from repro.graphlets import graphlets


def main() -> None:
    hidden = load_dataset("epinion-like")
    api = RestrictedGraph(hidden, seed_node=0)

    results = run_joint_estimation(
        api, ks=(3, 4, 5), d=2, steps=20_000, css=True, rng=random.Random(11)
    )
    print(
        f"one 20K-step crawl, {api.api_calls} API calls, three estimates:\n"
    )
    for k in (3, 4, 5):
        truth = exact_concentrations(hidden, k)
        estimate = results[k].concentrations
        rows = [
            [g.name, truth[g.index], float(estimate[g.index])]
            for g in graphlets(k)
            if truth[g.index] > 0.01
        ]
        print(
            format_table(
                ["graphlet", "exact", "joint SRW2CSS"],
                rows,
                title=f"k={k} (valid samples: {results[k].valid_samples})",
            )
        )
        print()

    # Anytime curve: triangle-concentration error along a single walk.
    truth32 = exact_concentrations(hidden, 3)[1]
    checkpoints = [1_000, 2_000, 4_000, 8_000, 16_000, 32_000]
    snapshots = run_with_checkpoints(
        hidden,
        MethodSpec.parse("SRW1CSS", 3),
        checkpoints,
        seed=12,
    )
    errors = [
        abs(float(s.concentrations[1]) - truth32) / truth32 for s in snapshots
    ]
    print(
        ascii_line_chart(
            checkpoints,
            {"SRW1CSS": errors},
            title="relative error of c32 along one walk (anytime estimate)",
            height=10,
        )
    )


if __name__ == "__main__":
    main()
