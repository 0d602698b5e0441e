"""Clustering coefficient three ways (paper §2.1 application + §6.3.1).

The global clustering coefficient is a function of the triangle
concentration: cc = 3 c32 / (2 c32 + 1).  We estimate it with

* the framework's recommended SRW1CSSNB method,
* the Hardiman–Katzir random-walk estimator [11] (which the paper shows is
  the SRW1 special case of the framework), and
* the adapted wedge sampler (Algorithm 4),

and compare against exact counting — including each method's API-call cost
under restricted access.

    python examples/clustering_coefficient.py
"""

from __future__ import annotations

from repro import RestrictedGraph, estimate, global_clustering_coefficient, load_dataset
from repro.evaluation import format_table

STEPS = 20_000


def clustering_from_c32(c32: float) -> float:
    return 3 * c32 / (2 * c32 + 1)


def main() -> None:
    for dataset in ("flickr-like", "gowalla-like"):
        graph = load_dataset(dataset)
        exact = global_clustering_coefficient(graph)
        rows = []

        api = RestrictedGraph(graph, seed_node=0)
        result = estimate(api, "srw1cssnb", k=3, budget=STEPS, seed=1)
        rows.append(
            [
                "SRW1CSSNB (this paper)",
                clustering_from_c32(float(result.concentrations[1])),
                api.api_calls,
            ]
        )

        api = RestrictedGraph(graph, seed_node=0)
        hk = estimate(api, "hardiman_katzir", budget=STEPS, seed=1)
        rows.append(["Hardiman-Katzir [11]", hk.clustering_coefficient, api.api_calls])

        api = RestrictedGraph(graph, seed_node=0)
        wm = estimate(api, "wedge_mhrw", budget=STEPS, seed=1)
        rows.append(["Wedge-MHRW (Alg. 4)", wm.clustering_coefficient, api.api_calls])

        rows.append(["exact (full access)", exact, "-"])
        print(
            format_table(
                ["method", "clustering coefficient", "API calls"],
                rows,
                title=f"{dataset} ({graph.num_nodes} nodes, {graph.num_edges} edges), "
                f"{STEPS} walk steps",
            )
        )
        print()


if __name__ == "__main__":
    main()
