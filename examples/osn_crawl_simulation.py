"""Restricted-access crawling: the paper's headline scenario (§1).

A "hidden" OSN is reachable only through neighbor-list APIs.  Starting from
one seed account, the framework estimates 4-node graphlet concentrations
while the RestrictedGraph wrapper accounts for every API call — exactly the
regime where exhaustive counters and full-access samplers (wedge/path
sampling) cannot run at all.

    python examples/osn_crawl_simulation.py
"""

from __future__ import annotations

from repro import (
    RestrictedGraph,
    estimate,
    exact_concentrations,
    graphlets,
    load_dataset,
)
from repro.evaluation import format_table


def crawl(dataset: str, steps: int, seed: int) -> None:
    hidden = load_dataset(dataset)
    api = RestrictedGraph(hidden, seed_node=0)

    result = estimate(api, "srw2css", k=4, budget=steps, seed=seed)

    truth = exact_concentrations(hidden, 4)
    estimates = result.concentrations
    rows = [
        [g.name, truth[g.index], float(estimates[g.index])]
        for g in graphlets(4)
    ]
    print(
        format_table(
            ["graphlet", "hidden truth", "crawl estimate"],
            rows,
            title=f"{dataset}: 4-node concentrations from a {steps}-step crawl",
        )
    )
    print(
        f"API calls: {api.api_calls}  "
        f"(nodes fetched: {api.fetched_nodes} of {hidden.num_nodes}, "
        f"coverage: {100 * api.coverage():.1f}% discovered)\n"
    )


def main() -> None:
    for dataset in ("brightkite-like", "slashdot-like"):
        crawl(dataset, steps=20_000, seed=7)

    print(
        "Note: the estimate converges while fetching only a fraction of the\n"
        "graph — the paper's Sinaweibo experiment exploits exactly this\n"
        "(0.03% of nodes touched)."
    )


if __name__ == "__main__":
    main()
