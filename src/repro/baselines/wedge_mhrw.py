"""Adapted wedge sampling via MHRW (paper Appendix F, Algorithm 4).

The paper adapts wedge sampling [32] to the restricted-access setting so it
can be compared against the framework (Figure 8): a Metropolis–Hastings
walk targets the wedge distribution ``pi(v) ~ C(d_v, 2)``; at each step a
uniform pair of the current node's neighbors forms a wedge, closed wedges
increment C^_2, open ones C^_1, and

    c^_1 = 3 C^_1 / (3 C^_1 + C^_2),     c^_2 = C^_2 / (3 C^_1 + C^_2).

Each step needs the neighbor lists of the current node *and* of the wedge
endpoints (for the closure test), i.e. 3 API calls per step against the
framework's 1 — the cost asymmetry reproduced by the Figure 8 benchmark.
The ``nominal_api_calls`` meta entry reports that uncached 3-per-step
figure; when run over a :class:`~repro.graphs.RestrictedGraph` the result
also carries the measured (cache-aware) call count.

:class:`WedgeMHRWSession` exposes the run through the streaming estimator
protocol (registry name ``"wedge_mhrw"``) and returns the unified
:class:`~repro.core.result.Estimate`.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from ..core.result import Estimate
from ..core.session import Session
from ..walks.mhrw import MetropolisHastingsWalk, wedge_weight


class WedgeMHRWSession(Session):
    """Streaming Algorithm 4 run: one budget unit = one MHRW step.

    ``graph`` may be a :class:`~repro.graphs.Graph` or a
    :class:`~repro.graphs.RestrictedGraph`; a seed node of degree >= 2 is
    required (line 3 of Algorithm 4) — if the given one is too small, the
    walk advances until it reaches one before sampling starts.
    """

    def __init__(
        self,
        graph,
        budget: int,
        seed: Optional[int] = None,
        seed_node: int = 0,
    ) -> None:
        super().__init__(budget)
        self.graph = graph
        self._rng = rng = random.Random(seed)
        self._walk = MetropolisHastingsWalk(
            graph, weight=wedge_weight, rng=rng, seed_node=seed_node
        )
        # Ensure the start node can host a wedge.
        guard = 0
        while graph.degree(self._walk.state) < 2:
            self._walk.state = graph.neighbors(self._walk.state)[
                rng.randrange(graph.degree(self._walk.state))
            ]
            guard += 1
            if guard > graph_size_guard(graph):
                raise RuntimeError("could not reach a node of degree >= 2")
        self._open = 0
        self._closed = 0

    def _advance(self, n: int) -> None:
        graph, rng, walk = self.graph, self._rng, self._walk
        open_wedges = closed_wedges = 0
        for _ in range(n):
            v = walk.state
            neighbors = graph.neighbors(v)
            a_pos = rng.randrange(len(neighbors))
            b_pos = rng.randrange(len(neighbors) - 1)
            if b_pos >= a_pos:
                b_pos += 1
            a, b = neighbors[a_pos], neighbors[b_pos]
            if graph.has_edge(a, b):
                closed_wedges += 1
            else:
                open_wedges += 1
            walk.step()
        self._open += open_wedges
        self._closed += closed_wedges

    def snapshot(self) -> Estimate:
        denominator = 3 * self._open + self._closed
        wedge_c = 3 * self._open / denominator if denominator else 0.0
        triangle_c = self._closed / denominator if denominator else 0.0
        steps = self.consumed
        return Estimate(
            method="wedge_mhrw",
            k=3,
            steps=steps,
            samples=steps,
            concentrations=np.array([wedge_c, triangle_c]),
            elapsed_seconds=self._elapsed,
            meta={
                "open_wedges": self._open,
                "closed_wedges": self._closed,
                "wedge_concentration": wedge_c,
                "triangle_concentration": triangle_c,
                "clustering_coefficient": 3 * triangle_c / (2 * triangle_c + 1),
                "nominal_api_calls": 3 * steps,
                "api_calls": getattr(self.graph, "api_calls", None),
            },
        )


def graph_size_guard(graph) -> int:
    """Safety bound for pre-walk loops (number of nodes when known)."""
    return getattr(graph, "num_nodes", 1_000_000)

