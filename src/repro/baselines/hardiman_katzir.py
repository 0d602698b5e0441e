"""Hardiman & Katzir [11]: clustering coefficient via simple random walk.

At each interior step ``t`` of an SRW on G, the previous and next nodes are
independent uniform neighbors of ``v_t``, so the indicator
``phi_t = 1{v_{t-1} ~ v_{t+1}}`` has conditional expectation
``2 t(v_t) / d_{v_t}^2`` (t(v) = triangles at v).  Re-weighting by the
stationary distribution gives the consistent estimator

    cc^ = sum_t phi_t * d_{v_t}  /  sum_t (d_{v_t} - 1)

for the global clustering coefficient, from which the triangle
concentration follows as ``c_2^3 = cc / (3 - 2 cc)`` (§2.1).

The paper shows this method is equivalent to SRW1 inside the new framework
(§6.3.1) but "derived in a totally different way"; we implement it from
the original construction so that equivalence is *measured*, not assumed.

:class:`HardimanKatzirSession` exposes the run through the streaming
estimator protocol (registry name ``"hardiman_katzir"``) and returns the
unified :class:`~repro.core.result.Estimate` with
``clustering_coefficient`` and the raw ``phi``/``psi`` accumulators in
the meta dict.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from ..core.result import Estimate
from ..core.session import Session
from ..relgraph.spaces import NodeSpace
from ..walks.walkers import SimpleWalk


class HardimanKatzirSession(Session):
    """Streaming run: one budget unit = one interior walk position."""

    def __init__(
        self,
        graph,
        budget: int,
        seed: Optional[int] = None,
        seed_node: int = 0,
    ) -> None:
        super().__init__(budget)
        self.graph = graph
        self._walk = SimpleWalk(
            graph, NodeSpace(), rng=random.Random(seed), seed_node=seed_node
        )
        self._previous = self._walk.state[0]
        self._current = self._walk.step()[0]
        self._phi_weighted = 0.0
        self._psi = 0.0

    def _advance(self, n: int) -> None:
        graph, walk = self.graph, self._walk
        previous, current = self._previous, self._current
        phi_weighted, psi = self._phi_weighted, self._psi
        for _ in range(n):
            nxt = walk.step()[0]
            degree = graph.degree(current)
            if nxt in graph.neighbor_set(previous):
                phi_weighted += degree
            psi += degree - 1
            previous, current = current, nxt
        self._previous, self._current = previous, current
        self._phi_weighted, self._psi = phi_weighted, psi

    def snapshot(self) -> Estimate:
        cc = self._phi_weighted / self._psi if self._psi else 0.0
        triangle_c = cc / (3.0 - 2.0 * cc)
        return Estimate(
            method="hardiman_katzir",
            k=3,
            steps=self.consumed,
            samples=self.consumed,
            concentrations=np.array([1.0 - triangle_c, triangle_c]),
            elapsed_seconds=self._elapsed,
            meta={
                "phi_weighted": self._phi_weighted,
                "psi": self._psi,
                "clustering_coefficient": cc,
                "triangle_concentration": triangle_c,
                "wedge_concentration": 1.0 - triangle_c,
                "api_calls": getattr(self.graph, "api_calls", None),
            },
        )
