"""Wedge sampling (Seshadhri, Pinar & Kolda [32]) — full-access baseline.

Draws independent uniform wedges (paths of length two): pick a center node
``v`` with probability proportional to C(d_v, 2), then a uniform pair of
its neighbors.  The fraction kappa of *closed* wedges estimates the triadic
statistics:

    triangles   T = kappa * W / 3,   W = total wedge count
    c_2^3 (triangle concentration) = kappa / (3 - 2 * kappa)

(the last identity follows from C_1^3 = (1 - kappa) W and C_2^3 = kappa W/3).

Requires the whole graph up front (the O(|V|) preprocessing the paper's
§6.3.2 highlights); the restricted-access adaptation is
:mod:`.wedge_mhrw`.

:class:`WedgeSession` exposes the run through the streaming estimator
protocol (registry name ``"wedge"``) and returns the unified
:class:`~repro.core.result.Estimate` whose k=3 concentrations are
``[c_1^3, c_2^3]``; triadic extras (``triangle_count``, ``closed_fraction``, …) ride in the
meta dict and stay readable as attributes.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from itertools import accumulate
from typing import Optional

import numpy as np

from ..core.result import Estimate
from ..core.session import Session
from ..graphs.graph import Graph


class WedgeSampler:
    """Reusable wedge sampler with cached cumulative weights."""

    def __init__(self, graph: Graph, rng: Optional[random.Random] = None) -> None:
        self.graph = graph
        self.rng = rng if rng is not None else random.Random()
        start = time.perf_counter()
        weights = [d * (d - 1) // 2 for d in graph.degrees()]
        self.total_wedges = sum(weights)
        if self.total_wedges == 0:
            raise ValueError("graph has no wedges")
        self.cumulative = list(accumulate(weights))
        self.preprocess_seconds = time.perf_counter() - start

    def sample_center(self) -> int:
        """A node drawn with probability C(d_v, 2) / W."""
        target = self.rng.randrange(self.total_wedges)
        return bisect.bisect_right(self.cumulative, target)

    def sample_wedge(self) -> tuple:
        """A uniform wedge as (center, endpoint_a, endpoint_b)."""
        center = self.sample_center()
        neighbors = self.graph.neighbors(center)
        a_pos = self.rng.randrange(len(neighbors))
        b_pos = self.rng.randrange(len(neighbors) - 1)
        if b_pos >= a_pos:
            b_pos += 1
        return center, neighbors[a_pos], neighbors[b_pos]


class WedgeSession(Session):
    """Streaming wedge-sampling run: one budget unit = one wedge draw."""

    def __init__(self, graph: Graph, budget: int, seed: Optional[int] = None) -> None:
        super().__init__(budget)
        self.sampler = WedgeSampler(graph, random.Random(seed))
        self._closed = 0

    def _advance(self, n: int) -> None:
        sampler = self.sampler
        graph = sampler.graph
        closed = 0
        for _ in range(n):
            _, a, b = sampler.sample_wedge()
            if graph.has_edge(a, b):
                closed += 1
        self._closed += closed

    def snapshot(self) -> Estimate:
        samples = self.consumed
        kappa = self._closed / samples if samples else 0.0
        triangle_c = kappa / (3.0 - 2.0 * kappa)
        stderr = None
        if samples:
            # Binomial error on kappa, delta-method through c_2 = k/(3-2k).
            kappa_se = math.sqrt(kappa * (1.0 - kappa) / samples)
            c2_se = 3.0 * kappa_se / (3.0 - 2.0 * kappa) ** 2
            stderr = np.array([c2_se, c2_se])
        total_wedges = self.sampler.total_wedges
        return Estimate(
            method="wedge",
            k=3,
            steps=samples,
            samples=samples,
            concentrations=np.array([1.0 - triangle_c, triangle_c]),
            stderr=stderr,
            elapsed_seconds=self._elapsed,
            meta={
                "closed": self._closed,
                "total_wedges": total_wedges,
                "closed_fraction": kappa,
                "triangle_concentration": triangle_c,
                "wedge_concentration": 1.0 - triangle_c,
                "triangle_count": kappa * total_wedges / 3.0,
                "wedge_graphlet_count": (1.0 - kappa) * total_wedges,
                "preprocess_seconds": self.sampler.preprocess_seconds,
            },
        )
