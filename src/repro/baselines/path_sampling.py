"""3-path sampling (Jha, Seshadhri & Pinar [14]) — full-access baseline.

Estimates 4-node graphlet counts by sampling uniform *3-paths* (paths on 4
distinct nodes): pick a central edge e = (u, v) with probability
proportional to ``tau_e = (d_u - 1)(d_v - 1)``, then independent uniform
neighbors ``u' of u (!= v)`` and ``v' of v (!= u)``; retain the sample when
all four nodes are distinct.

Each retained sample is a uniform 3-path among the S' proper 3-paths of the
graph (S' = sum_e tau_e - 3T), and a 4-node graphlet of type i contains
``beta_i`` 3-paths (its Hamiltonian-path count: 1, 0, 4, 2, 6, 12 in
catalog order), so

    C^_i = (hits_i / n) * S / beta_i

where S = sum_e tau_e and ``hits_i`` counts samples classified as type i
(triangle-degenerate draws with u' = v' are kept in n but discarded as
hits, which is what makes S rather than S' the correct normalizer).

The 3-star (beta = 0) is invisible to this sampler — the reason the paper
declines to adapt path sampling to restricted access (§6.3.3).  Its
concentration and count are ``nan`` in the unified
:class:`~repro.core.result.Estimate` that :class:`PathSamplingSession`
(registry name ``"path_sampling"``) returns; count estimates are in
``meta['count_estimates']`` / :meth:`Estimate.count_dict`.
"""

from __future__ import annotations

import bisect
import random
import time
from itertools import accumulate
from typing import List, Optional, Tuple

import numpy as np

from ..core.alpha import hamilton_paths
from ..core.result import Estimate
from ..core.session import Session
from ..graphlets.catalog import classify_nodes, graphlets
from ..graphs.graph import Graph


def path_weights(k: int = 4) -> Tuple[int, ...]:
    """beta_i: number of Hamiltonian (spanning) paths per graphlet type."""
    return tuple(hamilton_paths(g.edges, k) for g in graphlets(k))


class PathSampler:
    """Reusable 3-path sampler with cached edge weights."""

    def __init__(self, graph: Graph, rng: Optional[random.Random] = None) -> None:
        self.graph = graph
        self.rng = rng if rng is not None else random.Random()
        start = time.perf_counter()
        self.edges: List[Tuple[int, int]] = list(graph.edges())
        weights = [
            (graph.degree(u) - 1) * (graph.degree(v) - 1) for u, v in self.edges
        ]
        self.total_weight = float(sum(weights))
        if self.total_weight <= 0:
            raise ValueError("graph has no 3-paths")
        self.cumulative = list(accumulate(weights))
        self.preprocess_seconds = time.perf_counter() - start

    def sample_edge(self) -> Tuple[int, int]:
        """A central edge drawn with probability tau_e / S."""
        target = self.rng.randrange(int(self.total_weight))
        return self.edges[bisect.bisect_right(self.cumulative, target)]


class PathSamplingSession(Session):
    """Streaming 3-path run: one budget unit = one candidate draw."""

    def __init__(self, graph: Graph, budget: int, seed: Optional[int] = None) -> None:
        super().__init__(budget)
        self.sampler = PathSampler(graph, random.Random(seed))
        self._hits = np.zeros(len(graphlets(4)), dtype=np.int64)

    def _advance(self, n: int) -> None:
        sampler = self.sampler
        rng = sampler.rng
        graph = sampler.graph
        hits = self._hits
        for _ in range(n):
            u, v = sampler.sample_edge()
            u_neighbors = graph.neighbors(u)
            v_neighbors = graph.neighbors(v)
            while True:
                u_prime = u_neighbors[rng.randrange(len(u_neighbors))]
                if u_prime != v:
                    break
            while True:
                v_prime = v_neighbors[rng.randrange(len(v_neighbors))]
                if v_prime != u:
                    break
            if u_prime == v_prime:
                continue  # only 3 distinct nodes: not a 3-path
            hits[classify_nodes(graph, (u_prime, u, v, v_prime))] += 1

    def snapshot(self) -> Estimate:
        samples = self.consumed
        betas = path_weights()
        counts = np.full(len(betas), np.nan)
        if samples:
            for i, beta in enumerate(betas):
                if beta > 0:
                    counts[i] = (
                        self._hits[i] / samples * self.sampler.total_weight / beta
                    )
        total = np.nansum(counts)
        concentrations = counts / total if total > 0 else counts.copy()
        return Estimate(
            method="path_sampling",
            k=4,
            steps=samples,
            samples=int(self._hits.sum()),
            concentrations=concentrations,
            elapsed_seconds=self._elapsed,
            meta={
                "hits": self._hits.copy(),
                "total_weight": self.sampler.total_weight,
                "count_estimates": {
                    g.name: float(counts[g.index]) for g in graphlets(4)
                },
                "preprocess_seconds": self.sampler.preprocess_seconds,
            },
        )
