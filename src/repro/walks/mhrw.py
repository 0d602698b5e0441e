"""Metropolis–Hastings random walk on the node set of G.

Used by the adapted wedge sampling baseline (paper Appendix F / Algorithm 4)
to target the wedge-proportional node distribution
``pi(v) ~ C(d_v, 2)``, and available with any positive target weight
(e.g. uniform, the classic MHRW used for unbiased node sampling in OSNs).

Proposal: one step of the simple random walk (uniform neighbor).  The
acceptance ratio for target weight ``w`` is
``min(1, (w(j)/d_j) / (w(i)/d_i))``; for ``w(v) = C(d_v, 2)`` this reduces
to ``min(1, (d_j - 1)/(d_i - 1))`` — exactly line 12 of Algorithm 4.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Optional


def wedge_weight(degree: int) -> float:
    """Target weight proportional to the number of wedges centered at a
    node: C(d, 2)."""
    return degree * (degree - 1) / 2.0


def uniform_weight(degree: int) -> float:
    """Target weight for the uniform node distribution."""
    return 1.0


class MetropolisHastingsWalk:
    """MH walk whose stationary distribution is proportional to
    ``weight(degree(v))``.

    Parameters
    ----------
    graph:
        :class:`~repro.graphs.Graph` or
        :class:`~repro.graphs.RestrictedGraph`.
    weight:
        Maps a node's *degree* to its unnormalized stationary weight.  All
        targets used in the paper are degree-functions, which keeps the
        restricted-access cost at one API call per examined node.
    """

    def __init__(
        self,
        graph,
        weight: Callable[[int], float] = wedge_weight,
        rng: Optional[random.Random] = None,
        seed_node: int = 0,
    ) -> None:
        self.graph = graph
        self.weight = weight
        self.rng = rng if rng is not None else random.Random()
        if not len(graph.neighbors(seed_node)):
            raise ValueError(f"seed node {seed_node} is isolated")
        self.state = seed_node
        self.steps_taken = 0
        self.accepted = 0

    def step(self) -> int:
        """One proposal/accept step; returns the (possibly unchanged) state."""
        current = self.state
        neighbors = self.graph.neighbors(current)
        proposal = int(neighbors[self.rng.randrange(len(neighbors))])
        d_cur = len(neighbors)
        d_prop = self.graph.degree(proposal)
        # min(1, [w(prop)/d_prop] / [w(cur)/d_cur])
        numerator = self.weight(d_prop) * d_cur
        denominator = self.weight(d_cur) * d_prop
        if denominator <= 0 or self.rng.random() * denominator <= numerator:
            self.state = proposal
            self.accepted += 1
        self.steps_taken += 1
        return self.state

    def walk(self, steps: int) -> Iterator[int]:
        """Yield ``steps`` successive states."""
        for _ in range(steps):
            yield self.step()

    @property
    def acceptance_rate(self) -> float:
        """Fraction of proposals accepted so far."""
        return self.accepted / self.steps_taken if self.steps_taken else 0.0
