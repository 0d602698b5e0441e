"""Random-walk steppers over G(d).

:class:`SimpleWalk` is the plain simple random walk used by the basic
framework (§3); :class:`NonBacktrackingWalk` implements the NB-SRW
optimization (§4.2): never return to the previous state unless it is the
only neighbor (degree-1 states), which preserves the edge-uniform stationary
distribution while reducing "invalid" samples.

Both walkers operate on a :class:`repro.relgraph.WalkSpace`, so the same
code drives walks on G, G(2), and G(d >= 3), against any graph backend —
:class:`~repro.graphs.Graph`, :class:`~repro.graphs.CSRGraph`, or a
:class:`~repro.graphs.RestrictedGraph`.

Transition kernels dispatch on the backend: :func:`make_walk` always
returns a serial one-chain walker (identical RNG consumption on every
backend, so fixed-seed results are backend-independent for d <= 2), while
:func:`make_engine` builds the vectorized multi-chain
:class:`~repro.walks.batched.BatchedWalkEngine` on a CSR substrate — any
walk dimension, including the d >= 3 swap-frontier kernels.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

import numpy as np

from ..relgraph.spaces import State, WalkSpace
from .batched import BatchedWalkEngine, check_seed_node


class SimpleWalk:
    """Simple random walk on G(d): uniform neighbor each step."""

    def __init__(
        self,
        graph,
        space: WalkSpace,
        rng: Optional[random.Random] = None,
        seed_node: int = 0,
    ) -> None:
        check_seed_node(graph, seed_node)
        self.graph = graph
        self.space = space
        self.rng = rng if rng is not None else random.Random()
        self.state: State = space.initial_state(graph, self.rng, seed_node)
        self.steps_taken = 0

    def step(self) -> State:
        """Advance one step; returns the new state."""
        self.state = self.space.random_neighbor(self.graph, self.state, self.rng)
        self.steps_taken += 1
        return self.state

    def walk(self, steps: int) -> Iterator[State]:
        """Yield ``steps`` successive states (after the initial one)."""
        for _ in range(steps):
            yield self.step()

    def state_degree(self) -> int:
        """Degree of the current state in G(d)."""
        return self.space.degree(self.graph, self.state)


class NonBacktrackingWalk(SimpleWalk):
    """Non-backtracking random walk on G(d) (§4.2).

    Transition rule: from state ``j`` reached from ``i``, move uniformly
    among neighbors of ``j`` other than ``i``; if ``i`` is the only
    neighbor, return to it (probability 1) — exactly the matrix P' of §4.2.

    For d <= 2 the exclusion uses rejection sampling on the O(1) neighbor
    sampler (at most a geometric number of retries); for d >= 3 the
    enumerated neighbor list is filtered directly.
    """

    def __init__(
        self,
        graph,
        space: WalkSpace,
        rng: Optional[random.Random] = None,
        seed_node: int = 0,
    ) -> None:
        super().__init__(graph, space, rng, seed_node)
        self.previous: Optional[State] = None

    def step(self) -> State:
        prev, current = self.previous, self.state
        if prev is None:
            new_state = self.space.random_neighbor(self.graph, current, self.rng)
        elif self.space.d <= 2:
            if self.space.degree(self.graph, current) <= 1:
                new_state = prev  # forced backtrack on degree-1 states
            else:
                while True:
                    new_state = self.space.random_neighbor(
                        self.graph, current, self.rng
                    )
                    if new_state != prev:
                        break
        else:
            candidates = [
                s for s in self.space.neighbors(self.graph, current) if s != prev
            ]
            new_state = (
                candidates[self.rng.randrange(len(candidates))] if candidates else prev
            )
        self.previous = current
        self.state = new_state
        self.steps_taken += 1
        return new_state


def make_walk(
    graph,
    space: WalkSpace,
    non_backtracking: bool = False,
    rng: Optional[random.Random] = None,
    seed_node: int = 0,
) -> SimpleWalk:
    """Factory for the walker matching a method's NB flag."""
    cls = NonBacktrackingWalk if non_backtracking else SimpleWalk
    return cls(graph, space, rng, seed_node)


def make_engine(
    graph,
    space: WalkSpace,
    chains: int,
    non_backtracking: bool = False,
    rng: Optional[random.Random] = None,
    seed_node: int = 0,
) -> BatchedWalkEngine:
    """The vectorized multi-chain engine on G(d) over a CSR ``graph``.

    Its NumPy generator is seeded by one ``randrange(2**63)`` draw from
    ``rng``.  A graph without vectorized kernels raises ``TypeError``;
    multi-chain sessions on such a graph run serial per-chain walkers
    instead (see :func:`~repro.walks.batched.batch_support`).
    """
    rng = rng if rng is not None else random.Random()
    np_rng = np.random.default_rng(rng.randrange(2**63))
    return BatchedWalkEngine(
        graph,
        space.d,
        chains,
        np_rng,
        seed_node=seed_node,
        non_backtracking=non_backtracking,
    )
