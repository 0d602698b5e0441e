"""GUISE (Bhuiyan et al. [6]) — Metropolis–Hastings graphlet sampler.

GUISE runs an MH walk over the combined space of all 3-, 4- and 5-node
connected induced subgraphs, targeting the *uniform* distribution, and
reads graphlet concentrations off the visit frequencies.  Neighbors of a
subgraph are produced by removing a node (keeping it connected, size > 3),
adding an adjacent node (size < 5), or swapping one node for an adjacent
one; a uniform proposal is accepted with probability
``min(1, |N(current)| / |N(proposal)|)``.

The paper cites GUISE's *sample rejection* as its weakness (§1.1): every
rejected proposal burns a step (and, under restricted access, API calls)
without producing a new sample.  The result records the rejection rate so
experiments can show exactly that.

:class:`GuiseSession` exposes the run through the streaming estimator
protocol (``step``/``snapshot``/``result``) and returns the unified
:class:`~repro.core.result.Estimate`; ``repro.estimate(graph, "guise",
k=k, ...)`` runs it.  Visit tallies for all sizes stay available as
``result.visits``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import numpy as np

from ..core.result import Estimate
from ..core.session import Session
from ..graphlets.catalog import classify_nodes, graphlets

State = Tuple[int, ...]

MIN_SIZE = 3
MAX_SIZE = 5


def _connected_after_removal(graph, nodes: Tuple[int, ...], out: int) -> bool:
    remaining = [u for u in nodes if u != out]
    remaining_set = set(remaining)
    stack = [remaining[0]]
    seen = {remaining[0]}
    while stack:
        u = stack.pop()
        for w in graph.neighbor_set(u):
            if w in remaining_set and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(remaining)


def guise_neighbors(graph, state: State) -> List[State]:
    """All GUISE neighbors of a subgraph state (sorted node tuples)."""
    size = len(state)
    state_set = set(state)
    neighbors: List[State] = []
    # Removal (size - 1 >= MIN_SIZE).
    if size > MIN_SIZE:
        for out in state:
            if _connected_after_removal(graph, state, out):
                neighbors.append(tuple(u for u in state if u != out))
    # Addition (size + 1 <= MAX_SIZE): any adjacent outside node.
    adjacent_outside = {
        w for u in state for w in graph.neighbor_set(u) if w not in state_set
    }
    if size < MAX_SIZE:
        for w in adjacent_outside:
            neighbors.append(tuple(sorted(state + (w,))))
    # Swap: remove one node, add an adjacent-to-remainder node.
    for out in state:
        remainder = tuple(u for u in state if u != out)
        remainder_set = set(remainder)
        candidates = {
            w
            for u in remainder
            for w in graph.neighbor_set(u)
            if w not in state_set
        }
        for w in candidates:
            new_nodes = remainder + (w,)
            if _is_connected(graph, new_nodes):
                neighbors.append(tuple(sorted(new_nodes)))
    return neighbors


def _is_connected(graph, nodes: Tuple[int, ...]) -> bool:
    node_set = set(nodes)
    stack = [nodes[0]]
    seen = {nodes[0]}
    while stack:
        u = stack.pop()
        for w in graph.neighbor_set(u):
            if w in node_set and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(node_set)


class GuiseSession(Session):
    """Streaming GUISE run: one budget unit = one MH proposal.

    Concentrations in snapshots refer to the ``k`` chosen at
    construction; visit tallies for all sizes ride along in
    ``meta['visits']``.  GUISE targets the uniform distribution over
    subgraphs, so within one size class the visit frequencies estimate
    concentrations directly.
    """

    def __init__(
        self,
        graph,
        budget: int,
        k: int = 3,
        seed: Optional[int] = None,
        seed_node: int = 0,
    ) -> None:
        super().__init__(budget)
        if k not in (MIN_SIZE, 4, MAX_SIZE):
            raise ValueError(f"GUISE covers k in (3, 4, 5), got k={k}")
        self.graph = graph
        self.k = k
        self._rng = rng = random.Random(seed)
        # Grow the initial 3-node state.
        state: List[int] = [seed_node]
        while len(state) < MIN_SIZE:
            frontier = [
                w for u in state for w in graph.neighbors(u) if w not in state
            ]
            if not frontier:
                raise ValueError(f"cannot grow a 3-node subgraph from {seed_node}")
            state.append(frontier[rng.randrange(len(frontier))])
        self._current: State = tuple(sorted(state))
        self._current_neighbors = guise_neighbors(graph, self._current)
        self._visits = {
            size: np.zeros(len(graphlets(size)), dtype=np.int64)
            for size in (MIN_SIZE, 4, MAX_SIZE)
        }
        self._rejected = 0

    def _advance(self, n: int) -> None:
        graph, rng = self.graph, self._rng
        current, current_neighbors = self._current, self._current_neighbors
        visits = self._visits
        for _ in range(n):
            visits[len(current)][classify_nodes(graph, current)] += 1
            proposal = current_neighbors[rng.randrange(len(current_neighbors))]
            proposal_neighbors = guise_neighbors(graph, proposal)
            accept = min(1.0, len(current_neighbors) / len(proposal_neighbors))
            if rng.random() < accept:
                current, current_neighbors = proposal, proposal_neighbors
            else:
                self._rejected += 1
        self._current, self._current_neighbors = current, current_neighbors

    def snapshot(self) -> Estimate:
        counts = self._visits[self.k]
        total = int(counts.sum())
        if total:
            concentrations = counts / total
            # Naive multinomial errors; proposals are correlated, so read
            # these as a lower bound on the true MCMC error.
            stderr = np.sqrt(concentrations * (1.0 - concentrations) / total)
        else:
            concentrations = np.zeros(len(counts))
            stderr = None
        steps = self.consumed
        return Estimate(
            method="guise",
            k=self.k,
            steps=steps,
            samples=total,
            concentrations=concentrations,
            stderr=stderr,
            elapsed_seconds=self._elapsed,
            meta={
                "visits": {size: array.copy() for size, array in self._visits.items()},
                "rejected": self._rejected,
                "rejection_rate": self._rejected / steps if steps else 0.0,
                "api_calls": getattr(self.graph, "api_calls", None),
            },
        )
