"""The slow reference oracle for SRW window accumulation.

Per-chain Python accumulators, fed one state at a time from a batched
engine: the straightforward reading of Algorithm 1 that the production
:class:`~repro.core.estimator._VectorizedAccumulator` must reproduce
bit for bit (same windows, same weights, same per-(chain, type) addition
order).  Test code only; nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.css import sampling_weight
from repro.core.estimator import (
    MethodSpec,
    _effective_degree_fn,
    _VectorizedAccumulator,
)
from repro.graphlets.catalog import classify_bitmask
from repro.relgraph.spaces import walk_space


class _ChainAccumulator:
    """Algorithm 1's window/classification pipeline for one chain.

    Mirrors the accumulation of the serial chain
    (:class:`repro.core.estimator._SerialChain`) but is *fed* states one
    at a time (``push``) instead of driving a walker itself, which lets
    :func:`_batched_python` interleave B accumulators over the state
    blocks of a :class:`~repro.walks.batched.BatchedWalkEngine`.

    Feeding protocol: ``push(initial_state)`` once, then one ``push`` per
    walk transition.  The first ``burn_in`` transitions are discarded,
    the next ``l - 1`` fill the window (uncounted, like the serial loop's
    window build), and every following transition processes the current
    window *before* sliding — exactly the serial loop's order — until
    ``budget`` counted transitions are consumed.
    """

    __slots__ = (
        "graph",
        "spec",
        "alphas",
        "effective_degree",
        "sums",
        "sample_counts",
        "budget",
        "burn_left",
        "window",
        "node_multiplicity",
        "window_degrees",
        "need_degrees",
        "valid_samples",
        "steps_done",
        "_started",
    )

    def __init__(
        self,
        graph,
        spec: MethodSpec,
        alphas: Sequence[float],
        effective_degree: Callable[[Tuple[int, ...]], int],
        budget: int,
        burn_in: int = 0,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.alphas = alphas
        self.effective_degree = effective_degree
        self.sums = np.zeros(len(alphas))
        self.sample_counts = np.zeros(len(alphas), dtype=np.int64)
        self.budget = budget
        self.burn_left = burn_in
        self.window: List[Tuple[int, ...]] = []
        self.node_multiplicity: Dict[int, int] = {}
        self.window_degrees: List[int] = []
        self.need_degrees = spec.l > 2
        self.valid_samples = 0
        self.steps_done = 0
        self._started = False

    @property
    def done(self) -> bool:
        return self.steps_done >= self.budget

    def _admit(self, state: Tuple[int, ...]) -> None:
        """Add a state to the window and its nodes to the multiset."""
        self.window.append(state)
        for v in state:
            self.node_multiplicity[v] = self.node_multiplicity.get(v, 0) + 1
        if self.need_degrees:
            self.window_degrees.append(self.effective_degree(state))

    def push(self, state: Tuple[int, ...]) -> None:
        if self.done:
            return
        if not self._started:  # the chain's initial state, not a transition
            self._started = True
            self._admit(state)
            return
        if self.burn_left > 0:
            # Discarded transition: restart the window from this state.
            self.burn_left -= 1
            self.window.clear()
            self.node_multiplicity.clear()
            self.window_degrees.clear()
            self._admit(state)
            return
        if len(self.window) < self.spec.l:
            self._admit(state)
            return
        self._process_window()
        # Slide: drop the oldest state, admit the new one.
        old_state = self.window.pop(0)
        for v in old_state:
            remaining = self.node_multiplicity[v] - 1
            if remaining:
                self.node_multiplicity[v] = remaining
            else:
                del self.node_multiplicity[v]
        if self.need_degrees:
            self.window_degrees.pop(0)
        self._admit(state)
        self.steps_done += 1

    def _process_window(self) -> None:
        """Classify and re-weight the current window (one Algorithm 1
        iteration); windows covering != k distinct nodes are invalid."""
        spec = self.spec
        k, d = spec.k, spec.d
        if len(self.node_multiplicity) != k:
            return
        nodes = sorted(self.node_multiplicity)
        neighbor_set = self.graph.neighbor_set
        mask = 0
        bit = 0
        for i in range(k):
            u_adj = neighbor_set(nodes[i])
            for j in range(i + 1, k):
                if nodes[j] in u_adj:
                    mask |= 1 << bit
                bit += 1
        type_index = classify_bitmask(mask, k)
        if spec.css:
            p_tilde = sampling_weight(mask, nodes, k, d, self.effective_degree)
            weight = 1.0 / p_tilde
        else:
            weight = 1.0 / self.alphas[type_index]
            for degree in self.window_degrees[1:-1]:
                weight *= degree
        self.sums[type_index] += weight
        self.sample_counts[type_index] += 1
        self.valid_samples += 1


def _batched_python(
    graph, spec: MethodSpec, alphas, budgets: List[int], engine, burn_in: int
):
    """Drain a batched engine through one Python accumulator per chain.

    The reference accumulation: the production
    :class:`~repro.core.estimator._VectorizedAccumulator` (driven by
    :func:`_batched_vectorized`) must process exactly these windows and
    reproduce these sums bit for bit — the parity suites drive both off
    identically seeded engines.
    """
    effective_degree = _effective_degree_fn(graph, walk_space(spec.d), spec)
    accumulators = [
        _ChainAccumulator(graph, spec, alphas, effective_degree, budget, burn_in)
        for budget in budgets
    ]
    d = spec.d
    initial = engine.states()
    for b, acc in enumerate(accumulators):
        state = (int(initial[b]),) if d == 1 else tuple(int(x) for x in initial[b])
        acc.push(state)
    # Each chain consumes burn_in discarded transitions, l - 1 window
    # fills, then its counted budget — same accounting as the serial chain.
    remaining = max(budgets) + burn_in + spec.l - 1
    block_size = 1024
    while remaining > 0 and not all(acc.done for acc in accumulators):
        block = engine.step_block(min(block_size, remaining))
        remaining -= block.shape[0]
        if d == 1:
            for b, acc in enumerate(accumulators):
                if acc.done:
                    continue
                for value in block[:, b].tolist():
                    acc.push((value,))
        else:
            for b, acc in enumerate(accumulators):
                if acc.done:
                    continue
                for row in block[:, b].tolist():
                    acc.push(tuple(row))
    sums = np.zeros(len(alphas))
    sample_counts = np.zeros(len(alphas), dtype=np.int64)
    valid_samples = 0
    for acc in accumulators:
        if not acc.done:  # pragma: no cover - budget math guarantees done
            raise RuntimeError("batched run ended before a chain's budget")
        sums += acc.sums
        sample_counts += acc.sample_counts
        valid_samples += acc.valid_samples
    return sums, sample_counts, valid_samples


def _batched_vectorized(
    graph, spec: MethodSpec, alphas, budgets: List[int], engine, burn_in: int
):
    """Drive the production vectorized accumulator through the whole
    budget; returns pooled ``(sums, sample_counts, valid_samples)`` in
    the shape :func:`_batched_python` does."""
    acc = _VectorizedAccumulator(graph, spec, alphas, budgets, engine, burn_in)
    acc.advance(acc.total)
    return acc.pooled_sums(), acc.sample_counts, acc.valid_samples
