"""The d <= 2 proposal kernels against the rejection loops they replaced.

:class:`~repro.relgraph.vectorized.VectorNodeSpace` and
:class:`~repro.relgraph.vectorized.VectorEdgeSpace` read the graph
arrays once per call and redraw only the lanes still rejected.
:func:`reference.rejection_propose` and
:func:`reference.rejection_propose_nb` are the original loops: the same
seed must give the same state history and leave the generator in the
same state.  The path/star graph has degree-1 states (forced
backtracks) and few-neighbour states that redraw over several rounds.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from reference import rejection_propose, rejection_propose_nb

from repro.graphs import CSRGraph, Graph, load_dataset
from repro.relgraph.spaces import WalkSpaceError
from repro.walks import BatchedWalkEngine

CHAINS = 48
STEPS = 150


def path_star() -> CSRGraph:
    """Star with centre 0 and leaves 1-4; the path 4-5-6-7 hangs off 4."""
    return CSRGraph.from_graph(
        Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (6, 7)])
    )


GRAPHS = {
    "karate": lambda: CSRGraph.from_graph(load_dataset("karate")),
    "path-star": path_star,
}


def oracle_history(csr, d, nb, initial, steps, rng, stats):
    cur, prev, out = initial.copy(), None, []
    for _ in range(steps):
        if nb and prev is not None:
            nxt = rejection_propose_nb(csr, d, cur, prev, rng, stats)
        else:
            nxt = rejection_propose(csr, d, cur, rng)
        out.append(nxt)
        prev, cur = cur, nxt
    return np.stack(out)


@pytest.mark.parametrize("nb", [False, True], ids=["srw", "nb"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_history_matches_rejection_oracle(graph, d, nb):
    csr = GRAPHS[graph]()
    engine = BatchedWalkEngine(
        csr, d, CHAINS, np.random.default_rng(11), non_backtracking=nb,
        seed_nodes=np.arange(CHAINS) % csr.num_nodes,
    )
    initial = engine.states().copy()
    oracle_rng = copy.deepcopy(engine.rng)
    history = engine.step_block(STEPS)
    stats: dict = {}
    want = oracle_history(csr, d, nb, initial, STEPS, oracle_rng, stats)
    assert np.array_equal(history, want)
    assert engine.rng.bit_generator.state == oracle_rng.bit_generator.state
    if nb and graph == "path-star":
        # The block took the paths this kernel is about.
        assert stats["forced"] > 0
        assert stats["max_rounds"] >= 2


class TestIsolatedEdge:
    """A G(2) state whose endpoints both have degree 1 has no neighbour:
    every proposal is the state itself.  The kernel raises instead of
    rejecting forever, as the serial ``EdgeSpace`` does."""

    GRAPH = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])

    @pytest.mark.parametrize("nb", [False, True], ids=["srw", "nb"])
    def test_step_block_raises_naming_the_state(self, deadline, nb):
        csr = CSRGraph.from_graph(self.GRAPH)
        engine = BatchedWalkEngine(
            csr, 2, 2, np.random.default_rng(0), non_backtracking=nb,
            initial_states=[[0, 1], [3, 4]],
        )
        with deadline(20), pytest.raises(WalkSpaceError, match=r"\(3, 4\)"):
            engine.step_block(3)
