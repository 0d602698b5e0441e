"""Blocked step kernels: edge shapes, partition invariance, and
backend fallback.

:meth:`BatchedWalkEngine.step_block` runs T transitions of all B chains
per Python-level pass: for d >= 3 it pre-draws the ``(T, B)`` uniform
block, for d <= 2 it reads the graph arrays and checks the starting
states once and draws step by step.  This module pins that blocking is
*invisible* — every shape (B = 1, T = 1, budgets not divisible by T,
degree-1 forced backtracks, redraw rounds, mid-block stuck states) is
bit-identical to per-step stepping, and for d = 3 to the per-chain
Python reference, with and without the fused kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graphs import CSRGraph, DeltaCSRGraph, Graph, load_dataset
from repro.graphs.generators import barabasi_albert, complete_graph, path_graph
from repro.relgraph.spaces import WalkSpaceError
from repro.walks import BatchedWalkEngine

from test_rejection_kernels import path_star
from test_vectorized_d3 import ReferenceEngine, random_graphs


def twin_engines(csr, chains, seed, nb=False, seed_node=0):
    """A fused engine and its unfused double on one RNG stream."""
    return (
        BatchedWalkEngine(
            csr, 3, chains, np.random.default_rng(seed),
            seed_node=seed_node, non_backtracking=nb,
        ),
        BatchedWalkEngine(
            csr, 3, chains, np.random.default_rng(seed),
            seed_node=seed_node, non_backtracking=nb, fused=False,
        ),
    )


class TestBlockShapes:
    def test_b1_t1_blocks_match_the_reference(self):
        # The degenerate corner: one chain, one step per block.
        csr = CSRGraph.from_graph(barabasi_albert(50, 3, seed=3))
        for nb in (False, True):
            engine = BatchedWalkEngine(
                csr, 3, 1, np.random.default_rng(21),
                seed_node=1, non_backtracking=nb,
            )
            reference = ReferenceEngine(
                csr, 3, 1, np.random.default_rng(21), seed_node=1, nb=nb
            )
            assert np.array_equal(engine.states(), reference.states())
            for _ in range(25):
                block = engine.step_block(1)
                assert block.shape == (1, 1, 3)
                assert np.array_equal(block[0], reference.step())

    def test_budget_not_divisible_by_block(self):
        # 17 = 5 + 5 + 5 + 2: ragged tail blocks, same trajectory.
        csr = CSRGraph.from_graph(barabasi_albert(60, 3, seed=2))
        blocked, stepped = twin_engines(csr, 4, seed=5)
        history = [blocked.step_block(t) for t in (5, 5, 5, 2)]
        for row in np.concatenate(history, axis=0):
            assert np.array_equal(row, stepped.step())
        assert blocked.steps_taken == stepped.steps_taken == 17
        assert np.array_equal(blocked.states(), stepped.states())

    def test_empty_block_is_a_no_op(self):
        csr = CSRGraph.from_graph(barabasi_albert(30, 3, seed=1))
        engine = BatchedWalkEngine(csr, 3, 2, np.random.default_rng(0))
        before = engine.states().copy()
        assert engine.step_block(0).shape == (0, 2, 3)
        assert engine.steps_taken == 0
        assert np.array_equal(engine.states(), before)

    def test_degree1_forced_backtracks_inside_a_block(self):
        # Path 0-1-2-3: both G(3) states have degree 1, so NB's forced
        # backtrack fires on every in-block transition.
        csr = CSRGraph.from_graph(path_graph(4))
        for nb in (False, True):
            blocked, stepped = twin_engines(csr, 4, seed=0, nb=nb)
            for row in blocked.step_block(9):
                assert np.array_equal(row, stepped.step())

    def test_stuck_state_raises_inside_a_block_without_advancing(self):
        # A K3 component's lone G(3) state has no neighbors: the first
        # in-block transition raises and nothing is committed.
        csr = CSRGraph.from_graph(complete_graph(3))
        engine = BatchedWalkEngine(csr, 3, 2, np.random.default_rng(1))
        before = engine.states().copy()
        with pytest.raises(WalkSpaceError, match="no G"):
            engine.step_block(4)
        assert engine.steps_taken == 0
        assert np.array_equal(engine.states(), before)

    def test_midblock_failure_commits_the_completed_prefix(self, monkeypatch):
        # A failure on the block's third transition must leave the
        # engine exactly two transitions ahead — the per-step contract.
        csr = CSRGraph.from_graph(barabasi_albert(60, 3, seed=2))
        blocked, stepped = twin_engines(csr, 4, seed=5)
        stepped.step()
        stepped.step()
        kernel = blocked._fused
        original = kernel.propose
        calls = {"n": 0}

        def flaky(graph, states, u, out=None):
            if calls["n"] == 2:
                raise WalkSpaceError("injected mid-block failure")
            calls["n"] += 1
            return original(graph, states, u, out=out)

        monkeypatch.setattr(kernel, "propose", flaky)
        with pytest.raises(WalkSpaceError, match="injected"):
            blocked.step_block(5)
        assert blocked.steps_taken == 2
        assert np.array_equal(blocked.states(), stepped.states())


class TestBlockParity:
    @settings(max_examples=30, deadline=None)
    @given(
        random_graphs(min_nodes=6, max_nodes=14),
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_blocking_never_changes_the_walk(self, g, chains, blocks, nb):
        """Any partition of the budget into blocks — fused engine —
        matches the same budget stepped one transition at a time on the
        unfused engine, including where both runs get stuck."""
        csr = CSRGraph.from_graph(g)
        try:
            blocked, stepped = twin_engines(csr, chains, seed=3, nb=nb)
        except (WalkSpaceError, ValueError):
            assume(False)
        history = []
        blocked_error = stepped_error = None
        try:
            for t in blocks:
                history.append(blocked.step_block(t))
        except WalkSpaceError as exc:
            blocked_error = str(exc)
        try:
            for _ in range(sum(blocks)):
                stepped.step()
        except WalkSpaceError as exc:
            stepped_error = str(exc)
        assert blocked_error == stepped_error
        assert blocked.steps_taken == stepped.steps_taken
        assert np.array_equal(blocked.states(), stepped.states())
        if history and blocked_error is None:
            replay = BatchedWalkEngine(
                csr, 3, chains, np.random.default_rng(3),
                non_backtracking=nb, fused=False,
            )
            for row in np.concatenate(history, axis=0):
                assert np.array_equal(row, replay.step())

    def test_block_size_is_a_pure_throughput_knob(self, karate, monkeypatch):
        import repro
        from repro.core import estimator

        base = repro.estimate(
            karate, "srw3", budget=2_048, seed=9, backend="csr", chains=16
        )
        for block_size in (1, 7, 4096):
            monkeypatch.setattr(estimator, "DEFAULT_ACC_BLOCK", block_size)
            alt = repro.estimate(
                karate, "srw3", budget=2_048, seed=9, backend="csr", chains=16
            )
            assert np.array_equal(base.sums, alt.sums)
            assert np.array_equal(base.sample_counts, alt.sample_counts)
            assert base.samples == alt.samples


def rejection_engine(csr, d, chains, nb, seed=7, **kwargs):
    """A d <= 2 engine with one start per chain, spread over the nodes."""
    kwargs.setdefault("seed_nodes", np.arange(chains) % csr.num_nodes)
    return BatchedWalkEngine(
        csr, d, chains, np.random.default_rng(seed), non_backtracking=nb, **kwargs
    )


class TestRejectionBlocks:
    """The d <= 2 block pass: one graph read and one isolation check per
    block, each transition written in place, the uniform order exact."""

    GRAPHS = {"path-star": path_star, "karate": lambda: CSRGraph.from_graph(load_dataset("karate"))}

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(GRAPHS)),
        st.sampled_from([1, 2]),
        st.booleans(),
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=6),
    )
    def test_any_split_walks_the_one_block_history(self, graph, d, nb, chains, split):
        """T transitions as ``step_block``/``step`` calls of any sizes
        (0 means one ``step()``) give the one-block history and leave
        the generator in the same state."""
        csr = self.GRAPHS[graph]()
        whole = rejection_engine(csr, d, chains, nb)
        pieces = rejection_engine(csr, d, chains, nb)
        history = []
        for size in split:
            if size == 0:
                history.append(pieces.step()[None].copy())
            else:
                history.append(pieces.step_block(size))
        history = np.concatenate(history, axis=0)
        assert np.array_equal(whole.step_block(len(history)), history)
        assert whole.rng.bit_generator.state == pieces.rng.bit_generator.state
        assert whole.steps_taken == pieces.steps_taken == len(history)
        assert np.array_equal(whole.states(), pieces.states())

    @pytest.mark.parametrize("nb", [False, True], ids=["srw", "nb"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_returned_block_is_the_callers(self, d, nb):
        csr = path_star()
        engine = rejection_engine(csr, d, 5, nb)
        twin = rejection_engine(csr, d, 5, nb)
        block = engine.step_block(6)
        assert np.array_equal(block, twin.step_block(6))
        block[...] = -1
        assert np.array_equal(engine.states(), twin.states())
        assert np.array_equal(engine.step_block(9), twin.step_block(9))

    @pytest.mark.parametrize("nb", [False, True], ids=["srw", "nb"])
    def test_isolated_start_raises_before_any_draw(self, nb):
        csr = CSRGraph.from_graph(Graph(5, [(0, 1), (1, 2), (2, 3)]))
        engine = rejection_engine(csr, 1, 3, nb, initial_states=[0, 4, 2])
        rng_state = engine.rng.bit_generator.state
        for _ in range(2):
            with pytest.raises(WalkSpaceError, match="node 4 is isolated"):
                engine.step_block(3)
        assert engine.steps_taken == 0
        assert np.array_equal(engine.states(), [0, 4, 2])
        assert engine.rng.bit_generator.state == rng_state

    @pytest.mark.parametrize("nb", [False, True], ids=["srw", "nb"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_each_block_reads_the_current_graph_version(self, d, nb):
        """An engine on a delta overlay keeps no graph array across
        blocks: after ``apply`` it walks what the same engine walks on
        the compacted graph."""
        karate = load_dataset("karate")
        delta = DeltaCSRGraph(CSRGraph.from_graph(karate))
        engine = rejection_engine(delta, d, 8, nb)
        reference = rejection_engine(CSRGraph.from_graph(karate), d, 8, nb)
        assert np.array_equal(engine.step_block(12), reference.step_block(12))
        n = karate.num_nodes
        inserts = [(u, (u + 5) % n) for u in range(n) if not karate.has_edge(u, (u + 5) % n)]
        delta.apply(inserts=inserts)
        after = engine.step_block(40)
        reference.csr = delta.compact()
        assert np.array_equal(after, reference.step_block(40))
        assert engine.rng.bit_generator.state == reference.rng.bit_generator.state
