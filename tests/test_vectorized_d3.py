"""The d >= 3 fast path: vectorized swap-frontier kernels vs the serial
:class:`~repro.relgraph.spaces.SubgraphSpace`.

Three layers of parity pin the generalized engine:

* **frontier/degree properties** — on hypothesis-generated graphs the
  vectorized candidate counts, candidate sets and degrees equal what
  ``SubgraphSpace.neighbors()`` enumerates, state by state;
* **walk parity** — a fixed seed drives :class:`BatchedWalkEngine` and a
  pure-Python per-chain reference (same variates, same canonical
  neighbor order) through identical trajectories, including NB lanes,
  forced backtracks on degree-1 states of G(3), and the initial-state
  growth;
* **estimation parity** — pooled SRW3/SRW3CSS estimates at B = 256 are
  bit-identical to the per-chain Python reference accumulators, and
  streamed d = 3 sessions reproduce the one-shot run.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import _batched_python, _batched_vectorized

from repro.core import MethodSpec, run_estimation
from repro.core.alpha import alpha_table
from repro.core.estimator import SRWSession, split_budget
from repro.graphs import CSRGraph, Graph
from repro.graphs.generators import barabasi_albert, complete_graph, path_graph
from repro.relgraph import enumerate_states
from repro.relgraph.spaces import SubgraphSpace, WalkSpaceError
from repro.relgraph.vectorized import VectorSubgraphSpace, _uniform_neighbor
from repro.walks import BatchedWalkEngine, state_degrees


def random_graphs(min_nodes=4, max_nodes=12):
    """Hypothesis strategy: small random Graph instances."""
    return st.integers(min_value=min_nodes, max_value=max_nodes).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=4 * n,
        ).map(lambda edges: Graph(n, edges))
    )


def canonical_neighbors(graph, state):
    """G(d) neighbors in the engine's canonical order: swap-out position
    ascending, then swap-in node id ascending (brute-force connectivity,
    independent of both implementations under test)."""
    d = len(state)
    state_set = set(state)
    result = []
    for j in range(d):
        remainder = [state[p] for p in range(d) if p != j]
        candidates = sorted(
            {int(w) for u in remainder for w in graph.neighbors(u)} - state_set
        )
        for w in candidates:
            nodes = remainder + [w]
            node_set = set(nodes)
            stack, seen = [nodes[0]], {nodes[0]}
            while stack:
                x = stack.pop()
                for y in graph.neighbors(x):
                    y = int(y)
                    if y in node_set and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == d:
                result.append(tuple(sorted(nodes)))
    return result


class ReferenceEngine:
    """Per-chain Python mirror of the batched d >= 3 engine.

    Consumes the *same* ``numpy`` Generator stream — one ``random(B)``
    vector per growth step / transition — and resolves each lane's draw
    against the canonical neighbor order, so a fixed seed must reproduce
    :class:`BatchedWalkEngine` exactly, state for state.
    """

    def __init__(self, graph, d, chains, rng, seed_node=0, nb=False):
        self.graph = graph
        self.d = d
        self.chains = chains
        self.rng = rng
        self.nb = nb
        grown = [[seed_node] for _ in range(chains)]
        for _ in range(d - 1):
            u = rng.random(chains)
            for b in range(chains):
                nodes = grown[b]
                members = set(nodes)
                frontier = [
                    int(w)
                    for x in nodes
                    for w in graph.neighbors(x)
                    if int(w) not in members
                ]
                r = min(int(u[b] * len(frontier)), len(frontier) - 1)
                nodes.append(frontier[r])
        self.cur = [tuple(sorted(nodes)) for nodes in grown]
        self.prev = None

    def states(self):
        return np.asarray(self.cur, dtype=np.int64)

    def step(self):
        u = self.rng.random(self.chains)
        nxt = []
        for b in range(self.chains):
            neighbors = canonical_neighbors(self.graph, self.cur[b])
            deg = len(neighbors)
            if self.nb and self.prev is not None:
                if deg <= 1:
                    nxt.append(self.prev[b])
                    continue
                back_rank = neighbors.index(self.prev[b])
                r = min(int(u[b] * (deg - 1)), deg - 2)
                if r >= back_rank:
                    r += 1
                nxt.append(neighbors[r])
            else:
                assert deg > 0
                nxt.append(neighbors[min(int(u[b] * deg), deg - 1)])
        self.prev = self.cur
        self.cur = nxt
        return self.states()


class TestFrontierProperties:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_frontier_matches_subgraph_space(self, g):
        """Counts, candidate sets and degrees of the vectorized frontier
        equal SubgraphSpace.neighbors() on every G(3)/G(4) state."""
        csr = CSRGraph.from_graph(g)
        for d in (3, 4):
            states = enumerate_states(g, d)
            if not states:
                continue
            space = SubgraphSpace(d)
            vec = VectorSubgraphSpace(d)
            arr = np.asarray(states, dtype=np.int64)
            counts, cand_w, cand_seg = vec.frontier(csr, arr)
            degrees = vec.degrees(csr, arr)
            flat_counts = counts.reshape(-1)
            offsets = np.cumsum(flat_counts) - flat_counts
            for i, state in enumerate(states):
                serial = space.neighbors(g, state)
                assert len(serial) == int(counts[i].sum()) == int(degrees[i])
                rebuilt = []
                for j in range(d):
                    seg = i * d + j
                    remainder = [u for u in state if u != state[j]]
                    for w in cand_w[offsets[seg] : offsets[seg] + counts[i, j]]:
                        rebuilt.append(tuple(sorted(remainder + [int(w)])))
                assert rebuilt == canonical_neighbors(g, state)
                assert set(rebuilt) == set(serial)

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(min_nodes=5, max_nodes=10))
    def test_state_degrees_match_serial(self, g):
        """windows.state_degrees (the CSS degree_fn surface) equals the
        serial space degree, nominal variant included."""
        csr = CSRGraph.from_graph(g)
        d = 3
        states = enumerate_states(g, d)
        if not states:
            return
        space = SubgraphSpace(d)
        arr = np.asarray(states, dtype=np.int64).reshape(-1, 1, d)  # odd shape
        plain = state_degrees(csr, arr, d)
        nominal = state_degrees(csr, arr, d, nominal=True)
        for i, state in enumerate(states):
            expected = space.degree(g, state)
            assert int(plain[i, 0]) == expected
            assert int(nominal[i, 0]) == max(expected - 1, 1)


class _ConstantUniform:
    """An rng stub whose ``random(n)`` returns a fixed value — drives the
    index-draw kernels through the exact float edge a real Generator
    reaches with probability ~2**-53."""

    def __init__(self, value: float):
        self.value = value

    def random(self, n: int) -> np.ndarray:
        return np.full(n, self.value)


class TestIndexDrawSafety:
    """Regression pins for the ``floor(U * count)`` index draws.

    ``U * count`` can round up to ``count`` itself at the top of the
    unit interval; unclipped, that reads one slot past the segment (the
    next CSR row / the next lane's candidates).  And a zero-count row
    must raise, not silently gather a neighboring row's data.
    """

    def test_uniform_neighbor_clips_the_top_of_the_unit_interval(self):
        csr = CSRGraph.from_graph(barabasi_albert(50, 3, seed=4))
        nodes = np.arange(50, dtype=np.int64)
        last = _uniform_neighbor(csr, nodes, _ConstantUniform(1.0))
        expected = csr.indices[csr.indptr[nodes] + csr.degrees_array[nodes] - 1]
        assert np.array_equal(last, expected)
        first = _uniform_neighbor(csr, nodes, _ConstantUniform(0.0))
        assert np.array_equal(first, csr.indices[csr.indptr[nodes]])

    def test_uniform_neighbor_raises_on_isolated_nodes(self):
        # Node 4 is isolated; without the zero-degree guard the clipped
        # offset (-1) would gather the previous row's last neighbor.
        csr = CSRGraph.from_graph(Graph(5, [(0, 1), (1, 2), (2, 3)]))
        rng = np.random.default_rng(0)
        with pytest.raises(WalkSpaceError, match="node 4 is isolated"):
            _uniform_neighbor(csr, np.array([0, 4, 2]), rng)

    def test_propose_clips_rank_at_degree(self):
        # U == 1.0 on every lane must select the *last* canonical
        # neighbor, never rank == degree (an out-of-segment read).
        g = barabasi_albert(40, 3, seed=6)
        csr = CSRGraph.from_graph(g)
        vec = VectorSubgraphSpace(3)
        states = vec.initial(csr, np.random.default_rng(3), np.arange(8))
        nxt = vec.propose(csr, states, _ConstantUniform(1.0))
        for row, out in zip(states, nxt):
            assert tuple(out) == canonical_neighbors(g, tuple(row))[-1]

    def test_initial_growth_clips_frontier_rank(self):
        # Same edge in the multiset-frontier growth draw.
        csr = CSRGraph.from_graph(barabasi_albert(40, 3, seed=6))
        vec = VectorSubgraphSpace(3)
        states = vec.initial(csr, _ConstantUniform(1.0), np.arange(8))
        degs = csr.degrees_array
        assert np.all(degs[states.reshape(-1)] > 0)
        assert np.all(states[:, :-1] < states[:, 1:])  # sorted, distinct

    def test_block_draw_order_matches_per_step_draws(self):
        # The blocked kernel pre-draws a (T, B) C-order matrix; it must
        # equal T successive per-step random(B) calls draw for draw —
        # the invariant the fused path's bit-identity rests on.
        block = np.random.default_rng(11).random((5, 7))
        rng = np.random.default_rng(11)
        assert np.array_equal(block, np.vstack([rng.random(7) for _ in range(5)]))

    def test_propose_with_predrawn_uniforms_matches_internal_draw(self):
        csr = CSRGraph.from_graph(barabasi_albert(60, 3, seed=8))
        vec = VectorSubgraphSpace(3)
        states = vec.initial(csr, np.random.default_rng(1), np.arange(16))
        u = np.random.default_rng(2).random(16)
        a = vec.propose(csr, states, None, u=u)
        b = vec.propose(csr, states, _ConstantUniform(np.nan), u=u)  # rng unused
        c = vec.propose(csr, states, np.random.default_rng(2))
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


class TestWalkParity:
    @pytest.mark.parametrize("d,nb", [(3, False), (3, True), (4, False), (4, True)])
    def test_fixed_seed_matches_reference(self, d, nb):
        g = barabasi_albert(80, 3, seed=2)
        csr = CSRGraph.from_graph(g)
        engine = BatchedWalkEngine(
            csr, d, 8, np.random.default_rng(7), seed_node=1, non_backtracking=nb
        )
        reference = ReferenceEngine(
            csr, d, 8, np.random.default_rng(7), seed_node=1, nb=nb
        )
        assert np.array_equal(engine.states(), reference.states())
        for _ in range(40):
            assert np.array_equal(engine.step(), reference.step())

    def test_degree1_states_force_backtrack(self):
        # On the path 0-1-2-3, G(3) has exactly two states, each other's
        # only neighbor: plain SRW alternates, NB-SRW's forced-backtrack
        # rule (§4.2) fires every step, and neither may spin or diverge.
        csr = CSRGraph.from_graph(path_graph(4))
        for nb in (False, True):
            engine = BatchedWalkEngine(
                csr, 3, 4, np.random.default_rng(0), non_backtracking=nb
            )
            a = engine.states().copy()
            b = engine.step().copy()
            assert sorted(map(tuple, {tuple(r) for r in np.vstack([a, b])})) == [
                (0, 1, 2),
                (1, 2, 3),
            ]
            for _ in range(12):
                nxt = engine.step().copy()
                assert np.array_equal(nxt, a)
                a, b = b, nxt

    def test_stuck_state_raises_like_serial(self):
        # A component of exactly d nodes has a G(d) state with no
        # neighbors; the serial space raises, so must the engine.
        csr = CSRGraph.from_graph(complete_graph(3))
        engine = BatchedWalkEngine(csr, 3, 2, np.random.default_rng(1))
        with pytest.raises(WalkSpaceError, match="no G"):
            engine.step()

    def test_initial_growth_failure_raises(self):
        # Seed in a 2-node component cannot grow a connected 3-subgraph.
        csr = CSRGraph.from_graph(Graph(5, [(0, 1), (2, 3), (3, 4)]))
        with pytest.raises(WalkSpaceError, match="cannot grow"):
            BatchedWalkEngine(csr, 3, 2, np.random.default_rng(2), seed_node=0)


class TestEstimationParity:
    @pytest.mark.parametrize("method,k", [("SRW3", 4), ("SRW3CSS", 5)])
    def test_b256_pooled_bit_identity(self, karate, method, k):
        """Full batch width: the vectorized pipeline's pooled sums equal
        the per-chain Python reference accumulators bit for bit."""
        csr = CSRGraph.from_graph(karate)
        spec = MethodSpec.parse(method, k)
        budget = 2_560
        budgets = split_budget(budget, 256)
        alphas = alpha_table(spec.k, spec.d)
        engines = [
            BatchedWalkEngine(csr, spec.d, 256, np.random.default_rng(13))
            for _ in range(2)
        ]
        s_ref, c_ref, v_ref = _batched_python(
            csr, spec, alphas, budgets, engines[0], 0
        )
        s_vec, c_vec, v_vec = _batched_vectorized(
            csr, spec, alphas, budgets, engines[1], 0
        )
        assert np.array_equal(s_ref, s_vec)
        assert np.array_equal(c_ref, c_vec)
        assert v_ref == v_vec

    def test_streamed_d3_session_matches_one_shot(self, karate):
        """Multi-chain d = 3 sessions stream through the vectorized
        accumulator; ragged step sizes must not change the sums."""
        csr = CSRGraph.from_graph(karate)
        spec = MethodSpec.parse("SRW3", 4)
        one = run_estimation(csr, spec, 5_003, rng=random.Random(5), chains=3)
        session = SRWSession(csr, spec, 5_003, rng=random.Random(5), chains=3)
        while session.step(271):
            pass
        streamed = session.result()
        assert np.array_equal(one.sums, streamed.sums)
        assert np.array_equal(one.sample_counts, streamed.sample_counts)
        assert one.samples == streamed.samples
        assert streamed.stderr is not None

    def test_estimate_rides_fast_path_end_to_end(self, karate):
        """repro.estimate(graph, "srw3css", backend="csr", chains=B) —
        the registry adapter, session and engine all generalized."""
        import repro

        result = repro.estimate(
            karate, "srw3css", budget=4_096, seed=3, backend="csr", chains=64
        )
        assert result.method == "SRW3CSS"
        assert result.chains == 64
        assert result.k == 5
        total = float(np.nansum(result.concentrations))
        assert abs(total - 1.0) < 1e-9