"""CSR backend: structural parity with Graph, estimation parity, and the
batched multi-chain walk engine."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MethodSpec, run_estimation
from repro.exact import exact_concentrations
from repro.graphs import (
    CSRGraph,
    DeltaCSRGraph,
    Graph,
    GraphError,
    RestrictedGraph,
    as_backend,
    barabasi_albert,
    load_dataset,
)
from repro.graphs.csr import sorted_unique
from repro.relgraph.spaces import walk_space
from repro.walks import (
    BatchedWalkEngine,
    batch_support,
    make_engine,
    make_walk,
)

from reference import csr_edges_per_edge


def random_graphs():
    """Hypothesis strategy: small random Graph instances."""
    return (
        st.integers(min_value=2, max_value=14)
        .flatmap(
            lambda n: st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=3 * n,
            ).map(lambda edges: Graph(n, edges))
        )
    )


def truth_array(graph, k):
    exact = exact_concentrations(graph, k)
    return np.array([exact[i] for i in sorted(exact)])


class TestStructuralParity:
    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_accessors_match(self, g):
        csr = CSRGraph.from_graph(g)
        assert csr.num_nodes == g.num_nodes
        assert csr.num_edges == g.num_edges
        assert csr.degrees() == g.degrees()
        assert csr.max_degree() == g.max_degree()
        assert list(csr.edges()) == list(g.edges())
        assert csr.edge_relationship_count() == g.edge_relationship_count()
        for v in g.nodes():
            assert list(csr.neighbors(v)) == g.neighbors(v)
            assert csr.degree(v) == g.degree(v)
            assert csr.neighbor_set(v) == g.neighbor_set(v)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_has_edge_matches(self, g):
        csr = CSRGraph.from_graph(g)
        for u in g.nodes():
            for v in g.nodes():
                assert csr.has_edge(u, v) == g.has_edge(u, v)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_has_edges_vectorized(self, g):
        csr = CSRGraph.from_graph(g)
        n = g.num_nodes
        us = np.repeat(np.arange(n), n)
        vs = np.tile(np.arange(n), n)
        expected = np.array([g.has_edge(int(u), int(v)) for u, v in zip(us, vs)])
        assert np.array_equal(csr.has_edges(us, vs), expected)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_from_edges_equals_from_graph(self, g):
        via_graph = CSRGraph.from_graph(g)
        via_edges = CSRGraph.from_edges(g.edges(), num_nodes=g.num_nodes)
        assert via_graph == via_edges

    def test_from_edges_dedup_and_validation(self):
        csr = CSRGraph.from_edges([(0, 1), (1, 0), (0, 1), (1, 2)])
        assert csr.num_edges == 2
        with pytest.raises(GraphError):
            CSRGraph.from_edges([(0, 0)])
        with pytest.raises(GraphError):
            CSRGraph.from_edges([(0, 5)], num_nodes=2)

    def test_from_edges_rejects_non_integer_ids(self):
        """Regression: the int64 cast truncated (0.5, 3.7) to (0, 3)."""
        with pytest.raises(GraphError, match=r"got 0\.5 \(float\) in edge \(0\.5, 3\.7\)"):
            CSRGraph.from_edges([(0.5, 3.7)], num_nodes=4)
        with pytest.raises(GraphError, match=r"got True \(bool\) in edge \(True, 3\)"):
            CSRGraph.from_edges([(True, 3)], num_nodes=4)
        with pytest.raises(GraphError, match="node ids must be integers"):
            CSRGraph.from_edges(np.array([[0.0, 3.0]]), num_nodes=4)
        with pytest.raises(GraphError, match="node ids must be integers"):
            CSRGraph.from_edges(np.array([[False, True]]), num_nodes=4)
        # NumPy integer scalars and arrays of any integer width still pass.
        expected = CSRGraph.from_edges([(0, 3), (1, 2)], num_nodes=4)
        for edges in (
            [(np.int32(0), np.uint8(3)), (np.int64(1), 2)],
            np.array([[0, 3], [1, 2]], dtype=np.int32),
            np.array([[0, 3], [1, 2]], dtype=np.uint16),
        ):
            assert CSRGraph.from_edges(edges, num_nodes=4) == expected

    @pytest.mark.parametrize("bad", [(0, [1]), (1, 2, 3), (2,)], ids=["nested", "triple", "single"])
    @pytest.mark.parametrize("entry", ["Graph", "CSRGraph.from_edges", "DeltaCSRGraph.apply"])
    def test_ragged_pair_named(self, entry, bad):
        """Regression: a pair that is not two scalars raised NumPy's bare
        ``setting an array element with a sequence``."""
        build = {
            "Graph": lambda edges: Graph(3, edges),
            "CSRGraph.from_edges": lambda edges: CSRGraph.from_edges(edges, num_nodes=3),
            "DeltaCSRGraph.apply": lambda edges: DeltaCSRGraph(Graph(3)).apply(inserts=edges),
        }[entry]
        with pytest.raises(GraphError, match=re.escape(repr(bad))):
            build([(0, 1), bad])

    def test_round_trip_and_derived(self):
        g = load_dataset("karate")
        csr = CSRGraph.from_graph(g)
        assert csr.to_graph() == g
        nodes = [0, 1, 2, 3]
        assert csr.induced_edges(nodes) == g.induced_edges(nodes)
        assert csr.induced_edge_count(nodes) == g.induced_edge_count(nodes)
        assert csr.is_connected_subset(nodes) == g.is_connected_subset(nodes)

    def test_as_backend(self):
        g = load_dataset("karate")
        csr = as_backend(g, "csr")
        assert isinstance(csr, CSRGraph)
        assert as_backend(csr, "csr") is csr
        assert as_backend(g, "list") is g
        assert as_backend(csr, "list") == g
        for gone in ("sparse", "csr-jit"):
            with pytest.raises(ValueError, match="unknown backend"):
                as_backend(g, gone)

    def test_mixing_tools_accept_csr(self, karate):
        # Regression: transition_matrix used `if not neighbors:` which is
        # ambiguous on NumPy rows.
        from repro.walks import transition_matrix

        csr = CSRGraph.from_graph(karate)
        assert np.allclose(transition_matrix(csr), transition_matrix(karate))

    def test_restricted_graph_conversion_rejected(self, karate):
        with pytest.raises(GraphError, match="full adjacency access"):
            as_backend(RestrictedGraph(karate), "csr")

    def test_out_of_range_ids_raise(self):
        """Regression: the ``u * (n + 1) + v`` key aliased ``v = n + 1``
        onto row ``u + 1``, so probes outside ``[0, n)`` answered True."""
        path = CSRGraph(np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]))
        with pytest.raises(GraphError, match="node id 4 out of range"):
            path.has_edges([0], [4])
        with pytest.raises(GraphError, match="node id -1 out of range"):
            path.has_edges([-1], [5])
        with pytest.raises(GraphError, match="node id 5 out of range"):
            path.has_edges([0, 1, 2], [1, 5, -1])
        with pytest.raises(GraphError, match="node id -1 out of range"):
            path.has_edge(-1, 5)
        with pytest.raises(GraphError, match="node id 3 out of range"):
            path.has_edge(3, 0)
        with pytest.raises(GraphError, match="node id 3 out of range"):
            path.has_edge(0, 3)
        assert path.has_edges([0, 1, 0], [1, 2, 2]).tolist() == [True, True, False]
        assert path.has_edges([], []).size == 0

    def test_out_of_range_ids_raise_on_every_backend(self, tmp_path):
        from repro.graphs import DeltaCSRGraph, MmapCSRGraph, SharedCSRGraph

        path = CSRGraph(np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]))
        delta = DeltaCSRGraph(path)
        delta.apply(inserts=[(0, 2)])
        path.save(tmp_path / "path")
        with SharedCSRGraph.create(path) as shared:
            for graph in (delta, MmapCSRGraph.load(tmp_path / "path"), shared):
                with pytest.raises(GraphError, match="node id 4 out of range"):
                    graph.has_edges([0], [4])
                with pytest.raises(GraphError, match="node id 3 out of range"):
                    graph.has_edge(3, 0)
                assert graph.has_edges([0], [1]).tolist() == [True]

    def test_empty_and_isolated(self):
        empty = CSRGraph.from_graph(Graph(0))
        assert empty.num_nodes == 0 and empty.num_edges == 0
        iso = CSRGraph.from_graph(Graph(3, [(0, 1)]))
        assert iso.degree(2) == 0
        assert list(iso.neighbors(2)) == []


class TestEdgesAndUnique:
    """``edges()`` (row blocks, every backend) and ``sorted_unique``
    against their one-at-a-time oracles."""

    @pytest.mark.parametrize("backend", ["list", "csr", "delta", "mmap"])
    @pytest.mark.parametrize("n, m", [(1, 1), (30, 2), (9000, 3)])
    def test_edges_match_the_per_edge_walk(self, tmp_path, backend, n, m):
        from repro.graphs import MmapCSRGraph

        graph = barabasi_albert(n, m, seed=5) if n > m else Graph(n)
        csr = CSRGraph.from_graph(graph)
        if backend == "csr":
            graph = csr
        elif backend == "delta":
            graph = DeltaCSRGraph(csr)
            if csr.num_edges:  # one pending delete and one pending insert
                absent = next((0, v) for v in range(1, n) if not csr.has_edge(0, v))
                graph.apply(inserts=[absent], deletes=[next(csr.edges())])
        elif backend == "mmap":
            csr.save(tmp_path / "g")
            graph = MmapCSRGraph.load(tmp_path / "g")
        got = list(graph.edges())
        assert got == list(csr_edges_per_edge(graph.full_access_csr()))
        assert len(got) == graph.num_edges
        assert all(type(u) is int and type(v) is int for u, v in got)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [3],
            [5, 5, 5],
            [[4, 1], [1, 9], [9, 4]],
            np.random.default_rng(0).integers(-50, 50, size=(40, 3)),
            np.random.default_rng(1).integers(0, 1 << 40, size=20_000),
        ],
    )
    def test_sorted_unique_is_plain_np_unique(self, values):
        want = np.unique(np.asarray(values, dtype=np.int64))
        got = sorted_unique(np.asarray(values, dtype=np.int64))
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestEstimationParity:
    """A fixed seed visits the same states on both backends for d <= 2,
    so single-chain results are bit-identical."""

    @pytest.mark.parametrize(
        "method,k",
        [("SRW1", 3), ("SRW1CSSNB", 3), ("SRW2", 4), ("SRW2CSS", 4), ("SRW2NB", 4)],
    )
    def test_single_chain_matches_list_backend(self, karate, method, k):
        csr = CSRGraph.from_graph(karate)
        spec = MethodSpec.parse(method, k)
        r_list = run_estimation(karate, spec, 2000, rng=random.Random(9), seed_node=3)
        r_csr = run_estimation(csr, spec, 2000, rng=random.Random(9), seed_node=3)
        assert r_list.valid_samples == r_csr.valid_samples
        assert np.array_equal(r_list.sums, r_csr.sums)
        assert np.array_equal(r_list.sample_counts, r_csr.sample_counts)

    def test_walk_trajectory_matches(self, karate):
        csr = CSRGraph.from_graph(karate)
        for d in (1, 2):
            space = walk_space(d)
            w1 = make_walk(karate, space, rng=random.Random(5), seed_node=2)
            w2 = make_walk(csr, space, rng=random.Random(5), seed_node=2)
            for _ in range(500):
                assert w1.step() == w2.step()


class TestMultiChain:
    def test_batched_concentrations_converge(self, karate):
        csr = CSRGraph.from_graph(karate)
        truth = truth_array(karate, 4)
        spec = MethodSpec.parse("SRW2CSS", 4)
        result = run_estimation(csr, spec, 60_000, rng=random.Random(1), chains=8)
        assert result.chains == 8
        assert result.steps == 60_000
        assert np.abs(result.concentrations - truth).max() < 0.05

    def test_batched_nb_converges(self, karate):
        csr = CSRGraph.from_graph(karate)
        truth = truth_array(karate, 3)
        spec = MethodSpec.parse("SRW1CSSNB", 3)
        result = run_estimation(csr, spec, 60_000, rng=random.Random(2), chains=16)
        assert np.abs(result.concentrations - truth).max() < 0.05

    def test_serial_fallback_on_list_backend_warns(self, karate):
        # No vectorized kernels on the list backend: the run degrades to
        # serial per-chain walks and says so (once), naming the fix.
        from repro.walks import BatchFallbackWarning

        truth = truth_array(karate, 4)
        spec = MethodSpec.parse("SRW2CSS", 4)
        with pytest.warns(BatchFallbackWarning, match='backend="csr"'):
            result = run_estimation(
                karate, spec, 20_000, rng=random.Random(3), chains=4
            )
        assert result.chains == 4
        assert result.steps == 20_000
        assert np.abs(result.concentrations - truth).max() < 0.07

    def test_serial_fallback_warns_once_per_run(self, karate):
        # The once-per-reason dedup is scoped to each run_estimation
        # invocation, not the process: a second run in the same process
        # warns again, but one run with many chains warns only once.
        # (pytest.warns installs an "always" filter that bypasses
        # warning registries, so drive the default filter explicitly.)
        import warnings

        from repro.walks import BatchFallbackWarning

        spec = MethodSpec.parse("SRW1", 3)

        def fallback_warnings():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                run_estimation(karate, spec, 400, rng=random.Random(7), chains=4)
            return [w for w in caught if w.category is BatchFallbackWarning]

        first, second = fallback_warnings(), fallback_warnings()
        assert len(first) == 1, "4 serial chains must warn exactly once"
        assert len(second) == 1, "a fresh run must warn again"

    def test_batched_d3_multichain(self, karate):
        # d >= 3 rides the batched engine on CSR since the swap-frontier
        # kernels landed; the estimates still converge to truth.
        csr = CSRGraph.from_graph(karate)
        assert batch_support(csr)[0]
        truth = truth_array(karate, 4)
        spec = MethodSpec.parse("SRW3", 4)
        result = run_estimation(csr, spec, 40_000, rng=random.Random(4), chains=16)
        assert result.chains == 16 and result.steps == 40_000
        assert result.stderr is not None  # between-chain cells exist
        assert np.abs(result.concentrations - truth).max() < 0.05

    def test_uneven_split_and_burn_in(self, karate):
        csr = CSRGraph.from_graph(karate)
        spec = MethodSpec.parse("SRW2CSS", 4)
        result = run_estimation(
            csr, spec, 10_007, rng=random.Random(5), chains=3, burn_in=11
        )
        assert result.steps == 10_007

    def test_multichain_is_deterministic(self, karate):
        csr = CSRGraph.from_graph(karate)
        spec = MethodSpec.parse("SRW2CSS", 4)
        r1 = run_estimation(csr, spec, 6_000, rng=random.Random(6), chains=4)
        r2 = run_estimation(csr, spec, 6_000, rng=random.Random(6), chains=4)
        assert np.array_equal(r1.sums, r2.sums)

    @pytest.mark.parametrize(
        "method,k,burn_in",
        [
            ("SRW2", 4, 0),
            ("SRW1", 3, 5),
            ("SRW2NB", 4, 0),
            ("SRW1NB", 4, 3),
            ("SRW2", 5, 0),
            ("SRW2CSS", 4, 0),
            ("SRW1CSS", 3, 5),
            ("SRW1CSSNB", 3, 0),
            ("SRW1CSS", 4, 3),
            ("SRW2CSSNB", 5, 0),
            ("SRW2CSS", 5, 0),
            ("SRW3", 4, 0),
            ("SRW3NB", 4, 0),
            ("SRW3", 5, 3),
            ("SRW3CSS", 5, 0),
            ("SRW3CSSNB", 5, 0),
            ("SRW4", 5, 0),
            ("SRW4NB", 5, 2),
            ("SRW3", 3, 0),  # plain SRW on G(3): l = 1 windows
            ("SRW4", 4, 0),  # plain SRW on G(4): l = 1 windows
        ],
    )
    def test_vectorized_accumulation_matches_python(self, karate, method, k, burn_in):
        """The one-pass vectorized window pipeline must process exactly
        the windows the per-chain Python accumulators do, and reproduce
        their sums **bit for bit** — basic and CSS alike: per-window
        weights evaluate in the serial loop's operation order and
        per-(chain, type) cells accumulate in its addition order."""
        from reference import _batched_python, _batched_vectorized

        from repro.core.alpha import alpha_table

        csr = CSRGraph.from_graph(karate)
        spec = MethodSpec.parse(method, k)
        alphas = alpha_table(spec.k, spec.d)
        budgets = [701, 700, 700, 699]
        engines = [
            BatchedWalkEngine(
                csr, spec.d, 4, np.random.default_rng(11), non_backtracking=spec.nb
            )
            for _ in range(2)
        ]
        s1, c1, v1 = _batched_python(csr, spec, alphas, budgets, engines[0], burn_in)
        s2, c2, v2 = _batched_vectorized(csr, spec, alphas, budgets, engines[1], burn_in)
        assert np.array_equal(c1, c2)
        assert v1 == v2
        assert np.array_equal(s1, s2)

    def test_streamed_css_session_matches_one_shot(self, karate):
        """Streaming a batch-capable CSS session in ragged step sizes
        reproduces the one-shot vectorized run bit for bit (the
        per-(chain, type) cells are blocking-independent)."""
        from repro.core.estimator import SRWSession

        csr = CSRGraph.from_graph(karate)
        spec = MethodSpec.parse("SRW2CSS", 4)
        one = run_estimation(csr, spec, 10_007, rng=random.Random(5), chains=3,
                             burn_in=11)
        session = SRWSession(csr, spec, 10_007, rng=random.Random(5), burn_in=11,
                             chains=3)
        while session.step(333):
            pass
        streamed = session.result()
        assert np.array_equal(one.sums, streamed.sums)
        assert np.array_equal(one.sample_counts, streamed.sample_counts)
        assert one.samples == streamed.samples
        # Streamed snapshots additionally carry a between-chain stderr.
        assert streamed.stderr is not None

    def test_streamed_css_snapshot_is_partial(self, karate):
        """Mid-stream snapshots report only what was consumed and do not
        disturb the stream."""
        from repro.core.estimator import SRWSession

        csr = CSRGraph.from_graph(karate)
        spec = MethodSpec.parse("SRW1CSS", 3)
        session = SRWSession(csr, spec, 6_000, rng=random.Random(7), chains=4)
        session.step(1_000)
        partial = session.snapshot()
        assert partial.steps == 1_000
        assert 0 < partial.samples <= 1_000
        final = session.result()
        assert final.steps == 6_000
        assert final.samples >= partial.samples

    def test_chain_validation(self, karate):
        spec = MethodSpec.parse("SRW2CSS", 4)
        with pytest.raises(ValueError):
            run_estimation(karate, spec, 100, chains=0)
        with pytest.raises(ValueError):
            run_estimation(karate, spec, 3, chains=5)


class TestBatchedEngine:
    def test_d1_stationary_is_degree_proportional(self):
        g = barabasi_albert(300, 3, seed=0)
        csr = CSRGraph.from_graph(g)
        engine = BatchedWalkEngine(csr, 1, 32, np.random.default_rng(0))
        counts = np.zeros(g.num_nodes)
        for _ in range(400):
            block = engine.step_block(16)
            np.add.at(counts, block.ravel(), 1)
        degs = np.asarray(g.degrees(), dtype=float)
        empirical = counts / counts.sum()
        expected = degs / degs.sum()
        # Loose L1 bound: enough steps that the SRW is near-stationary.
        assert np.abs(empirical - expected).sum() < 0.15

    def test_d2_states_are_edges(self, karate):
        csr = CSRGraph.from_graph(karate)
        engine = BatchedWalkEngine(csr, 2, 16, np.random.default_rng(1))
        block = engine.step_block(50)
        flat = block.reshape(-1, 2)
        assert (flat[:, 0] < flat[:, 1]).all()
        assert csr.has_edges(flat[:, 0], flat[:, 1]).all()

    def test_nb_never_backtracks_on_degree2plus(self):
        # On a cycle every node has degree 2, so NB must never backtrack.
        from repro.graphs import cycle_graph

        csr = CSRGraph.from_graph(cycle_graph(20))
        engine = BatchedWalkEngine(
            csr, 1, 8, np.random.default_rng(2), non_backtracking=True
        )
        prev = engine.states().copy()
        cur = engine.step().copy()
        for _ in range(200):
            nxt = engine.step().copy()
            assert not np.any(nxt == prev)
            prev, cur = cur, nxt

    def test_nb_forced_backtrack_on_leaf(self):
        # Star leaves have degree 1: from a leaf the walk must return to
        # the hub every time.
        from repro.graphs import star_graph

        csr = CSRGraph.from_graph(star_graph(6))
        engine = BatchedWalkEngine(
            csr, 1, 4, np.random.default_rng(3), non_backtracking=True
        )
        for _ in range(50):
            states = engine.step()
            assert np.all((states == 0) | (engine._prev == 0))

    def test_nb_forced_backtrack_on_degree1_edge_state(self):
        # Regression for the d = 2 NB edge case: on the path 0-1-2 both
        # G(2) states (0,1) and (1,2) have degree d_u + d_v - 2 = 1, so a
        # chain pinned there has no alternative to its previous state and
        # the forced-backtrack rule (§4.2) must fire every step — the NB
        # rejection loop must not retry (it would spin forever) and the
        # walk must alternate between the two edges indefinitely.
        from repro.graphs import path_graph

        csr = CSRGraph.from_graph(path_graph(3))
        engine = BatchedWalkEngine(
            csr, 2, 4, np.random.default_rng(5), non_backtracking=True, seed_node=1
        )
        prev = engine.states().copy()
        engine.step()
        for _ in range(30):
            nxt = engine.step().copy()
            assert np.array_equal(nxt, prev)  # every step is a forced backtrack
            prev = engine._prev.copy()

    def test_nb_d2_forced_backtrack_invariant_mixed_lanes(self):
        # A triangle with a pendant tail: chains roam freely on the
        # triangle but any lane entering the degree-1 state (3, 4) must
        # backtrack to (2, 3) on its next step, while other lanes keep
        # their never-backtrack guarantee.
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        csr = CSRGraph.from_graph(g)
        degs = csr.degrees_array
        engine = BatchedWalkEngine(
            csr, 2, 16, np.random.default_rng(6), non_backtracking=True, seed_node=2
        )
        cur = engine.step().copy()
        prev = engine._prev.copy()
        forced_seen = 0
        for _ in range(300):
            state_deg = degs[cur[:, 0]] + degs[cur[:, 1]] - 2
            nxt = engine.step().copy()
            pinned = state_deg == 1
            forced_seen += int(pinned.sum())
            # Degree-1 states force a backtrack; every other lane must not
            # revisit its previous state.
            assert np.array_equal(nxt[pinned], prev[pinned])
            free = ~pinned
            assert not np.any((nxt[free] == prev[free]).all(axis=1))
            prev, cur = cur, nxt
        assert forced_seen > 0  # the walk actually visited the pinned state

    def test_validation(self, karate):
        # A list Graph is a CSRGraph; the crawl wrapper is the one graph
        # without the arrays the engine gathers from.
        csr = CSRGraph.from_graph(karate)
        with pytest.raises(TypeError):
            BatchedWalkEngine(RestrictedGraph(karate), 1, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            BatchedWalkEngine(csr, 0, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            BatchedWalkEngine(csr, 1, 0, np.random.default_rng(0))
        iso = CSRGraph.from_graph(Graph(3, [(0, 1)]))
        with pytest.raises(ValueError):
            BatchedWalkEngine(iso, 1, 2, np.random.default_rng(0), seed_node=2)

    def test_make_engine_dispatch(self, karate):
        csr = CSRGraph.from_graph(karate)
        space = walk_space(2)
        engine = make_engine(csr, space, chains=4, rng=random.Random(0))
        assert isinstance(engine, BatchedWalkEngine)
        with pytest.raises(TypeError):
            make_engine(RestrictedGraph(karate), space, chains=4, rng=random.Random(0))
