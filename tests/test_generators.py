"""Tests for synthetic graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import GraphError, is_connected
from repro.graphs.generators import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    erdos_renyi_gnm,
    graph_union,
    grid_graph,
    lollipop_graph,
    path_graph,
    powerlaw_cluster,
    powerlaw_configuration,
    random_regular,
    star_graph,
    watts_strogatz,
)
from repro.exact import global_clustering_coefficient

from reference import adjacency_lists, barabasi_albert_edges


class TestDeterministicClassics:
    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10
        assert all(d == 4 for d in g.degrees())

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(d == 2 for d in g.degrees())

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert sorted(g.degrees()) == [1, 1, 2, 2, 2]

    def test_star(self):
        g = star_graph(6)
        assert g.degree(0) == 6
        assert g.num_edges == 6

    def test_lollipop(self):
        g = lollipop_graph(4, 3)
        assert g.num_nodes == 7
        assert g.num_edges == 6 + 3
        assert is_connected(g)

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert is_connected(g)


class TestRandomModels:
    def test_erdos_renyi_determinism(self):
        assert erdos_renyi(50, 0.1, seed=3) == erdos_renyi(50, 0.1, seed=3)

    def test_erdos_renyi_extremes(self):
        assert erdos_renyi(10, 0.0).num_edges == 0
        assert erdos_renyi(10, 1.0).num_edges == 45

    def test_erdos_renyi_invalid_p(self):
        with pytest.raises(GraphError):
            erdos_renyi(5, 1.5)

    def test_erdos_renyi_density(self):
        g = erdos_renyi(200, 0.05, seed=1)
        expected = 0.05 * 199 * 200 / 2
        assert 0.7 * expected < g.num_edges < 1.3 * expected

    def test_gnm_exact_edges(self):
        g = erdos_renyi_gnm(30, 50, seed=2)
        assert g.num_edges == 50

    def test_gnm_too_many_edges(self):
        with pytest.raises(GraphError):
            erdos_renyi_gnm(4, 10)

    def test_barabasi_albert_edge_count(self):
        n, m = 100, 3
        g = barabasi_albert(n, m, seed=4)
        # star seed (m edges) + m per subsequent node
        assert g.num_edges == m + (n - m - 1) * m
        assert is_connected(g)

    def test_barabasi_albert_invalid(self):
        with pytest.raises(GraphError):
            barabasi_albert(3, 3)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("m", [1, 3, 7])
    @pytest.mark.parametrize("n", ["m+1", 50, 2000])
    def test_barabasi_albert_matches_choice_loop(self, n, m, seed):
        # The inlined getrandbits draw must be rng.choice's, draw for draw.
        n = m + 1 if n == "m+1" else n
        g = barabasi_albert(n, m, seed=seed)
        expected = adjacency_lists(n, barabasi_albert_edges(n, m, seed))
        assert list(g.edges()) == [(u, v) for u, row in enumerate(expected) for v in row if u < v]
        csr = g.full_access_csr()
        assert csr.indptr.tolist() == np.cumsum([0] + [len(row) for row in expected]).tolist()
        assert csr.indices.tolist() == [v for row in expected for v in row]
        assert [g.neighbors(v) for v in g.nodes()] == expected

    def test_barabasi_albert_hub_emerges(self):
        g = barabasi_albert(300, 2, seed=5)
        assert g.max_degree() > 10  # heavy-tailed

    def test_watts_strogatz_degrees(self):
        g = watts_strogatz(40, 4, 0.0, seed=6)
        assert all(d == 4 for d in g.degrees())

    def test_watts_strogatz_invalid_k(self):
        with pytest.raises(GraphError):
            watts_strogatz(10, 3, 0.1)

    def test_watts_strogatz_rewiring_keeps_edges(self):
        g0 = watts_strogatz(40, 4, 0.0, seed=7)
        g1 = watts_strogatz(40, 4, 0.5, seed=7)
        assert g1.num_edges == g0.num_edges

    def test_powerlaw_cluster_high_clustering(self):
        clustered = powerlaw_cluster(400, 4, 0.9, seed=8)
        plain = barabasi_albert(400, 4, seed=8)
        assert (
            global_clustering_coefficient(clustered)
            > 2 * global_clustering_coefficient(plain)
        )

    def test_powerlaw_cluster_connected(self):
        assert is_connected(powerlaw_cluster(100, 3, 0.5, seed=9))

    def test_powerlaw_configuration_degree_tail(self):
        g = powerlaw_configuration(500, 2.2, min_degree=1, seed=10)
        degrees = sorted(g.degrees(), reverse=True)
        assert degrees[0] > 5 * degrees[len(degrees) // 2 + 1]

    def test_powerlaw_configuration_invalid_exponent(self):
        with pytest.raises(GraphError):
            powerlaw_configuration(10, 0.5)

    def test_random_regular(self):
        g = random_regular(20, 3, seed=11)
        assert all(d == 3 for d in g.degrees())

    def test_random_regular_parity(self):
        with pytest.raises(GraphError):
            random_regular(5, 3)

    def test_graph_union_bridged(self):
        g = graph_union([cycle_graph(3), cycle_graph(4)], bridge=True)
        assert g.num_nodes == 7
        assert g.num_edges == 3 + 4 + 1
        assert is_connected(g)

    def test_graph_union_unbridged(self):
        g = graph_union([cycle_graph(3), cycle_graph(4)], bridge=False)
        assert not is_connected(g)


class TestStochasticBlockModel:
    def test_block_sizes(self):
        from repro.graphs.generators import stochastic_block_model

        g = stochastic_block_model([10, 20, 30], 0.5, 0.01, seed=1)
        assert g.num_nodes == 60

    def test_extreme_probabilities(self):
        from repro.graphs.generators import stochastic_block_model

        full = stochastic_block_model([4, 4], 1.0, 1.0, seed=2)
        assert full.num_edges == 8 * 7 // 2
        empty = stochastic_block_model([4, 4], 0.0, 0.0, seed=2)
        assert empty.num_edges == 0

    def test_within_block_denser(self):
        from repro.graphs.generators import stochastic_block_model

        g = stochastic_block_model([40, 40], 0.4, 0.02, seed=3)
        within = sum(
            1 for u, v in g.edges() if (u < 40) == (v < 40)
        )
        across = g.num_edges - within
        assert within > 3 * across

    def test_invalid_probability(self):
        from repro.graphs.generators import stochastic_block_model
        from repro.graphs import GraphError
        import pytest

        with pytest.raises(GraphError):
            stochastic_block_model([5], 1.5, 0.0)

    def test_invalid_block_size(self):
        from repro.graphs.generators import stochastic_block_model
        from repro.graphs import GraphError
        import pytest

        with pytest.raises(GraphError):
            stochastic_block_model([5, 0], 0.5, 0.1)

    def test_communities_concentrate_cliques(self):
        """The Friendster anecdote (§2.1): community structure raises the
        concentration of clique-like graphlets versus a degree-matched
        unstructured graph."""
        from repro.graphs.generators import erdos_renyi_gnm, stochastic_block_model
        from repro.graphs.components import largest_connected_component
        from repro.exact import exact_concentrations

        sbm = stochastic_block_model([25] * 4, 0.45, 0.02, seed=4)
        sbm, _ = largest_connected_component(sbm)
        er = erdos_renyi_gnm(100, sbm.num_edges, seed=4)
        er, _ = largest_connected_component(er)
        clique_sbm = exact_concentrations(sbm, 4)[5]
        clique_er = exact_concentrations(er, 4)[5]
        assert clique_sbm > 3 * clique_er
