"""Tests for exact counting: ESU, triad formulas, 4-node formulas.

The three engines (ESU enumeration, triad closed forms, 4-node inclusion
inversion) are validated against each other and against networkx on random
graphs — any formula error breaks the agreement.
"""

from __future__ import annotations

import math
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact import (
    TriadCensus,
    count_connected_subgraphs,
    enumerate_connected_subgraphs,
    exact_concentrations,
    exact_counts,
    exact_four_counts,
    exact_triad_counts,
    global_clustering_coefficient,
    noninduced_four_counts,
    triad_census,
    triangle_count,
    triangles_per_edge,
    triangles_per_node,
    wedge_count,
)
from repro.exact.enumerate import exact_counts as esu_counts
from repro.graphs import Graph, GraphError, RestrictedGraph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from reference import triangle_count_python


def random_graphs():
    """Hypothesis strategy for small random graphs."""
    return st.tuples(
        st.integers(5, 10),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25),
    ).map(
        lambda t: Graph(
            t[0], [(u % t[0], v % t[0]) for u, v in t[1] if u % t[0] != v % t[0]]
        )
    )


class TestESU:
    def test_k1_nodes(self, karate):
        assert count_connected_subgraphs(karate, 1) == karate.num_nodes

    def test_k2_edges(self, karate):
        assert count_connected_subgraphs(karate, 2) == karate.num_edges

    def test_invalid_k(self, karate):
        with pytest.raises(ValueError):
            list(enumerate_connected_subgraphs(karate, 0))

    @pytest.mark.parametrize(
        "graph_fn, k, expected",
        [
            (lambda: complete_graph(5), 3, 10),  # C(5,3)
            (lambda: complete_graph(5), 4, 5),
            (lambda: complete_graph(5), 5, 1),
            (lambda: cycle_graph(6), 3, 6),  # windows
            (lambda: cycle_graph(6), 4, 6),
            (lambda: path_graph(6), 3, 4),
            (lambda: star_graph(4), 3, 6),  # C(4,2) leaf pairs
        ],
    )
    def test_known_subgraph_counts(self, graph_fn, k, expected):
        assert count_connected_subgraphs(graph_fn(), k) == expected

    def test_each_subgraph_once_and_connected(self, karate):
        seen = set()
        for nodes in enumerate_connected_subgraphs(karate, 3):
            assert nodes not in seen
            seen.add(nodes)
            assert karate.is_connected_subset(nodes)

    @given(random_graphs())
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, g):
        """ESU output equals brute-force subset filtering."""
        expected = {
            tuple(subset)
            for subset in combinations(range(g.num_nodes), 3)
            if g.is_connected_subset(subset)
        }
        assert set(enumerate_connected_subgraphs(g, 3)) == expected

    def test_esu_counts_catalog_coverage(self, karate):
        counts = esu_counts(karate, 4)
        assert len(counts) == 6
        assert all(v >= 0 for v in counts.values())


class TestTriads:
    def test_karate_triangles(self, karate):
        """Zachary's club famously has 45 triangles."""
        assert triangle_count(karate) == 45

    def test_triangles_match_networkx(self, karate):
        g = nx.karate_club_graph()
        assert triangle_count(karate) == sum(nx.triangles(g).values()) // 3

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_triangles_property(self, g):
        nxg = nx.Graph()
        nxg.add_nodes_from(g.nodes())
        nxg.add_edges_from(g.edges())
        assert triangle_count(g) == sum(nx.triangles(nxg).values()) // 3

    def test_triangles_per_edge_sum(self, karate):
        # Directed per-edge array: each undirected edge appears twice.
        per_edge = triangles_per_edge(karate)
        assert int(per_edge.sum()) == 6 * triangle_count(karate)

    def test_triangles_per_node_sum(self, karate):
        per_node = triangles_per_node(karate)
        assert sum(per_node) == 3 * triangle_count(karate)
        nxg = nx.karate_club_graph()
        assert per_node == [nx.triangles(nxg, v) for v in range(34)]

    def test_wedge_count(self):
        assert wedge_count(star_graph(4)) == 6
        assert wedge_count(path_graph(4)) == 2

    def test_triad_counts_match_esu(self, karate):
        assert exact_triad_counts(karate) == esu_counts(karate, 3)

    def test_clustering_matches_networkx(self, karate):
        expected = nx.transitivity(nx.karate_club_graph())
        assert math.isclose(global_clustering_coefficient(karate), expected)

    def test_clustering_identity_with_concentration(self, karate):
        """cc = 3 c32 / (2 c32 + 1) (§2.1)."""
        c32 = exact_concentrations(karate, 3)[1]
        cc = global_clustering_coefficient(karate)
        assert math.isclose(cc, 3 * c32 / (2 * c32 + 1))

    def test_no_wedges_raises(self):
        with pytest.raises(ValueError):
            global_clustering_coefficient(Graph(3, [(0, 1)]))

    @pytest.mark.parametrize(
        "statistic", [triangle_count, exact_triad_counts, global_clustering_coefficient]
    )
    def test_restricted_graph_names_access_cause(self, karate, statistic):
        with pytest.raises(GraphError, match="full adjacency access is required"):
            statistic(RestrictedGraph(karate, seed_node=0))


class TestTriadCensus:
    """The blocked parallel census is the ground-truth engine for
    paper-scale graphs: every jobs value and every dataset must agree
    bitwise with the legacy per-node Python loop."""

    @pytest.mark.parametrize(
        "name",
        [
            "karate",
            "brightkite-like",
            "epinion-like",
            "slashdot-like",
            "facebook-like",
            "gowalla-like",
            "wikipedia-like",
            "pokec-like",
            "flickr-like",
        ],
    )
    def test_serial_census_matches_legacy(self, name):
        from repro.graphs import load_dataset

        graph = load_dataset(name)
        census = triad_census(graph)
        assert census.triangles == triangle_count_python(graph)
        assert census.wedges == wedge_count(graph)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_census_matches_serial(self, karate, jobs, start_method):
        from repro.graphs import CSRGraph, load_dataset

        shared = CSRGraph.from_graph(karate).to_shared()
        try:
            for graph in (karate, load_dataset("facebook-like"), shared):
                serial = triad_census(graph, jobs=1)
                parallel = triad_census(graph, jobs=jobs)
                assert parallel == serial
            # The caller's segment stays open and attachable.
            assert not shared.closed
            attached = CSRGraph.from_shared(shared.handle)
            assert attached == shared
            attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_parallel_census_on_mmap(self, tmp_path, karate):
        from repro.graphs import CSRGraph, MmapCSRGraph

        CSRGraph.from_graph(karate).save(tmp_path / "k")
        m = MmapCSRGraph.load(tmp_path / "k")
        assert triad_census(m, jobs=2) == triad_census(karate)

    def test_census_counts_and_concentrations(self, karate):
        census = triad_census(karate)
        counts = census.counts()
        assert counts[1] == 45
        assert counts[0] == census.wedges - 3 * 45
        conc = census.concentrations()
        assert math.isclose(conc[0] + conc[1], 1.0)
        assert math.isclose(
            conc[1], exact_concentrations(karate, 3)[1]
        )
        assert math.isclose(
            census.clustering_coefficient,
            global_clustering_coefficient(karate),
        )

    def test_census_structured_type(self, karate):
        census = triad_census(karate)
        assert isinstance(census, TriadCensus)
        assert census == TriadCensus(triangles=45, wedges=census.wedges)

    def test_triangle_count_jobs_kwarg(self, karate):
        assert triangle_count(karate, jobs=2) == 45

    def test_census_edge_cases(self):
        assert triad_census(Graph(3, [])) == TriadCensus(0, 0)
        assert triad_census(path_graph(3)) == TriadCensus(0, 1)
        assert triad_census(complete_graph(4)) == TriadCensus(4, 12)


class TestFourCounts:
    def test_matches_esu_on_karate(self, karate):
        assert exact_four_counts(karate) == esu_counts(karate, 4)

    @given(random_graphs())
    @settings(max_examples=25, deadline=None)
    def test_matches_esu_property(self, g):
        """The inclusion-inversion formulas agree with enumeration on
        arbitrary graphs — the strongest check of the conversion matrix."""
        assert exact_four_counts(g) == esu_counts(g, 4)

    @pytest.mark.parametrize(
        "graph_fn, expected",
        [
            # C6: six induced paths, nothing else.
            (lambda: cycle_graph(6), {0: 6, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}),
            # K5: C(5,4) cliques only.
            (lambda: complete_graph(5), {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 5}),
            # Star with 4 leaves: C(4,3) 3-stars only.
            (lambda: star_graph(4), {0: 0, 1: 4, 2: 0, 3: 0, 4: 0, 5: 0}),
            (lambda: cycle_graph(4), {0: 0, 1: 0, 2: 1, 3: 0, 4: 0, 5: 0}),
        ],
    )
    def test_known_graphs(self, graph_fn, expected):
        assert exact_four_counts(graph_fn()) == expected

    def test_noninduced_star_count(self):
        assert noninduced_four_counts(star_graph(5))["star"] == 10  # C(5,3)

    def test_noninduced_k4(self):
        n = noninduced_four_counts(complete_graph(4))
        assert n["k4"] == 1
        assert n["c4"] == 3
        assert n["diamond"] == 6
        assert n["p4"] == 12


class TestDispatch:
    def test_formula_vs_esu_methods(self, karate):
        for k in (3, 4):
            assert exact_counts(karate, k) == esu_counts(karate, k)

    def test_concentrations_sum_to_one(self, karate):
        for k in (3, 4, 5):
            conc = exact_concentrations(karate, k)
            assert math.isclose(sum(conc.values()), 1.0, rel_tol=1e-12)

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            exact_concentrations(Graph(6, []), 3)

    def test_karate_k5_spot_check(self, karate):
        """5-node clique count of karate cross-checked with networkx
        (enumerating K5s via cliques)."""
        counts = exact_counts(karate, 5)
        nxg = nx.karate_club_graph()
        k5s = sum(
            1
            for clique in nx.enumerate_all_cliques(nxg)
            if len(clique) == 5
        )
        from repro.graphlets import graphlet_by_name

        assert counts[graphlet_by_name(5, "clique").index] == k5s
