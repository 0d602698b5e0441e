"""Tests for the core Graph type."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graphs import CSRGraph, Graph, GraphError, barabasi_albert, read_edge_list
from repro.graphs import csr as csr_module
from repro.graphs.generators import complete_graph, cycle_graph, path_graph
from repro.walks import batch_support

from reference import adjacency_lists


def random_edge_lists(max_nodes: int = 12):
    """Hypothesis strategy: (num_nodes, edge list) pairs."""
    return st.integers(min_value=2, max_value=max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                max_size=3 * n,
            ),
        )
    )


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_isolated_nodes(self):
        g = Graph(5)
        assert g.num_nodes == 5
        assert g.degrees() == [0] * 5

    def test_simple_edges(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert g.neighbors(1) == [0, 2]

    def test_duplicate_edges_collapsed(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 5)])

    def test_negative_num_nodes_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    @pytest.mark.parametrize(
        "bad_edge",
        [("a", 1), (0, "b"), (0.5, 1), (0, 1.0), (None, 1), (0, [1]), (True, 2)],
    )
    def test_non_int_node_ids_rejected(self, bad_edge):
        # Regression: these used to surface later as opaque TypeErrors
        # inside sorted()/set operations; now the constructor names the
        # offending edge.  bool is rejected too — it would silently alias
        # node 0/1.
        with pytest.raises(GraphError, match="node ids must be integers"):
            Graph(3, [(0, 1), bad_edge])

    def test_from_edges_rejects_non_int_node_ids(self):
        # Regression: from_edges used int() pre-coercion, silently
        # truncating (0.5, 1) to edge (0, 1) instead of erroring.
        with pytest.raises(GraphError, match="node ids must be integers"):
            Graph.from_edges([(0.5, 1), (1, 2)])
        with pytest.raises(GraphError, match="node ids must be integers"):
            Graph.from_edges([(True, 2)])

    def test_numpy_integer_node_ids_normalized(self):
        np = pytest.importorskip("numpy")
        g = Graph(3, [(np.int64(0), np.int32(1)), (1, 2)])
        assert g.num_edges == 2
        assert all(type(v) is int for v in g.neighbors(1))

    def test_from_edges_infers_size(self):
        g = Graph.from_edges([(0, 3), (3, 5)])
        assert g.num_nodes == 6
        assert g.num_edges == 2

    def test_from_edges_explicit_size(self):
        g = Graph.from_edges([(0, 1)], num_nodes=10)
        assert g.num_nodes == 10

    def test_from_adjacency(self):
        g = Graph.from_adjacency([[1, 2], [0], [0]])
        assert g.num_edges == 2
        assert g.has_edge(0, 2)

    def test_copy_is_independent(self):
        g = Graph(3, [(0, 1)])
        h = g.copy()
        assert g == h
        assert g is not h
        assert not np.shares_memory(g.full_access_csr().indices, h.full_access_csr().indices)
        assert g.neighbors(0) is not h.neighbors(0)


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph(4, [(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2) == [0, 1, 3]

    def test_edges_canonical_order(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert list(g.edges()) == [(0, 1), (2, 3)]

    def test_has_edge_symmetric(self):
        g = Graph(3, [(0, 2)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_degree_and_max_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.max_degree() == 3
        assert Graph(0).max_degree() == 0

    def test_neighbor_set_matches_list(self):
        g = cycle_graph(7)
        for v in g.nodes():
            assert g.neighbor_set(v) == set(g.neighbors(v))

    def test_equality_by_structure(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])


class TestInducedSubgraphs:
    def test_induced_edges_triangle(self, k5):
        assert sorted(k5.induced_edges([0, 1, 2])) == [(0, 1), (0, 2), (1, 2)]

    def test_induced_edge_count(self, k5):
        assert k5.induced_edge_count([0, 1, 2, 3]) == 6

    def test_induced_edges_empty_for_independent_set(self):
        g = path_graph(5)
        assert g.induced_edges([0, 2, 4]) == []

    def test_is_connected_subset(self):
        g = path_graph(5)
        assert g.is_connected_subset([0, 1, 2])
        assert not g.is_connected_subset([0, 2])
        assert not g.is_connected_subset([])

    def test_is_connected_subset_single_node(self):
        g = path_graph(3)
        assert g.is_connected_subset([1])


class TestDerivedQuantities:
    def test_edge_relationship_count_formula(self):
        # |R(2)| = sum_v C(d_v, 2): path of 3 nodes has one wedge.
        assert path_graph(3).edge_relationship_count() == 1
        # K4: each node has C(3,2)=3 wedges -> 12.
        assert complete_graph(4).edge_relationship_count() == 12

    def test_edge_relationship_matches_paper_figure1(self, figure1_graph):
        # The paper's Figure 1 example states |R(2)| = 8.
        assert figure1_graph.edge_relationship_count() == 8

    @given(random_edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_edge_relationship_equals_pairwise_definition(self, data):
        n, edges = data
        g = Graph(n, edges)
        expected = sum(
            g.degree(u) + g.degree(v) - 2 for u, v in g.edges()
        ) // 2
        assert g.edge_relationship_count() == expected

    @given(random_edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_degree_sum_is_twice_edges(self, data):
        n, edges = data
        g = Graph(n, edges)
        assert sum(g.degrees()) == 2 * g.num_edges


class TestArrayFirst:
    """A Graph is its CSR arrays; the Python lists and sets come later."""

    # Duplicates in both orientations, out of order; every node appears,
    # first seen in id order, so read_edge_list keeps the ids.
    EDGES = [(0, 1), (1, 2), (2, 0), (1, 0), (3, 1), (2, 4), (4, 2), (3, 4), (1, 3)]

    @given(random_edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_lists_match_per_edge_build(self, data):
        n, edges = data
        assert [Graph(n, edges).neighbors(v) for v in range(n)] == adjacency_lists(n, edges)

    def test_every_builder_gives_identical_arrays(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in self.EDGES))
        graphs = [
            Graph(5, self.EDGES),
            Graph(5, (edge for edge in self.EDGES)),
            Graph(5, np.array(self.EDGES)),
            Graph.from_edges(self.EDGES),
            read_edge_list(path)[0],
        ]
        csrs = [g.full_access_csr() for g in graphs] + [CSRGraph.from_edges(self.EDGES)]
        expected = adjacency_lists(5, self.EDGES)
        for csr in csrs:
            assert csr.indptr.tolist() == [0, 2, 5, 8, 10, 12]
            assert csr.indices.tolist() == [v for row in expected for v in row]
        for g in graphs:
            assert [g.neighbors(v) for v in g.nodes()] == expected

    def test_from_graph_shares_the_arrays(self):
        g = barabasi_albert(60, 3, seed=1)
        csr = CSRGraph.from_graph(g)
        assert csr is g.full_access_csr()
        assert not csr.indices.flags.writeable and not csr.indptr.flags.writeable
        assert CSRGraph.from_graph(g) is csr

    @staticmethod
    def built(g):
        """Which Python views exist (an unbuilt view's slot holds a placeholder)."""
        return type(g._adj) is list, type(g._adj_sets) is list

    def test_views_are_built_on_first_scalar_use(self):
        g = barabasi_albert(60, 3, seed=1)
        g.degrees(), list(g.edges()), g.max_degree(), g.edge_relationship_count()
        assert self.built(g) == (False, False)
        assert g.neighbors(5) == g.full_access_csr().neighbors(5).tolist()
        assert self.built(g) == (True, False)
        assert g.has_edge(5, g.neighbors(5)[0])
        assert self.built(g) == (True, True)
        h = barabasi_albert(60, 3, seed=1)
        assert h.neighbor_set(5) == set(g.neighbors(5))  # sets build the lists too
        assert self.built(h) == (True, True)

    def test_pickle_carries_the_edges_only(self):
        g = barabasi_albert(60, 3, seed=1)
        before = pickle.dumps(g)
        g.neighbors(0), g.has_edge(0, 1)  # build the lists and sets
        after = pickle.dumps(g)
        assert before == after
        for blob in (before, after):
            h = pickle.loads(blob)
            assert h == g
            assert self.built(h) == (False, False)
            assert [h.neighbors(v) for v in h.nodes()] == [g.neighbors(v) for v in g.nodes()]


class TestOneStorageClass:
    """A list Graph is a CSRGraph with Python scalar views: the storage is
    one class, and the type decides only the walker family."""

    def test_a_graph_is_a_csr_graph_that_walks_serially(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert isinstance(g, CSRGraph)
        assert not batch_support(g)[0]
        assert batch_support(CSRGraph.from_graph(g))[0]

    def test_equal_with_equal_hashes_to_its_plain_form(self):
        g = barabasi_albert(60, 3, seed=1)
        plain = CSRGraph.from_graph(g)
        assert type(plain) is CSRGraph
        assert g == plain and plain == g and hash(g) == hash(plain)
        assert g == CSRGraph.from_edges(g.edges(), g.num_nodes)
        assert g != barabasi_albert(60, 3, seed=2)

    def test_pickle_and_copies_keep_the_type_with_unbuilt_views(self):
        g = barabasi_albert(60, 3, seed=1)
        g.neighbors(0), g.has_edge(0, 1)  # build the lists and sets
        for h in (pickle.loads(pickle.dumps(g)), g.copy(), copy.deepcopy(g)):
            assert type(h) is Graph and h == g
            assert TestArrayFirst.built(h) == (False, False)
            assert not h.indices.flags.writeable
        plain = CSRGraph.from_graph(g)
        for h in (pickle.loads(pickle.dumps(plain)), plain.copy(), copy.deepcopy(plain)):
            assert type(h) is CSRGraph and h == g

    def test_to_graph_copies_the_arrays(self):
        plain = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        g = plain.to_graph()
        assert type(g) is Graph and g == plain
        assert not np.shares_memory(g.indices, plain.indices)
        assert [g.neighbors(v) for v in g.nodes()] == [[1, 2], [0, 2], [0, 1, 3], [2]]
        assert g.to_graph() is g

    def test_list_and_csr_runs_share_one_table_build(self, monkeypatch):
        builds = []

        class Counted(csr_module.EdgeTables):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

        monkeypatch.setattr(csr_module, "EdgeTables", Counted)
        g = barabasi_albert(300, 4, seed=1)
        kwargs = dict(k=4, budget=2_000, seed=1)
        repro.estimate(g, "srw2", backend="list", **kwargs)
        assert len(builds) == 1
        repro.estimate(g, "srw2", backend="csr", chains=8, **kwargs)
        g.has_edges(np.array([0]), np.array([1]))
        assert len(builds) == 1
