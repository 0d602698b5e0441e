"""Tests for the graphlet catalog and classification."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphlets import (
    classify_bitmask,
    classify_nodes,
    edges_to_bitmask,
    graphlet_by_name,
    graphlet_names,
    graphlets,
    induced_bitmask,
    is_connected_mask,
    num_graphlets,
    relabel_bitmask,
)
from repro.graphs import load_dataset
from repro.graphs.generators import complete_graph, cycle_graph, path_graph, star_graph


class TestCatalogContents:
    @pytest.mark.parametrize("k, expected", [(2, 1), (3, 2), (4, 6), (5, 21)])
    def test_counts_match_oeis(self, k, expected):
        """Connected graphs on 2/3/4/5 nodes: 1, 2, 6, 21 (OEIS A001349)."""
        assert num_graphlets(k) == expected

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            graphlets(7)

    def test_paper_figure2_order_k3(self):
        assert graphlet_names(3) == ["wedge", "triangle"]

    def test_paper_figure2_order_k4(self):
        assert graphlet_names(4) == [
            "path",
            "3-star",
            "cycle",
            "tailed-triangle",
            "chordal-cycle",
            "clique",
        ]

    def test_paper_ids(self):
        assert graphlets(3)[1].paper_id == "g32"
        assert graphlets(4)[5].paper_id == "g46"

    def test_k5_contains_known_shapes(self):
        names = set(graphlet_names(5))
        for expected in ["path", "4-star", "cycle", "bull", "butterfly", "house",
                         "wheel", "gem", "K5-minus-e", "clique"]:
            assert expected in names

    def test_ordering_by_edges_then_degseq(self):
        for k in (3, 4, 5):
            entries = graphlets(k)
            keys = [(g.num_edges, g.degree_sequence) for g in entries]
            assert keys == sorted(keys)

    def test_representative_edges_realize_certificate(self):
        for k in (3, 4, 5):
            for g in graphlets(k):
                assert edges_to_bitmask(g.edges, k) == g.certificate
                assert len(g.edges) == g.num_edges

    def test_automorphisms_known_values(self):
        assert graphlet_by_name(5, "clique").automorphisms == 120
        assert graphlet_by_name(5, "cycle").automorphisms == 10
        assert graphlet_by_name(4, "path").automorphisms == 2

    def test_certificates_unique(self):
        for k in (3, 4, 5):
            certs = [g.certificate for g in graphlets(k)]
            assert len(certs) == len(set(certs))

    def test_lookup_by_name(self):
        assert graphlet_by_name(4, "clique").num_edges == 6
        with pytest.raises(KeyError):
            graphlet_by_name(4, "pentagon")


class TestClassifyBitmask:
    def test_disconnected_raises(self):
        mask = edges_to_bitmask([(0, 1)], 4)
        with pytest.raises(KeyError):
            classify_bitmask(mask, 4)

    @given(
        st.integers(0, (1 << 10) - 1),
        st.permutations(list(range(5))),
    )
    @settings(max_examples=80, deadline=None)
    def test_classification_invariant_under_relabeling(self, mask, perm):
        if not is_connected_mask(mask, 5):
            return
        relabeled = relabel_bitmask(mask, perm, 5)
        assert classify_bitmask(mask, 5) == classify_bitmask(relabeled, 5)

    def test_exhaustive_partition_k4(self):
        """Every connected labeled 4-node graph classifies to exactly one
        type, and labeled-class sizes sum to the connected-graph count."""
        per_type = [0] * num_graphlets(4)
        connected = 0
        for mask in range(1 << 6):
            if is_connected_mask(mask, 4):
                connected += 1
                per_type[classify_bitmask(mask, 4)] += 1
        assert connected == 38  # labeled connected graphs on 4 nodes
        assert sum(per_type) == connected
        assert all(count > 0 for count in per_type)

    def test_labeled_class_size_is_factorial_over_automorphisms(self):
        """# labeled copies of a type = k! / |Aut|."""
        import math

        for k in (3, 4):
            per_type = [0] * num_graphlets(k)
            bits = k * (k - 1) // 2
            for mask in range(1 << bits):
                if is_connected_mask(mask, k):
                    per_type[classify_bitmask(mask, k)] += 1
            for g in graphlets(k):
                assert per_type[g.index] == math.factorial(k) // g.automorphisms


class TestClassifyNodes:
    def test_triangle_in_karate(self):
        g = load_dataset("karate")
        # 0-1-2 form a triangle in Zachary's club.
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(0, 2)
        assert classify_nodes(g, [0, 1, 2]) == 1

    def test_star_subgraph(self):
        g = star_graph(4)
        assert graphlets(4)[classify_nodes(g, [0, 1, 2, 3])].name == "3-star"

    def test_cycle_subgraph(self):
        g = cycle_graph(4)
        assert graphlets(4)[classify_nodes(g, [0, 1, 2, 3])].name == "cycle"

    def test_clique_subgraph(self):
        g = complete_graph(5)
        assert graphlets(5)[classify_nodes(g, range(5))].name == "clique"

    def test_path_subgraph(self):
        g = path_graph(6)
        assert graphlets(5)[classify_nodes(g, [1, 2, 3, 4, 5])].name == "path"

    def test_classification_against_networkx(self):
        """Sampled node sets classify consistently with networkx
        isomorphism against the catalog representative."""
        g = load_dataset("karate")
        import random

        rng = random.Random(7)
        nodes = list(g.nodes())
        checked = 0
        while checked < 20:
            sample = sorted(rng.sample(nodes, 4))
            if not g.is_connected_subset(sample):
                continue
            index = classify_nodes(g, sample)
            rep = nx.Graph(graphlets(4)[index].edges)
            rep.add_nodes_from(range(4))
            actual = nx.Graph()
            actual.add_nodes_from(sample)
            actual.add_edges_from(g.induced_edges(sample))
            assert nx.is_isomorphic(rep, actual)
            checked += 1

    def test_induced_bitmask_matches_edges(self, figure1_graph):
        mask = induced_bitmask(figure1_graph, [0, 1, 2, 3])
        assert bin(mask).count("1") == figure1_graph.num_edges
