"""Tests for the subgraph relationship graph G(d): on-the-fly neighbor
generation validated against explicit construction."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.graphs import Graph, is_connected
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.relgraph import (
    EdgeSpace,
    NodeSpace,
    SubgraphSpace,
    WalkSpaceError,
    enumerate_states,
    relationship_edge_count,
    relationship_graph,
    walk_space,
)
from repro.relgraph.construct import state_degree_fn


class TestFactory:
    def test_dispatch(self):
        assert isinstance(walk_space(1), NodeSpace)
        assert isinstance(walk_space(2), EdgeSpace)
        assert isinstance(walk_space(3), SubgraphSpace)

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            walk_space(0)
        with pytest.raises(ValueError):
            SubgraphSpace(2)


class TestExplicitConstruction:
    def test_figure1_g2(self, figure1_graph):
        """The paper's Figure 1: G(2) has 5 nodes (the edges) and 8 edges."""
        relgraph, states = relationship_graph(figure1_graph, 2)
        assert relgraph.num_nodes == 5
        assert relgraph.num_edges == 8
        assert states == sorted(figure1_graph.edges())

    def test_figure1_g3(self, figure1_graph):
        """Figure 1's G(3): the four 3-node connected induced subgraphs,
        fully connected to each other (each pair shares 2 nodes)."""
        relgraph, states = relationship_graph(figure1_graph, 3)
        assert relgraph.num_nodes == 4
        assert relgraph.num_edges == 6  # K4: every pair shares 2 nodes

    def test_g1_is_graph_itself(self, figure1_graph):
        relgraph, states = relationship_graph(figure1_graph, 1)
        assert relgraph.num_edges == figure1_graph.num_edges
        assert relgraph.num_nodes == figure1_graph.num_nodes

    def test_connectivity_theorem(self, karate):
        """Theorem 3.1 of Wang et al. [36]: G connected => G(d) connected."""
        for d in (2, 3):
            relgraph, _ = relationship_graph(karate, d)
            assert is_connected(relgraph)

    def test_edge_count_closed_forms(self, karate):
        assert relationship_edge_count(karate, 1) == karate.num_edges
        relgraph2, _ = relationship_graph(karate, 2)
        assert relationship_edge_count(karate, 2) == relgraph2.num_edges

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_state_degree_fn_matches_walk_space(self, karate, d):
        """The explicit-G(d) degree lookup equals the on-the-fly degree."""
        relgraph, states = relationship_graph(karate, d)
        degree = state_degree_fn(relgraph, states)
        space = walk_space(d)
        assert all(degree(s) == space.degree(karate, s) for s in states)

    def test_enumerate_states_matches_esu_sizes(self, karate):
        assert len(enumerate_states(karate, 1)) == karate.num_nodes
        assert len(enumerate_states(karate, 2)) == karate.num_edges


class TestNodeSpace:
    def test_neighbors(self, figure1_graph):
        space = NodeSpace()
        assert space.neighbors(figure1_graph, (0,)) == [(1,), (2,), (3,)]
        assert space.degree(figure1_graph, (0,)) == 3

    def test_initial_state_isolated(self):
        g = Graph(2, [])
        with pytest.raises(WalkSpaceError):
            NodeSpace().initial_state(g, random.Random(1), seed_node=0)


class TestEdgeSpace:
    def test_degree_formula(self, figure1_graph):
        space = EdgeSpace()
        # Edge (0, 2) in Figure 1 (both endpoints degree 3): 3 + 3 - 2 = 4.
        assert space.degree(figure1_graph, (0, 2)) == 4

    def test_neighbors_match_explicit_relgraph(self, karate):
        space = EdgeSpace()
        relgraph, states = relationship_graph(karate, 2)
        index = {s: i for i, s in enumerate(states)}
        for state in states[:25]:
            expected = {states[j] for j in relgraph.neighbors(index[state])}
            assert set(space.neighbors(karate, state)) == expected

    def test_random_neighbor_uniform(self, figure1_graph):
        """The O(1) two-stage sampler of §5 must be uniform over the
        edge-state's neighbors."""
        space = EdgeSpace()
        rng = random.Random(42)
        state = (0, 2)
        draws = Counter(
            space.random_neighbor(figure1_graph, state, rng) for _ in range(8000)
        )
        neighbors = set(space.neighbors(figure1_graph, state))
        assert set(draws) == neighbors
        expected = 8000 / len(neighbors)
        for count in draws.values():
            assert abs(count - expected) < 5 * (expected ** 0.5)

    def test_isolated_edge_raises(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(WalkSpaceError):
            EdgeSpace().random_neighbor(g, (0, 1), random.Random(1))

    def test_initial_state_incident_to_seed(self, karate):
        state = EdgeSpace().initial_state(karate, random.Random(3), seed_node=5)
        assert 5 in state


class TestSubgraphSpace:
    @pytest.mark.parametrize("d", [3, 4])
    def test_neighbors_match_explicit_relgraph(self, karate, d):
        space = SubgraphSpace(d)
        relgraph, states = relationship_graph(karate, d)
        index = {s: i for i, s in enumerate(states)}
        rng = random.Random(0)
        for state in rng.sample(states, 10):
            expected = {states[j] for j in relgraph.neighbors(index[state])}
            assert set(space.neighbors(karate, state)) == expected

    def test_degree_matches_neighbor_count(self, karate):
        space = SubgraphSpace(3)
        state = space.initial_state(karate, random.Random(2), seed_node=0)
        assert space.degree(karate, state) == len(space.neighbors(karate, state))

    def test_initial_state_connected(self, karate):
        space = SubgraphSpace(4)
        state = space.initial_state(karate, random.Random(5), seed_node=10)
        assert len(state) == 4
        assert karate.is_connected_subset(state)
        assert 10 in state

    def test_initial_state_impossible(self):
        g = path_graph(2)
        with pytest.raises(WalkSpaceError):
            SubgraphSpace(3).initial_state(g, random.Random(1), seed_node=0)

    def test_star_center_swap(self):
        """In a star, removing the center disconnects: neighbors must keep
        the center."""
        g = star_graph(4)
        space = SubgraphSpace(3)
        for neighbor in space.neighbors(g, (0, 1, 2)):
            assert 0 in neighbor  # center always present

    def test_random_neighbor_member_of_neighbors(self, karate):
        space = SubgraphSpace(3)
        rng = random.Random(9)
        state = space.initial_state(karate, rng, seed_node=0)
        for _ in range(5):
            nxt = space.random_neighbor(karate, state, rng)
            assert nxt in set(space.neighbors(karate, state))
            state = nxt

    def test_no_neighbors_raises(self):
        g = cycle_graph(3)  # single 3-node state, no neighbors in G(3)
        space = SubgraphSpace(3)
        with pytest.raises(WalkSpaceError):
            space.random_neighbor(g, (0, 1, 2), random.Random(1))
