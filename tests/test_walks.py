"""Tests for the random-walk steppers and the MH walk."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.estimator import MethodSpec, run_estimation
from repro.core.joint import run_joint_estimation
from repro.graphs import Graph, as_backend
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.relgraph import EdgeSpace, NodeSpace, SubgraphSpace
from repro.walks import (
    MetropolisHastingsWalk,
    NonBacktrackingWalk,
    SimpleWalk,
    make_walk,
    uniform_weight,
    wedge_weight,
)


class TestSimpleWalk:
    def test_stationary_distribution_degree_proportional(self, karate):
        """Long SRW visit frequencies converge to pi(v) = d_v / 2|E|."""
        walk = SimpleWalk(karate, NodeSpace(), rng=random.Random(0), seed_node=0)
        visits = Counter()
        for state in walk.walk(60_000):
            visits[state[0]] += 1
        two_m = 2 * karate.num_edges
        for v in karate.nodes():
            expected = karate.degree(v) / two_m
            observed = visits[v] / 60_000
            assert abs(observed - expected) < 0.25 * expected + 0.002

    def test_walk_stays_on_edges(self, karate):
        walk = SimpleWalk(karate, NodeSpace(), rng=random.Random(1), seed_node=0)
        prev = walk.state[0]
        for state in walk.walk(200):
            assert karate.has_edge(prev, state[0])
            prev = state[0]

    def test_edge_space_walk_valid(self, karate):
        walk = SimpleWalk(karate, EdgeSpace(), rng=random.Random(2), seed_node=0)
        for state in walk.walk(200):
            assert karate.has_edge(*state)

    def test_subgraph_space_walk_connected(self, karate):
        walk = SimpleWalk(karate, SubgraphSpace(3), rng=random.Random(3), seed_node=0)
        for state in walk.walk(30):
            assert karate.is_connected_subset(state)

    def test_steps_counter(self, karate):
        walk = SimpleWalk(karate, NodeSpace(), rng=random.Random(4))
        list(walk.walk(17))
        assert walk.steps_taken == 17

    def test_state_degree(self, figure1_graph):
        walk = SimpleWalk(figure1_graph, NodeSpace(), rng=random.Random(5), seed_node=0)
        assert walk.state_degree() == figure1_graph.degree(0)


class TestNonBacktrackingWalk:
    def test_never_backtracks_on_cycle(self):
        """On a cycle every node has degree 2: NB walk must go around,
        never reversing."""
        g = cycle_graph(10)
        walk = NonBacktrackingWalk(g, NodeSpace(), rng=random.Random(0), seed_node=0)
        states = [walk.state] + list(walk.walk(50))
        for i in range(2, len(states)):
            assert states[i] != states[i - 2], "backtracked despite alternatives"

    def test_forced_backtrack_on_leaf(self):
        """At a degree-1 state the only move is back (P' third case)."""
        g = path_graph(2)  # leaf-leaf: every step is a forced backtrack
        walk = NonBacktrackingWalk(g, NodeSpace(), rng=random.Random(1), seed_node=0)
        states = [s[0] for s in walk.walk(6)]
        assert states == [1, 0, 1, 0, 1, 0]

    def test_star_alternates_through_center(self):
        g = star_graph(5)
        walk = NonBacktrackingWalk(g, NodeSpace(), rng=random.Random(2), seed_node=1)
        prev = walk.state
        for state in walk.walk(40):
            # From a leaf the walk must go to the center; from the center it
            # must avoid the leaf it came from.
            if prev != (0,):
                assert state == (0,)
            else:
                assert state != prev
            prev = state

    def test_preserves_stationary_distribution(self, karate):
        """NB-SRW preserves pi(v) = d_v / 2|E| (§4.2)."""
        walk = NonBacktrackingWalk(karate, NodeSpace(), rng=random.Random(3), seed_node=0)
        visits = Counter()
        for state in walk.walk(60_000):
            visits[state[0]] += 1
        two_m = 2 * karate.num_edges
        for v in karate.nodes():
            expected = karate.degree(v) / two_m
            observed = visits[v] / 60_000
            assert abs(observed - expected) < 0.25 * expected + 0.002

    def test_nb_on_edge_space(self, karate):
        walk = NonBacktrackingWalk(karate, EdgeSpace(), rng=random.Random(4), seed_node=0)
        states = [walk.state] + list(walk.walk(60))
        for i in range(2, len(states)):
            if EdgeSpace().degree(karate, states[i - 1]) > 1:
                assert states[i] != states[i - 2]

    def test_nb_on_subgraph_space(self, karate):
        walk = NonBacktrackingWalk(karate, SubgraphSpace(3), rng=random.Random(5), seed_node=0)
        states = [walk.state] + list(walk.walk(20))
        for i in range(2, len(states)):
            if SubgraphSpace(3).degree(karate, states[i - 1]) > 1:
                assert states[i] != states[i - 2]

    def test_factory(self, karate):
        assert isinstance(make_walk(karate, NodeSpace()), SimpleWalk)
        assert isinstance(
            make_walk(karate, NodeSpace(), non_backtracking=True),
            NonBacktrackingWalk,
        )


class TestMetropolisHastings:
    def test_wedge_weight_values(self):
        assert wedge_weight(4) == 6
        assert uniform_weight(100) == 1.0

    def test_isolated_seed_rejected(self):
        with pytest.raises(ValueError):
            MetropolisHastingsWalk(Graph(2, []), seed_node=0)

    def test_uniform_target_visits_uniformly(self, karate):
        """MHRW with uniform weight corrects the degree bias of the SRW."""
        walk = MetropolisHastingsWalk(
            karate, weight=uniform_weight, rng=random.Random(0), seed_node=0
        )
        visits = Counter(walk.walk(80_000))
        frequencies = [visits[v] / 80_000 for v in karate.nodes()]
        expected = 1 / karate.num_nodes
        for f in frequencies:
            assert abs(f - expected) < 0.5 * expected

    def test_wedge_target_visits_proportional(self, karate):
        """Algorithm 4's walk targets pi(v) ~ C(d_v, 2)."""
        walk = MetropolisHastingsWalk(
            karate, weight=wedge_weight, rng=random.Random(1), seed_node=0
        )
        visits = Counter(walk.walk(80_000))
        total_weight = sum(wedge_weight(d) for d in karate.degrees())
        hubs = sorted(karate.nodes(), key=karate.degree, reverse=True)[:5]
        for v in hubs:
            expected = wedge_weight(karate.degree(v)) / total_weight
            observed = visits[v] / 80_000
            assert abs(observed - expected) < 0.25 * expected

    def test_acceptance_rate_tracked(self, karate):
        walk = MetropolisHastingsWalk(karate, rng=random.Random(2), seed_node=0)
        list(walk.walk(500))
        assert 0.0 < walk.acceptance_rate <= 1.0


BAD_SEED_NODES = [-1, "num_nodes", True, 2.0]


@pytest.fixture(scope="module")
def karate_backends(karate):
    return {name: as_backend(karate, name) for name in ("list", "csr", "delta", "mmap")}


@pytest.mark.filterwarnings("ignore::repro.walks.batched.BatchFallbackWarning")
class TestSeedNodeChecked:
    """A walk start that is not a node id raises a ``ValueError`` naming
    ``seed_node`` on every backend, serial chains and batched engine
    alike."""

    @pytest.mark.parametrize("bad", BAD_SEED_NODES, ids=repr)
    @pytest.mark.parametrize("chains", [1, 4])
    @pytest.mark.parametrize("backend", ["list", "csr", "delta", "mmap"])
    def test_rejected(self, karate_backends, backend, chains, bad):
        graph = karate_backends[backend]
        seed_node = graph.num_nodes if bad == "num_nodes" else bad
        with pytest.raises(ValueError, match="seed_node"):
            run_estimation(
                graph, MethodSpec(3, 1), 100, rng=random.Random(0),
                seed_node=seed_node, chains=chains,
            )

    @pytest.mark.parametrize("bad", BAD_SEED_NODES, ids=repr)
    def test_rejected_by_joint_estimation(self, karate, bad):
        seed_node = karate.num_nodes if bad == "num_nodes" else bad
        with pytest.raises(ValueError, match="seed_node"):
            run_joint_estimation(karate, [3, 4], d=2, steps=100, seed_node=seed_node)

    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_numpy_integer_accepted(self, karate_backends, backend):
        graph = karate_backends[backend]
        runs = [
            run_estimation(
                graph, MethodSpec(3, 1), 500, rng=random.Random(0),
                seed_node=node, chains=4,
            )
            for node in (33, np.int64(33))
        ]
        assert np.array_equal(runs[0].sums, runs[1].sums)
