"""Streaming subsystem: EdgeStreamSpec determinism and the warm-chain
ContinuousSession (replay bit-identity, touched-chain repair, budget
semantics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import DeltaCSRGraph, Graph, GraphError, barabasi_albert
from repro.streaming import ContinuousSession, EdgeStreamSpec, StreamError

SMOKE = dict(
    graph="ba:200:3:2", batches=4, inserts_per_batch=8, deletes_per_batch=8, seed=3
)


class TestEdgeStream:
    def test_batches_deterministic(self):
        first = EdgeStreamSpec(**SMOKE).edge_batches()
        second = EdgeStreamSpec(**SMOKE).edge_batches()
        assert first == second
        assert len(first) == 4
        assert all(len(b.inserts) == 8 and len(b.deletes) == 8 for b in first)

    def test_batches_valid_against_live_set(self):
        spec = EdgeStreamSpec(**SMOKE)
        live = set(spec.base_graph().edges())
        for batch in spec.edge_batches():
            for edge in batch.deletes:
                assert edge in live
                live.discard(edge)
            for edge in batch.inserts:
                assert edge not in live
                assert edge[0] < edge[1]
                live.add(edge)
        churned = spec.churned_graph()
        assert set(churned.edges()) == live

    def test_replay_matches_churned(self):
        spec = EdgeStreamSpec(**SMOKE)
        replayed = spec.replay()
        assert replayed.version == spec.batches
        churned = spec.churned_graph()
        assert np.array_equal(replayed.indptr, churned.indptr)
        assert np.array_equal(replayed.indices, churned.indices)

    def test_replay_builds_base_once(self, monkeypatch):
        builds = []
        build = EdgeStreamSpec.base_graph

        def counting(spec):
            builds.append(spec)
            return build(spec)

        monkeypatch.setattr(EdgeStreamSpec, "base_graph", counting)
        spec = EdgeStreamSpec(**SMOKE)
        spec.replay()
        assert len(builds) == 1
        spec.churned_graph()
        assert len(builds) == 2

    def test_monitor_builds_base_once(self, monkeypatch, capsys):
        builds = []
        build = EdgeStreamSpec.base_graph

        def counting(spec):
            builds.append(spec)
            return build(spec)

        monkeypatch.setattr(EdgeStreamSpec, "base_graph", counting)
        argv = ["monitor", "--source", SMOKE["graph"], "--batches", "2", "--churn", "4",
                "--chains", "2", "--refresh-steps", "200"]
        assert main(argv) == 0
        assert len(builds) == 1
        assert len(capsys.readouterr().out.splitlines()) == 3  # warm-up + 2 batches

    def test_net_edge_count_conserved(self):
        spec = EdgeStreamSpec(**SMOKE)  # equal churn in and out
        assert spec.churned_graph().num_edges == spec.base_graph().num_edges


def play(stream: EdgeStreamSpec, method="SRW1CSSNB", k=3, seed=5):
    """One full warm session over the stream; returns every refreshed
    concentration vector plus the session (for meta checks)."""
    session = ContinuousSession(
        stream.base_graph(), method, k=k, chains=4, refresh_budget=600, seed=seed
    )
    answers = [session.refresh().concentrations.copy()]
    for batch in stream.edge_batches():
        session.apply_updates(inserts=batch.inserts, deletes=batch.deletes)
        answers.append(session.refresh().concentrations.copy())
    return answers, session


class TestContinuousSession:
    def test_replay_bit_identical(self):
        stream = EdgeStreamSpec(**SMOKE)
        first, _ = play(stream)
        second, _ = play(stream)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        stream = EdgeStreamSpec(**SMOKE)
        first, _ = play(stream, seed=5)
        other, _ = play(stream, seed=6)
        assert not all(np.array_equal(a, b) for a, b in zip(first, other))

    @pytest.mark.parametrize("method", ["SRW1", "SRW2CSS", "SRW1NB"])
    def test_methods_track_budget_and_version(self, method):
        stream = EdgeStreamSpec(**SMOKE)
        k = 3 if method.startswith("SRW1") else 4
        session = ContinuousSession(
            stream.base_graph(), method, k=k, chains=4, refresh_budget=400, seed=1
        )
        estimate = session.refresh()
        assert estimate.steps == 400
        assert estimate.meta["graph_version"] == 0
        for batch in stream.edge_batches():
            session.apply_updates(inserts=batch.inserts, deletes=batch.deletes)
            estimate = session.refresh()
        assert estimate.steps == 400 * (1 + stream.batches)
        assert estimate.meta["graph_version"] == stream.batches
        assert estimate.meta["refreshes"] == 1 + stream.batches
        assert estimate.meta["reprojected_chains"] == session._reprojected
        assert session.consumed == estimate.steps

    def test_touched_detection_is_sound(self):
        # Chains whose state avoids every changed endpoint must keep
        # their carried state; chains that hit one must be re-projected
        # onto a valid state of the *new* graph.
        graph = barabasi_albert(120, 3, seed=7)
        session = ContinuousSession(
            graph, "SRW2", k=4, chains=8, refresh_budget=800, seed=2
        )
        session.refresh()
        before = session._carried.copy()
        delta = session.graph
        live = sorted(delta.edges())
        batch_dels = [live[0], live[-1]]
        report = session.apply_updates(deletes=batch_dels)
        endpoints = {x for e in batch_dels for x in e}
        after = session._carried
        for b in range(session.chains):
            state_nodes = set(int(x) for x in np.atleast_1d(before[b]))
            if state_nodes & endpoints:
                assert b in report.touched
            else:
                assert b not in report.touched
                assert np.array_equal(before[b], after[b])
        for b in report.touched:
            u, v = (int(x) for x in np.atleast_1d(after[b]))
            assert delta.has_edge(u, v)  # valid G(2) state on the new graph

    def test_untouched_batch_reports_empty(self):
        session = ContinuousSession(
            barabasi_albert(100, 3, seed=1), "SRW1", k=3,
            chains=2, refresh_budget=100, seed=0,
        )
        report = session.apply_updates()
        assert report.touched == () and report.inserts == 0 and report.deletes == 0
        assert report.version == 0  # empty batch: no version bump
        # Updates before the first refresh never touch chains (none exist).
        g = session.graph
        edge = next(iter(g.edges()))
        report = session.apply_updates(deletes=[edge])
        assert report.version == 1 and report.touched == ()

    def test_non_integer_ids_rejected(self):
        """Regression: ``int(u)`` truncated (2.9, 3) to the edge (2, 3)."""
        session = ContinuousSession(
            Graph(4, [(0, 1), (1, 2)]), "SRW1", k=3, chains=2, refresh_budget=10
        )
        session.refresh()
        for bad in ((2.9, 3), (True, 3)):
            with pytest.raises(GraphError, match=r"node ids must be integers.*in edge"):
                session.apply_updates(inserts=[bad])
        assert session.graph.version == 0 and not session.graph.has_edge(2, 3)
        report = session.apply_updates(inserts=np.array([[2, 3]], dtype=np.int32))
        assert report.version == 1 and report.inserts == 1
        assert session.graph.has_edge(2, 3)

    def test_adopts_existing_overlay(self):
        delta = DeltaCSRGraph(barabasi_albert(80, 3, seed=3))
        session = ContinuousSession(delta, "SRW1", k=3, chains=2, refresh_budget=50)
        assert session.graph is delta

    def test_refresh_budget_validation(self):
        graph = barabasi_albert(80, 3, seed=3)
        with pytest.raises(ValueError, match="refresh_budget"):
            ContinuousSession(graph, "SRW1", k=3, chains=8, refresh_budget=4)
        session = ContinuousSession(graph, "SRW1", k=3, chains=8, refresh_budget=8)
        with pytest.raises(ValueError, match="steps=4"):
            session.refresh(steps=4)

    def test_reproject_failure_raises_stream_error(self):
        # Delete the only edge a chain was standing on, leaving its
        # whole component isolated: no valid G(1) state is reachable
        # from the old anchors, and the lone fallback node is isolated
        # too once the last edge goes.
        session = ContinuousSession(
            Graph(2, [(0, 1)]), "SRW1", k=3, chains=1, refresh_budget=10, seed=0
        )
        session.refresh()
        with pytest.raises(StreamError, match="re-project chain 0"):
            session.apply_updates(deletes=[(0, 1)])

    def test_reproject_skips_anchors_on_an_isolated_edge(self, deadline):
        # Deleting 2-3 leaves 3-4 an isolated edge.  Chain 1 stood on it
        # and its own nodes only grow (3, 4) again, a G(2) state with no
        # neighbour; the repair must move on to the next anchor.
        graph = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        session = ContinuousSession(
            graph, "SRW2", k=3, chains=4, refresh_budget=64, seed=1
        )
        session.refresh()
        assert session._carried[1].tolist() == [3, 4]
        with deadline(30):
            report = session.apply_updates(deletes=[(2, 3)])
            assert 1 in report.touched
            assert [3, 4] not in session._carried.tolist()
            estimate = session.refresh()
        assert estimate.meta["reprojected_chains"] == len(report.touched)

    def test_reproject_raises_when_every_anchor_is_stuck(self, deadline):
        # After deleting 1-2 both components are isolated edges: no
        # anchor grows a G(2) state the walk could leave.
        session = ContinuousSession(
            Graph(4, [(0, 1), (1, 2), (2, 3)]), "SRW2", k=3, chains=2,
            refresh_budget=8, seed=0,
        )
        session.refresh()
        with deadline(30), pytest.raises(StreamError, match="re-project chain"):
            session.apply_updates(deletes=[(1, 2)])
