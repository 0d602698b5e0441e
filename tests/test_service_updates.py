"""Daemon edge updates and republish-on-compact (ISSUE 7).

Pins the dynamic half of the service contract:

* **Pre-start updates** are plain overlay mutations — versioned,
  validated, no pool involved (tier-1 fast).
* **Republish** swaps the shared segment and worker pool atomically
  under the daemon lock: post-update answers are bit-identical to
  in-process estimation on the compacted graph, the worker count is
  restored, and no ``/dev/shm`` segment leaks (module guard).
* **Draining** — a request in flight across a republish still finishes.

Pool-spawning paths carry ``@pytest.mark.service`` like the rest of the
daemon suite; the pre-start tests stay tier-1.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro import estimate as in_process_estimate
from repro.graphs import DeltaCSRGraph, GraphError
from repro.service import Daemon, EstimateRequest, ServiceClosed
from repro.streaming import EdgeStreamSpec


@pytest.fixture(scope="module", autouse=True)
def segment_guard(segments):
    before = segments()
    yield
    leaked = segments() - before
    assert not leaked, f"orphaned shared-memory segments: {sorted(leaked)}"


@pytest.fixture()
def stream():
    return EdgeStreamSpec(
        graph="ba:200:3:2", batches=2, inserts_per_batch=6,
        deletes_per_batch=6, seed=4,
    )


class TestPreStart:
    def test_updates_version_the_graph(self, stream):
        daemon = Daemon(stream.base_graph(), workers=1)
        assert daemon.stats()["graph_version"] == 0
        for batch in stream.edge_batches():
            report = daemon.apply_updates(
                inserts=batch.inserts, deletes=batch.deletes, compact=False
            )
            assert not report["republished"]
        assert daemon.stats()["graph_version"] == stream.batches
        assert isinstance(daemon.graph, DeltaCSRGraph)
        churned = stream.churned_graph()
        assert np.array_equal(daemon.graph.indices, churned.indices)

    def test_compact_before_start_does_not_republish(self, stream):
        daemon = Daemon(stream.base_graph(), workers=1)
        batch = stream.edge_batches()[0]
        report = daemon.apply_updates(
            inserts=batch.inserts, deletes=batch.deletes, compact=True
        )
        assert report["version"] == 2  # apply + compaction both bump
        assert not report["republished"]
        assert daemon.graph.delta_edges == 0

    def test_invalid_batch_rejected_atomically(self, stream):
        daemon = Daemon(stream.base_graph(), workers=1)
        edges_before = daemon.graph.num_edges
        with pytest.raises(GraphError, match="already present"):
            daemon.apply_updates(inserts=[next(iter(daemon.graph.edges()))])
        assert daemon.stats()["graph_version"] == 0
        assert daemon.graph.num_edges == edges_before

    def test_closed_daemon_rejects_updates(self, stream):
        daemon = Daemon(stream.base_graph(), workers=1)
        daemon.close()
        with pytest.raises(ServiceClosed):
            daemon.apply_updates(inserts=[(0, 199)])


@pytest.mark.service
class TestRepublish:
    def test_post_republish_answers_match_in_process(self, stream):
        base = stream.base_graph()
        with Daemon(base, workers=2) as daemon:
            workers_before = daemon.worker_pids()
            for batch in stream.edge_batches():
                report = daemon.apply_updates(
                    inserts=batch.inserts, deletes=batch.deletes
                )
                assert report["republished"]
            stats = daemon.stats()
            assert stats["workers"] == 2
            assert daemon.worker_pids() != workers_before
            # Bit-identity: the republished pool answers exactly like
            # in-process estimation on the compacted graph.
            churned = stream.churned_graph()
            assert stats["num_edges"] == churned.num_edges
            served = daemon.estimate("SRW1CSSNB", k=3, budget=3_000, chains=4, seed=6)
            local = in_process_estimate(
                churned, "SRW1CSSNB", k=3, budget=3_000, chains=4, seed=6,
                backend="csr",
            )
            assert np.array_equal(served.concentrations, local.concentrations)

    def test_inflight_request_survives_republish(self, stream):
        base = stream.base_graph()
        batch = stream.edge_batches()[0]
        with Daemon(base, workers=2) as daemon:
            handle = daemon.submit(
                EstimateRequest(
                    method="SRW2CSS", k=4, budget=60_000, chains=4, seed=1
                )
            )
            daemon.apply_updates(inserts=batch.inserts, deletes=batch.deletes)
            final = handle.result(timeout=120)
            assert final.steps == 60_000
