"""Shared-memory CSR lifecycle tests (ISSUE 6 satellite).

The invariants a long-lived serving layer needs from
:mod:`repro.graphs.shared`: attach/detach round-trips are bitwise exact,
close/unlink are idempotent, a SIGKILL'd attacher neither corrupts nor
unlinks the owner's segment, and nothing this suite does leaves orphans
in ``/dev/shm``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    CSRGraph,
    Graph,
    GraphError,
    MmapCSRGraph,
    SharedCSRGraph,
    SharedGraphHandle,
    barabasi_albert,
    erdos_renyi,
    load_dataset,
)
from repro.graphs.shared import SEGMENT_PREFIX, published


@pytest.fixture(autouse=True)
def no_orphaned_segments(segments):
    """Every test must leave ``/dev/shm`` exactly as it found it."""
    before = segments()
    yield
    leaked = segments() - before
    assert not leaked, f"orphaned shared-memory segments: {sorted(leaked)}"


def _roundtrip_check(csr: CSRGraph) -> None:
    shared = csr.to_shared()
    attached = CSRGraph.from_shared(shared.handle)
    try:
        assert np.array_equal(attached.indptr, csr.indptr)
        assert np.array_equal(attached.indices, csr.indices)
        assert np.array_equal(attached.degrees_array, csr.degrees_array)
        assert attached == csr
        assert attached.num_edges == csr.num_edges
    finally:
        attached.close()
        shared.close()
        shared.unlink()


class TestRoundTrip:
    def test_karate_bitwise_equal(self):
        _roundtrip_check(CSRGraph.from_graph(load_dataset("karate")))

    def test_ba_graph_bitwise_equal(self):
        _roundtrip_check(CSRGraph.from_graph(barabasi_albert(500, 4, seed=3)))

    def test_graph_with_isolated_nodes(self):
        _roundtrip_check(CSRGraph.from_graph(Graph(6, [(0, 1), (4, 5)])))

    def test_empty_graph(self):
        _roundtrip_check(CSRGraph.from_graph(Graph(3, [])))

    def test_attach_accepts_dict_handle(self):
        csr = CSRGraph.from_graph(load_dataset("karate"))
        shared = csr.to_shared()
        attached = CSRGraph.from_shared(shared.handle.to_dict())
        assert attached == csr
        attached.close()
        shared.close()
        shared.unlink()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=0.01, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_graph_roundtrip(self, n, p, seed):
        """Hypothesis satellite: round-trip over random graphs."""
        _roundtrip_check(CSRGraph.from_graph(erdos_renyi(n, p, seed=seed)))


class TestLifecycle:
    def test_double_close_is_noop(self):
        shared = CSRGraph.from_graph(load_dataset("karate")).to_shared()
        shared.close()
        shared.close()  # idempotent, no BufferError / double-free
        assert shared.closed
        shared.unlink()

    def test_double_unlink_is_noop(self):
        shared = CSRGraph.from_graph(load_dataset("karate")).to_shared()
        shared.close()
        shared.unlink()
        shared.unlink()

    def test_context_manager_closes_and_unlinks_owner(self, segments):
        csr = CSRGraph.from_graph(load_dataset("karate"))
        with csr.to_shared() as shared:
            name = shared.handle.name
            assert name in segments()
        assert name not in segments()
        assert shared.closed

    def test_to_shared_on_shared_graph_is_identity(self):
        shared = CSRGraph.from_graph(load_dataset("karate")).to_shared()
        assert shared.to_shared() is shared
        shared.close()
        shared.unlink()

    def test_owner_flags(self):
        shared = CSRGraph.from_graph(load_dataset("karate")).to_shared()
        attached = SharedCSRGraph.attach(shared.handle)
        assert shared.is_owner and not attached.is_owner
        attached.close()
        shared.close()
        shared.unlink()

    def test_create_rejects_non_csr(self):
        with pytest.raises(GraphError, match="needs a CSRGraph"):
            SharedCSRGraph.create(load_dataset("karate"))

    def test_stale_handle_size_mismatch_raises(self):
        shared = CSRGraph.from_graph(Graph(3, [(0, 1)])).to_shared()
        lying = SharedGraphHandle(
            name=shared.handle.name, num_nodes=10_000, num_indices=10_000
        )
        with pytest.raises(GraphError, match="stale handle"):
            SharedCSRGraph.attach(lying)
        shared.close()
        shared.unlink()

    def test_pickle_reattaches(self):
        csr = CSRGraph.from_graph(load_dataset("karate"))
        shared = csr.to_shared()
        clone = pickle.loads(pickle.dumps(shared))
        assert clone == csr and not clone.is_owner
        clone.close()
        shared.close()
        shared.unlink()

    def test_closed_graph_does_not_pickle(self):
        shared = CSRGraph.from_graph(load_dataset("karate")).to_shared()
        shared.close()
        with pytest.raises(GraphError, match="closed"):
            pickle.dumps(shared)
        shared.unlink()

    def test_copy_detaches_from_segment(self):
        csr = CSRGraph.from_graph(load_dataset("karate"))
        shared = csr.to_shared()
        private = shared.copy()
        shared.close()
        shared.unlink()
        # The copy survives the segment teardown.
        assert private == csr
        assert not isinstance(private, SharedCSRGraph)


class TestSegmentGuard:
    def test_counts_this_process_segments_only(self, segments, tmp_path):
        """The leak guards see a leaked segment of this process and ignore
        another process's, including one whose pid this pid prefixes."""
        pid = os.getpid()
        own = f"{SEGMENT_PREFIX}{pid}-0badc0de"
        for name in (own, f"{SEGMENT_PREFIX}{pid + 1}-0badc0de",
                     f"{SEGMENT_PREFIX}{pid}7-0badc0de", "other-file"):
            (tmp_path / name).touch()
        assert segments(tmp_path) == {own}


class TestPublished:
    def test_plain_csr_gets_a_segment_for_the_block(self, segments):
        csr = CSRGraph.from_graph(load_dataset("karate"))
        with published(csr) as shipped:
            assert isinstance(shipped, SharedCSRGraph) and shipped == csr
            assert shipped.handle.name in segments()
        assert shipped.closed  # the autouse fixture checks the unlink

    def test_list_mmap_and_shared_graphs_pass_unchanged(self, tmp_path):
        karate = load_dataset("karate")
        CSRGraph.from_graph(karate).save(tmp_path / "k")
        mapped = MmapCSRGraph.load(tmp_path / "k")
        shared = CSRGraph.from_graph(karate).to_shared()
        try:
            for graph in (karate, mapped, shared):
                with published(graph) as shipped:
                    assert shipped is graph
            assert not shared.closed
        finally:
            shared.close()
            shared.unlink()


def _walk_forever(handle, started):
    """Attach and walk until killed (the SIGKILL fault-injection prey)."""
    graph = CSRGraph.from_shared(handle)
    rng = np.random.default_rng(0)
    started.set()
    node = 0
    while True:
        row = graph.neighbors(node)
        node = int(row[rng.integers(len(row))])


class TestCrashSafety:
    def test_sigkill_attacher_leaves_owner_intact(self):
        """SIGKILL an attached worker mid-walk: the owner's segment
        survives, stays attachable, and still unlinks cleanly — no
        orphans (the autouse fixture asserts /dev/shm is unchanged)."""
        csr = CSRGraph.from_graph(barabasi_albert(400, 3, seed=5))
        shared = csr.to_shared()
        ctx = multiprocessing.get_context()
        started = ctx.Event()
        victim = ctx.Process(
            target=_walk_forever, args=(shared.handle, started), daemon=True
        )
        victim.start()
        assert started.wait(timeout=30), "attacher never started walking"
        time.sleep(0.05)  # let it take some steps mid-segment
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)
        assert victim.exitcode == -signal.SIGKILL
        # Segment is still alive and correct for everyone else.
        again = CSRGraph.from_shared(shared.handle)
        assert again == csr
        again.close()
        shared.close()
        shared.unlink()
