"""DeltaCSRGraph: read parity with from-scratch rebuilds, compaction
bit-identity, batch validation, and backend integration."""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import MethodSpec, run_estimation
from repro.exact import (
    exact_concentrations,
    exact_concentrations_cached,
    exact_counts,
    exact_counts_cached,
)
from repro.graphs import (
    CSRGraph,
    DeltaCSRGraph,
    Graph,
    GraphError,
    as_backend,
    barabasi_albert,
)
from repro.streaming import EdgeStreamSpec
from repro.walks import batch_support


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def rebuild(n, live):
    """From-scratch CSR over a live edge set — the parity reference."""
    return CSRGraph.from_edges(sorted(live), num_nodes=n)


def assert_reads_match(delta: DeltaCSRGraph, reference: CSRGraph) -> None:
    n = reference.num_nodes
    assert delta.num_nodes == n
    assert delta.num_edges == reference.num_edges
    assert np.array_equal(delta.degrees_array, reference.degrees_array)
    for v in range(n):
        assert delta.degree(v) == reference.degree(v)
        assert np.array_equal(delta.neighbors(v), reference.neighbors(v))
        assert delta.neighbor_set(v) == reference.neighbor_set(v)
    pairs = np.array(all_pairs(n) or [(0, 0)], dtype=np.int64)
    for us, vs in ((pairs[:, 0], pairs[:, 1]), (pairs[:, 1], pairs[:, 0])):
        assert np.array_equal(
            delta.has_edges(us, vs), reference.has_edges(us, vs)
        )
    for u, v in pairs[:20]:
        assert delta.has_edge(int(u), int(v)) == reference.has_edge(int(u), int(v))
    assert list(delta.edges()) == list(reference.edges())
    assert_merged_matches(delta, reference)


def assert_merged_matches(delta: DeltaCSRGraph, reference: CSRGraph) -> None:
    """The merged indptr/indices the vectorized kernels gather: equal
    values, C-contiguous int64 like a from-scratch build."""
    for got, want in ((delta.indptr, reference.indptr), (delta.indices, reference.indices)):
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, want)


@st.composite
def churn_scenarios(draw):
    """A start graph plus a batched insert/delete schedule.

    Each step picks candidate pairs; whether a pair is an insert or a
    delete is decided against the tracked live set, so every generated
    batch is valid by construction.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    pairs = all_pairs(n)
    initial = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    batches = draw(
        st.lists(
            st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=6),
            max_size=6,
        )
    )
    return n, initial, batches


class TestReadParity:
    @settings(max_examples=60)
    @given(churn_scenarios())
    def test_arbitrary_churn_matches_rebuild(self, scenario):
        n, initial, batches = scenario
        live = set(initial)
        delta = DeltaCSRGraph(rebuild(n, live))
        for batch in batches:
            inserts = [e for e in batch if e not in live]
            deletes = [e for e in batch if e in live]
            delta.apply(inserts=inserts, deletes=deletes)
            live = (live - set(deletes)) | set(inserts)
            reference = rebuild(n, live)
            assert_reads_match(delta, reference)
            # Unpickling folds the whole log at once, where the live
            # overlay folded it batch by batch: an edge inserted in one
            # batch and deleted in a later one must cancel either way.
            assert_reads_match(pickle.loads(pickle.dumps(delta)), reference)

    @settings(max_examples=30)
    @given(churn_scenarios())
    def test_compact_bit_identical_to_rebuild(self, scenario):
        n, initial, batches = scenario
        live = set(initial)
        delta = DeltaCSRGraph(rebuild(n, live))
        for batch in batches:
            inserts = [e for e in batch if e not in live]
            deletes = [e for e in batch if e in live]
            delta.apply(inserts=inserts, deletes=deletes)
            live = (live - set(deletes)) | set(inserts)
        fresh = delta.compact()
        reference = rebuild(n, live)
        assert np.array_equal(fresh.indptr, reference.indptr)
        assert np.array_equal(fresh.indices, reference.indices)
        # The overlay rebased: clean log, reads still serve the live set.
        assert delta.delta_edges == 0
        assert_reads_match(delta, reference)

    def test_insert_then_delete_cancels(self):
        delta = DeltaCSRGraph(Graph(4, [(0, 1)]))
        delta.apply(inserts=[(2, 3)])
        delta.apply(deletes=[(2, 3)])
        assert not delta.has_edge(2, 3)
        assert delta.num_edges == 1
        # The log keeps both operations; the delta keys cancel them.
        assert delta.delta_edges == 2
        reference = CSRGraph.from_graph(Graph(4, [(0, 1)]))
        assert np.array_equal(delta.compact().indices, reference.indices)


class TestSplice:
    """The merged view is spliced from the sorted delta keys; these pin
    its parity at stream scale and the positions a stream rarely hits."""

    def test_leg_and_undo_cycle_matches_rebuild(self):
        spec = EdgeStreamSpec(
            graph="ba:300:4:1", batches=25, inserts_per_batch=20,
            deletes_per_batch=20, seed=2,
        )
        batches = spec.edge_batches()
        cycle = [(b.inserts, b.deletes) for b in batches]
        cycle += [(b.deletes, b.inserts) for b in reversed(batches)]
        delta = DeltaCSRGraph(spec.base_graph())
        n = delta.num_nodes
        live = set(delta.edges())
        for inserts, deletes in cycle:
            delta.apply(inserts=inserts, deletes=deletes)
            live = (live - set(deletes)) | set(inserts)
            reference = rebuild(n, live)
            assert_merged_matches(delta, reference)
            assert np.array_equal(delta.degrees_array, reference.degrees_array)
            assert list(delta.edges()) == list(reference.edges())
        # The full undo cancels every flip: the view is the base again.
        assert delta._dkeys.size == 0
        assert delta.indices is delta.base.indices
        assert delta.indptr is delta.base.indptr

    @pytest.mark.parametrize(
        "n, initial, inserts, deletes",
        [
            # A base with no edges receiving inserts.
            (5, [], [(0, 4), (1, 2), (3, 4)], []),
            # Row 0, row n - 1 and empty rows (1 and 4).
            (6, [(0, 2), (2, 3), (3, 5)], [(0, 1), (4, 5), (0, 5)], []),
            # Several inserts landing at one base position.
            (6, [(0, 5), (4, 5)], [(0, 1), (0, 2), (0, 3)], []),
            # Deletes that empty rows, beside inserts shifted past them.
            (5, [(0, 1), (0, 2), (3, 4)], [(2, 3), (1, 4)], [(0, 1), (0, 2)]),
            # Every edge deleted.
            (4, [(0, 1), (2, 3)], [], [(0, 1), (2, 3)]),
        ],
    )
    def test_edge_positions(self, n, initial, inserts, deletes):
        delta = DeltaCSRGraph(rebuild(n, set(initial)))
        delta.apply(inserts=inserts, deletes=deletes)
        live = (set(initial) - set(deletes)) | set(inserts)
        assert_reads_match(delta, rebuild(n, live))

    def test_view_built_once_per_version(self):
        delta = DeltaCSRGraph(Graph(5, [(0, 1), (1, 2), (2, 3)]))
        assert delta.indices is delta.base.indices  # version 0 serves the base
        delta.apply(inserts=[(0, 4)], deletes=[(1, 2)])
        indptr, indices = delta.indptr, delta.indices
        assert delta.indptr is indptr and delta.indices is indices
        delta.apply(inserts=[(1, 2)])
        assert delta.indptr is not indptr and delta.indices is not indices
        assert_reads_match(delta, rebuild(5, {(0, 1), (1, 2), (2, 3), (0, 4)}))


class TestValidationAndVersioning:
    @pytest.fixture()
    def delta(self):
        return DeltaCSRGraph(Graph(5, [(0, 1), (1, 2), (2, 3)]))

    def test_insert_present_rejected(self, delta):
        with pytest.raises(GraphError, match=r"insert \(0, 1\)"):
            delta.apply(inserts=[(1, 0)])

    def test_delete_absent_rejected(self, delta):
        with pytest.raises(GraphError, match=r"delete \(0, 4\)"):
            delta.apply(deletes=[(4, 0)])

    def test_duplicate_in_batch_rejected(self, delta):
        with pytest.raises(GraphError, match="duplicate"):
            delta.apply(inserts=[(0, 3), (3, 0)])

    def test_insert_delete_clash_rejected(self, delta):
        with pytest.raises(GraphError, match="both inserts and deletes"):
            delta.apply(inserts=[(0, 1)], deletes=[(0, 1)])

    def test_out_of_range_and_self_loop_rejected(self, delta):
        with pytest.raises(GraphError, match="out of range"):
            delta.apply(inserts=[(0, 5)])
        with pytest.raises(GraphError, match="self-loop"):
            delta.apply(inserts=[(2, 2)])

    def test_non_integer_ids_rejected(self, delta):
        """Regression: the int64 cast truncated (2.9, 4) to the edge (2, 4)."""
        with pytest.raises(GraphError, match=r"got 2\.9 \(float\) in edge \(2\.9, 4\)"):
            delta.apply(inserts=[(2.9, 4)])
        with pytest.raises(GraphError, match=r"got True \(bool\) in edge \(True, 3\)"):
            delta.apply(deletes=[(True, 3)])
        with pytest.raises(GraphError, match="node ids must be integers"):
            delta.apply(inserts=np.array([[0.0, 3.0]]))
        assert delta.version == 0 and not delta.has_edge(2, 4)
        # NumPy integer scalars and arrays still pass.
        delta.apply(inserts=[(np.int32(0), np.uint8(3))])
        delta.apply(inserts=np.array([[0, 4]], dtype=np.int16))
        assert delta.has_edge(0, 3) and delta.has_edge(0, 4)

    def test_failed_batch_leaves_overlay_untouched(self, delta):
        before = (delta.version, delta.num_edges, list(delta.edges()))
        with pytest.raises(GraphError):
            delta.apply(inserts=[(0, 3)], deletes=[(0, 4)])
        assert (delta.version, delta.num_edges, list(delta.edges())) == before

    def test_version_monotone_and_compact_noop(self, delta):
        assert delta.version == 0
        assert delta.apply(inserts=[(0, 2)]) == 1
        assert delta.apply(deletes=[(0, 2)]) == 2
        assert delta.apply() == 2  # empty batch: no version bump
        delta.compact()
        assert delta.version == 3
        base = delta.base
        assert delta.compact() is base  # clean overlay: no-op
        assert delta.version == 3


class TestBackendIntegration:
    def test_as_backend_noop_is_identity(self):
        # Regression: the no-op fast path must return the same object,
        # not an equal copy (callers rely on cache identity).
        graph = Graph(4, [(0, 1), (1, 2)])
        csr = CSRGraph.from_graph(graph)
        delta = DeltaCSRGraph(csr)
        assert as_backend(graph, "list") is graph
        assert as_backend(csr, "csr") is csr
        assert as_backend(delta, "csr") is delta  # subclass counts as csr
        assert as_backend(delta, "delta") is delta

    def test_as_backend_delta_wraps(self):
        graph = Graph(4, [(0, 1), (1, 2)])
        delta = as_backend(graph, "delta")
        assert isinstance(delta, DeltaCSRGraph)
        assert delta.num_edges == 2

    def test_estimation_on_clean_overlay_matches_base(self, karate):
        # A clean overlay is bit-transparent: the batched kernels gather
        # the base arrays and produce the identical estimate.
        csr = CSRGraph.from_graph(karate)
        delta = DeltaCSRGraph(csr)
        assert batch_support(delta)[0]
        spec = MethodSpec.parse("SRW2CSS", 4)
        on_base = run_estimation(csr, spec, 6_000, rng=random.Random(3), chains=8)
        on_delta = run_estimation(delta, spec, 6_000, rng=random.Random(3), chains=8)
        assert np.array_equal(on_base.concentrations, on_delta.concentrations)

    def test_exact_truth_follows_mutation(self):
        # A batch that keeps the edge count must not serve the previous
        # version's cached ground truth.
        delta = DeltaCSRGraph(barabasi_albert(60, 3, seed=1))
        before = exact_counts_cached(delta, 3)
        delta.apply(inserts=[(0, 1)], deletes=[(0, 3)])
        after = exact_counts(delta, 3)
        assert after != before
        assert exact_counts_cached(delta, 3) == after
        truth = exact_concentrations(delta, 3)
        assert exact_concentrations_cached(delta, 3) == truth
        estimate = repro.estimate(delta, "exact", k=3)
        assert estimate.concentrations.tolist() == [truth[0], truth[1]]

    def test_estimation_after_churn_matches_compacted(self):
        # After updates, walking the overlay == walking the compacted
        # snapshot: the merged view is the only thing the kernels see.
        graph = barabasi_albert(150, 3, seed=4)
        delta = DeltaCSRGraph(graph)
        rng = random.Random(9)
        live = set(delta.edges())
        inserts = []
        while len(inserts) < 10:
            u, v = rng.randrange(150), rng.randrange(150)
            edge = (min(u, v), max(u, v))
            if u != v and edge not in live and edge not in inserts:
                inserts.append(edge)
        deletes = rng.sample(sorted(live), 10)
        delta.apply(inserts=inserts, deletes=deletes)
        spec = MethodSpec.parse("SRW1CSSNB", 3)
        on_delta = run_estimation(delta, spec, 4_000, rng=random.Random(5), chains=4)
        snapshot = delta.copy()
        on_snap = run_estimation(snapshot, spec, 4_000, rng=random.Random(5), chains=4)
        assert np.array_equal(on_delta.concentrations, on_snap.concentrations)
