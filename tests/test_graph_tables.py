"""Graph-owned lookup tables (repro.graphs.tables): one build per graph
version shared by every engine, bitmap-backed ``has_edges``, no
reference cycle between graph and kernel, and pickles that carry only
a graph's defining state."""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

import repro
from repro.exact import triads
from repro.graphs import (
    CSRGraph,
    DeltaCSRGraph,
    GraphError,
    JitCSRGraph,
    MmapCSRGraph,
    barabasi_albert,
)
from repro.graphs import tables
from repro.streaming import EdgeStreamSpec
from repro.walks import BatchedWalkEngine

TABLE_FIELDS = ("keys", "tri", "bits", "cand")


def ba_csr(n=300, m=4, seed=1) -> CSRGraph:
    return CSRGraph.from_graph(barabasi_albert(n, m, seed=seed))


def random_pairs(n, size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=size), rng.integers(0, n, size=size)


def g3_tables(graph):
    """The graph's tables with their G(3) part built."""
    held = graph._edge_tables()
    assert held.build_g3()
    return held


def assert_tables_match(got, want) -> None:
    """Equal values and dtypes, C-contiguous, like a fresh build."""
    assert got is not None and want is not None
    for field in TABLE_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.flags.c_contiguous, field
        assert np.array_equal(a, b), field
    assert got.words == want.words


class TestOneBuildPerGraph:
    def test_successive_estimates_share_the_triangle_table(self, monkeypatch):
        calls = {"n": 0}
        original = triads.edge_triangle_counts

        def counted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(triads, "edge_triangle_counts", counted)
        kwargs = dict(k=4, budget=1_600, chains=16, backend="csr")
        graph = ba_csr()
        warm = [repro.estimate(graph, "srw3", seed=s, **kwargs) for s in (3, 4)]
        assert calls["n"] == 1
        fresh = [repro.estimate(ba_csr(), "srw3", seed=s, **kwargs) for s in (3, 4)]
        assert calls["n"] == 3
        for a, b in zip(warm, fresh):
            assert np.array_equal(a.sums, b.sums)
            assert np.array_equal(a.concentrations, b.concentrations)

    def test_engines_on_one_graph_read_the_same_tables(self):
        graph = ba_csr()
        engines = [
            BatchedWalkEngine(graph, 3, 4, np.random.default_rng(s)) for s in (0, 1)
        ]
        for engine in engines:
            engine.step_block(3)
        held = graph._tables
        assert held is not None and held.g3
        assert g3_tables(graph) is held

    def test_delta_stream_tables_track_every_version(self):
        spec = EdgeStreamSpec(
            graph="ba:300:4:1", batches=25, inserts_per_batch=20,
            deletes_per_batch=20, seed=2,
        )
        batches = spec.edge_batches()
        cycle = [(b.inserts, b.deletes) for b in batches]
        cycle += [(b.deletes, b.inserts) for b in reversed(batches)]
        delta = DeltaCSRGraph(spec.base_graph())
        us, vs = random_pairs(delta.num_nodes, 2_000)
        engine = BatchedWalkEngine(delta, 3, 4, np.random.default_rng(0))
        before = g3_tables(delta)
        for inserts, deletes in cycle:
            delta.apply(inserts=inserts, deletes=deletes)
            assert delta._tables is None  # the version bump drops them
            engine.step_block(2)  # rebuilds them for the new version
            got = delta._tables
            assert got is not before
            reference = CSRGraph(*delta._merged())
            assert_tables_match(got, g3_tables(reference))
            # The overlay's probes agree with a from-scratch graph's.
            assert np.array_equal(delta.has_edges(us, vs), reference.has_edges(us, vs))
            before = got


class TestBitmapProbes:
    def test_bitmap_answers_equal_the_key_search(self):
        graph, plain = ba_csr(), ba_csr()
        assert g3_tables(graph).bits is not None
        assert plain._edge_tables().bits is None
        us, vs = random_pairs(graph.num_nodes, 20_000)
        # Mix in real edges so both answers occur often.
        rows = np.repeat(np.arange(graph.num_nodes), graph.degrees_array)
        us = np.concatenate([us, rows, graph.indices])
        vs = np.concatenate([vs, graph.indices, rows])
        got = graph.has_edges(us, vs)
        assert got.dtype == bool and got.any() and not got.all()
        assert np.array_equal(got, plain.has_edges(us, vs))

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (300, 0), (0, 300), (2**40, 0)])
    def test_bitmap_keeps_the_bounds_check(self, u, v):
        graph = ba_csr()
        assert g3_tables(graph).bits is not None
        with pytest.raises(GraphError, match="out of range"):
            graph.has_edges(np.array([0, u]), np.array([1, v]))

    def test_graph_over_the_bitmap_cap_probes_its_keys(self, monkeypatch):
        monkeypatch.setattr(tables, "MAX_BITMAP_WORDS", 0)
        graph, plain = ba_csr(), ba_csr()
        assert graph._edge_tables().build_g3() and graph._tables.bits is None
        us, vs = random_pairs(graph.num_nodes, 5_000)
        assert np.array_equal(graph.has_edges(us, vs), plain.has_edges(us, vs))

    def test_graph_over_the_probe_cap_walks_unfused(self, monkeypatch):
        monkeypatch.setattr(tables, "MAX_TRI_PROBES", 0)
        graph = ba_csr()
        gated = BatchedWalkEngine(graph, 3, 4, np.random.default_rng(0))
        generic = BatchedWalkEngine(ba_csr(), 3, 4, np.random.default_rng(0), fused=False)
        assert np.array_equal(gated.step_block(5), generic.step_block(5))
        assert graph._tables.g3 is False and graph._tables.bits is None

    def test_walk_k3_path_never_builds_a_bitmap(self):
        graph = ba_csr()
        repro.estimate(
            graph, "srw1cssnb", k=3, budget=2_000, chains=8, seed=0, backend="csr"
        )
        assert graph._tables is not None  # window probes built the keys
        assert graph._tables.bits is None and graph._tables.g3 is None


def plain_search(keys: np.ndarray, us, vs, n: int) -> np.ndarray:
    """Adjacency by one unordered ``searchsorted`` over sorted keys."""
    probes = np.asarray(us, dtype=np.int64) * (n + 1) + np.asarray(vs, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, probes), max(keys.size - 1, 0))
    return keys[pos] == probes if keys.size else np.zeros(probes.size, dtype=bool)


def probe_batches(graph, seed=0):
    """Probe batches of every shape the ordered search must survive."""
    n = graph.num_nodes
    us, vs = random_pairs(n, 5_000, seed)
    rows = np.repeat(np.arange(n), graph.degrees_array)
    pick = np.random.default_rng(seed).integers(0, rows.size, 2_000)
    few = np.random.default_rng(seed + 1).integers(0, 6, 3_000)
    edge_u, edge_v = rows[pick[:6]], graph.indices[pick[:6]]
    cut = tables.ORDERED_MIN_PROBES
    return {
        "random": (us, vs),
        # Real edges mixed in, so both answers occur often.
        "mixed": (np.r_[us, rows[pick]], np.r_[vs, graph.indices[pick]]),
        # 3000 probes of six distinct pairs, four of them edges.
        "duplicates": (
            np.r_[edge_u[:4], us[:2]][few], np.r_[edge_v[:4], vs[:2]][few]
        ),
        "empty": (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
        "single": (rows[pick[:1]], graph.indices[pick[:1]]),
        "below-cutoff": (us[: cut - 1], vs[: cut - 1]),
        "at-cutoff": (us[:cut], vs[:cut]),
    }


def live_overlay() -> DeltaCSRGraph:
    """A BA overlay with uncompacted inserts and deletes."""
    base = ba_csr()
    overlay = DeltaCSRGraph(base)
    edges = np.array(list(base.edges()))
    rng = np.random.default_rng(3)
    dels = [tuple(e) for e in edges[rng.choice(len(edges), 30, replace=False)]]
    ins = []
    while len(ins) < 30:
        u, v = sorted(int(x) for x in rng.choice(base.num_nodes, 2, replace=False))
        if not base.has_edge(u, v) and (u, v) not in ins:
            ins.append((u, v))
    overlay.apply(inserts=ins, deletes=dels)
    return overlay


class TestOrderedSearch:
    """``has_edges`` searches the key table in probe order; its answers
    must be those of one plain ``searchsorted`` on every backend."""

    @pytest.fixture(scope="class")
    def backends(self, tmp_path_factory):
        csr = ba_csr()
        directory = tmp_path_factory.mktemp("ordered") / "layout"
        csr.save(directory)
        return {
            "csr": csr,
            "delta": live_overlay(),
            "mmap": MmapCSRGraph.load(directory),
        }

    @pytest.mark.parametrize("backend", ["csr", "delta", "mmap"])
    @pytest.mark.parametrize(
        "batch",
        ["random", "mixed", "duplicates", "empty", "single", "below-cutoff", "at-cutoff"],
    )
    def test_has_edges_matches_plain_searchsorted(self, backends, backend, batch):
        graph = backends[backend]
        # The merged view's own keys: the overlay answers with its flips.
        keys = CSRGraph(graph.indptr, graph.indices)._directed_keys()
        us, vs = probe_batches(graph)[batch]
        got = graph.has_edges(us, vs)
        assert got.dtype == bool and got.shape == us.shape
        assert np.array_equal(got, plain_search(keys, us, vs, graph.num_nodes))
        assert graph._edge_tables().bits is None  # the key search answered

    def test_search_returns_leftmost_positions_in_probe_shape(self):
        held = ba_csr()._edge_tables()
        rng = np.random.default_rng(4)
        for shape in [(0,), (1,), (tables.ORDERED_MIN_PROBES - 1,), (700, 3)]:
            probes = rng.choice(held.keys[:-1], size=shape)
            probes[..., ::2] += 1  # half miss, landing between keys
            assert np.array_equal(held.search(probes), np.searchsorted(held.keys, probes))

    @pytest.mark.parametrize("backend", ["csr", "delta", "mmap"])
    @pytest.mark.parametrize("u, v", [(-1, 0), (0, 300), (2**40, 0)])
    def test_large_batches_keep_the_bounds_check(self, backends, backend, u, v):
        graph = backends[backend]
        us, vs = random_pairs(graph.num_nodes, 2 * tables.ORDERED_MIN_PROBES)
        us[-1], vs[-1] = u, v
        with pytest.raises(GraphError, match="out of range"):
            graph.has_edges(us, vs)


class TestNoCycle:
    def test_dropping_graph_and_engine_frees_the_tables(self):
        gc.disable()
        try:
            graph = ba_csr()
            engine = BatchedWalkEngine(graph, 3, 4, np.random.default_rng(0))
            engine.step_block(3)
            bits = weakref.ref(graph._tables.bits)
            tri = weakref.ref(graph._tables.tri)
            del engine, graph
            assert bits() is None and tri() is None
        finally:
            gc.enable()

    def test_estimate_keeps_no_reference_to_the_tables(self):
        gc.disable()
        try:
            graph = ba_csr()
            repro.estimate(graph, "srw3", k=4, budget=400, chains=4, seed=0, backend="csr")
            bits = weakref.ref(graph._tables.bits)
            del graph
            assert bits() is None
        finally:
            gc.enable()


def _forms():
    base = ba_csr(2000, 5, seed=0)
    absent = [(u, 1999 - u) for u in range(40) if not base.has_edge(u, 1999 - u)]
    present = (0, int(base.neighbors(0)[0]))
    delta = DeltaCSRGraph(base)
    delta.apply(inserts=absent[:2], deletes=[present])
    delta.apply(deletes=absent[:1])
    return absent[0], {
        "csr": lambda: ba_csr(2000, 5, seed=0),
        "csr-jit": lambda: JitCSRGraph(base.indptr, base.indices),
        "delta": lambda: copy.deepcopy(delta),
    }


UNDONE, FORMS = _forms()


class TestPickle:
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_warm_graph_pickles_like_a_cold_one(self, form):
        cold, warm = FORMS[form](), FORMS[form]()
        us, vs = random_pairs(warm.num_nodes, 5_000)
        warm.has_edges(us, vs)
        for v in range(0, warm.num_nodes, 7):
            warm.neighbor_set(v)
        assert g3_tables(warm).bits is not None
        blob = pickle.dumps(warm)
        assert len(blob) == len(pickle.dumps(cold))
        back = pickle.loads(blob)
        assert type(back) is type(warm)
        assert back == warm and back._tables is None
        assert np.array_equal(back.has_edges(us, vs), warm.has_edges(us, vs))
        assert np.array_equal(back.degrees_array, warm.degrees_array)
        assert back.num_edges == warm.num_edges

    def test_delta_round_trips_version_log_and_view(self):
        delta = FORMS["delta"]()
        for back in (pickle.loads(pickle.dumps(delta)), copy.deepcopy(delta)):
            assert back.version == delta.version == 2
            for a, b in zip(back.log, delta.log):
                assert np.array_equal(a, b)
            assert back.base == delta.base
            assert np.array_equal(back.indptr, delta.indptr)
            assert np.array_equal(back.indices, delta.indices)
            assert back._flipped == delta._flipped
            assert back.apply(inserts=[UNDONE]) == 3
            assert back.has_edge(*UNDONE) and not delta.has_edge(*UNDONE)

    def test_clean_delta_round_trips(self):
        delta = DeltaCSRGraph(ba_csr())
        back = pickle.loads(pickle.dumps(delta))
        assert back.version == 0 and back.delta_edges == 0 and back == delta
