"""Graph-owned lookup tables (repro.graphs.tables): one build per graph
version shared by every engine, bitmap-backed ``has_edges``, the exact
and lazily built probe filter, no reference cycle between graph and
kernel, pickles that carry only a graph's defining state, and
``has_edges`` rejecting ids it would truncate or broadcast."""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.exact import triads
from repro.graphs import (
    CSRGraph,
    DeltaCSRGraph,
    Graph,
    GraphError,
    MmapCSRGraph,
    barabasi_albert,
)
from repro.graphs import tables
from repro.streaming import EdgeStreamSpec
from repro.walks import BatchedWalkEngine

TABLE_FIELDS = ("keys", "tri", "bits")


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

    @pytest.mark.parametrize("nb", [False, True])
    def test_graph_over_the_bitmap_cap_walks_like_the_unfused_engine(self, monkeypatch, nb):
        monkeypatch.setattr(tables, "MAX_BITMAP_WORDS", 0)
        graph = ba_csr()
        fused, generic = (
            BatchedWalkEngine(
                graph, 3, 32, np.random.default_rng(5), non_backtracking=nb, fused=flag
            )
            for flag in (True, False)
        )
        assert np.array_equal(fused.step_block(60), generic.step_block(60))
        assert graph._tables.g3 and graph._tables.bits is None

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


@pytest.fixture(scope="module")
def backends(tmp_path_factory):
    """One BA graph as csr and mmap, and a BA overlay with live flips."""
    csr = ba_csr()
    directory = tmp_path_factory.mktemp("backends") / "layout"
    csr.save(directory)
    return {
        "csr": csr,
        "delta": live_overlay(),
        "mmap": MmapCSRGraph.load(directory),
    }


class TestOrderedSearch:
    """``has_edges`` searches the key table in probe order; its answers
    must be those of one plain ``searchsorted`` on every backend."""

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
            assert np.array_equal(back._dkeys, delta._dkeys)
            assert np.array_equal(back._dalive, delta._dalive)
            assert back.apply(inserts=[UNDONE]) == 3
            assert back.has_edge(*UNDONE) and not delta.has_edge(*UNDONE)

    def test_clean_delta_round_trips(self):
        delta = DeltaCSRGraph(ba_csr())
        back = pickle.loads(pickle.dumps(delta))
        assert back.version == 0 and back.delta_edges == 0 and back == delta


# ----------------------------------------------------------------------
# The probe filter
# ----------------------------------------------------------------------
@st.composite
def edge_sets(draw):
    """A node count and a random simple edge set over it (maybe empty)."""
    n = draw(st.integers(1, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=120)) if pairs else []
    return n, picked


def set_graph(n, edges):
    """The CSR graph of ``edges`` and its directed edge set."""
    graph = CSRGraph.from_graph(Graph(n, edges))
    return graph, set(edges) | {(v, u) for u, v in edges}


def corner_probes(n, edges, rng, size=600):
    """Random probes plus ids 0 and n − 1, ``u == v`` and every edge in
    both orientations."""
    us, vs = random_pairs(n, size, seed=int(rng.integers(2**31)))
    ends = [0, n - 1]
    extra = [(a, b) for a in ends for b in ends] + [(u, u) for u in range(n)]
    extra += [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    return np.r_[us, [a for a, _ in extra]], np.r_[vs, [b for _, b in extra]]


def assert_matches_set(graph, truth, us, vs):
    got = graph.has_edges(us, vs)
    want = [(int(u), int(v)) in truth for u, v in zip(us, vs)]
    assert got.dtype == bool and got.shape == us.shape
    assert got.tolist() == want


def absent_pair(graph):
    """The first non-edge ``(0, v)`` of ``graph``."""
    v = next(v for v in range(1, graph.num_nodes) if not graph.has_edge(0, v))
    return 0, v


def one_word_filter(held):
    """A real filter built at one uint32 word: every key collides."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "FILTER_BITS_PER_KEY", 0)
        return held._build_filter()


class TestProbeFilterExactness:
    """The filter only ever skips the key search for non-edges: every
    answer equals set membership, and the key search alone decides the
    probes that pass."""

    @given(edge_sets(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_filtered_has_edges_equals_a_set_of_edges(self, drawn, seed):
        n, edges = drawn
        graph, truth = set_graph(n, edges)
        us, vs = corner_probes(n, edges, np.random.default_rng(seed))
        assert_matches_set(graph, truth, us, vs)
        assert graph._tables.filter is not None
        for u, v in zip(us[:20].tolist(), vs[:20].tolist()):
            got = graph.has_edges(np.int64(u), np.int64(v))
            assert got.shape == () and bool(got) == ((u, v) in truth)

    @pytest.mark.parametrize(
        "edges, words", [([], 1), ([(0, 4)], 2)], ids=["edgeless", "one-edge"]
    )
    def test_tiny_graphs(self, edges, words):
        graph, truth = set_graph(5, edges)
        us, vs = np.meshgrid(np.arange(5), np.arange(5))
        assert_matches_set(graph, truth, us.ravel(), vs.ravel())
        # 2**5 bits at least; 40 bits for the one edge's two keys -> 2**6.
        assert graph._tables.filter.size == words

    @pytest.mark.parametrize("forced", ["all-ones", "one-word"])
    @pytest.mark.parametrize(
        "size", [1, tables.ORDERED_MIN_PROBES - 1, tables.ORDERED_MIN_PROBES, 5_000]
    )
    def test_key_search_alone_decides_passing_probes(self, forced, size):
        graph = ba_csr()
        held = graph._edge_tables()
        if forced == "all-ones":
            held.filter = np.full(4, np.uint32(0xFFFFFFFF))
        else:
            held.filter = one_word_filter(held)
            assert held.filter.size == 1
        _, truth = set_graph(graph.num_nodes, list(graph.edges()))
        us, vs = probe_batches(graph)["mixed"]
        us, vs = us[-size:], vs[-size:]
        assert_matches_set(graph, truth, us, vs)

    def test_every_key_sets_its_bit(self):
        held = ba_csr(2000, 10, seed=0)._edge_tables()
        filt = held._build_filter()
        word, bit = tables._filter_slots(held.keys[:-1], filt)
        assert np.all(filt[word] & bit)
        assert filt.size == 1 << (int(20 * (held.keys.size - 1) - 1).bit_length() - 5)

    def test_chunked_build_equals_one_shot(self, monkeypatch):
        held = ba_csr(2000, 10, seed=0)._edge_tables()
        chunked = held._build_filter()
        monkeypatch.setattr(tables, "_FILTER_CHUNK", held.keys.size)
        assert np.array_equal(held._build_filter(), chunked)

    def test_few_non_edges_pass(self):
        """Count guard: at 20 bits per key, under 8% of random non-edge
        probes reach the key search."""
        graph = CSRGraph.from_graph(barabasi_albert(2000, 10, seed=0))
        held = graph._edge_tables()
        filt = held._build_filter()
        us, vs = random_pairs(graph.num_nodes, 120_000, seed=5)
        miss = ~graph.has_edges(us, vs)
        probes = (us * held.stride + vs)[miss][:100_000]
        assert probes.size == 100_000
        word, bit = tables._filter_slots(probes, filt)
        assert np.count_nonzero(filt[word] & bit) < 8_000


class TestProbeFilterLifetime:
    def test_absent_until_the_first_keyed_has_edges(self):
        graph = ba_csr()
        assert graph._edge_tables().filter is None
        graph.has_edges(*random_pairs(graph.num_nodes, 10))
        filt = graph._tables.filter
        assert filt is not None
        graph.has_edges(*random_pairs(graph.num_nodes, 10, seed=1))
        assert graph._tables.filter is filt  # built once

    def test_key_readers_and_bitmap_probes_never_build_it(self, monkeypatch):
        built = []
        original = tables.EdgeTables._build_filter

        def counted(self):
            built.append(self)
            return original(self)

        monkeypatch.setattr(tables.EdgeTables, "_build_filter", counted)
        graph = ba_csr()
        graph._directed_keys()
        assert g3_tables(graph).bits is not None
        graph.has_edges(*random_pairs(graph.num_nodes, 5_000))
        assert built == []
        # The delta splice reads its base's keys only.  (Validating the
        # batch probes the base, which may build the base's filter.)
        delta = DeltaCSRGraph(ba_csr())
        delta.apply(inserts=[absent_pair(delta)])
        built.clear()
        delta._directed_keys()
        fresh = delta.compact()
        assert built == [] and delta._tables is None and fresh._tables is None

    def test_delta_apply_and_compact_drop_it(self):
        gc.disable()
        try:
            delta = DeltaCSRGraph(ba_csr())
            us, vs = random_pairs(delta.num_nodes, 1_000)
            delta.has_edges(us, vs)  # builds the base's filter
            base_filter = weakref.ref(delta.base._tables.filter)
            delta._edge_tables().has_edges(us, vs)  # the merged view's
            merged_filter = weakref.ref(delta._tables.filter)
            delta.apply(inserts=[absent_pair(delta)])
            assert delta._tables is None and merged_filter() is None
            assert base_filter() is not None  # the base did not change
            delta.compact()
            assert base_filter() is None
            assert delta.base._tables is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_no_pickle_or_deep_copy_carries_it(self, form):
        cold, graph = FORMS[form](), FORMS[form]()
        us, vs = random_pairs(graph.num_nodes, 5_000)
        want = graph.has_edges(us, vs)
        # An overlay probes through its base's tables.
        filt = getattr(graph, "base", graph)._tables.filter
        assert filt is not None
        assert len(pickle.dumps(graph)) == len(pickle.dumps(cold))
        for back in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
            assert back._tables is None
            # Restoring an overlay replays its log, which may probe (and
            # so filter) the restored base afresh; it never shares ours.
            held = getattr(back, "base", back)._tables
            assert held is None or held.filter is not filt
            assert np.array_equal(back.has_edges(us, vs), want)

    def test_freed_with_its_graph(self):
        gc.disable()
        try:
            graph = ba_csr()
            graph.has_edges(*random_pairs(graph.num_nodes, 1_000))
            filt = weakref.ref(graph._tables.filter)
            del graph
            assert filt() is None
        finally:
            gc.enable()


class TestHostileProbeIds:
    """``has_edges`` rejects ids it would otherwise truncate, alias or
    broadcast, before casting them, on every backend."""

    @pytest.mark.parametrize("backend", ["csr", "delta", "mmap"])
    @pytest.mark.parametrize(
        "us, vs",
        [
            ([0.9], [1.0]),
            (np.array([0.0, 1.0]), np.array([1, 2])),
            (np.array([0, 1]), np.array([1.5, 2.0])),
            (np.array([True]), np.array([False])),
            (np.array([0]), np.array([True])),
            (np.array(["0"]), np.array(["1"])),
            (np.array([0], dtype=object), np.array([1], dtype=object)),
        ],
        ids=["float-list", "float-us", "float-vs", "bool", "bool-vs", "str", "object"],
    )
    def test_non_integer_ids_raise(self, backends, backend, us, vs):
        with pytest.raises(GraphError, match="node ids must be integers"):
            backends[backend].has_edges(us, vs)

    @pytest.mark.parametrize("backend", ["csr", "delta", "mmap"])
    @pytest.mark.parametrize(
        "shapes", [((3, 1), (3,)), ((1,), (3,)), ((), (2,)), ((2, 3), (3, 2))]
    )
    def test_unequal_shapes_raise(self, backends, backend, shapes):
        us, vs = (np.zeros(shape, dtype=np.int64) for shape in shapes)
        with pytest.raises(GraphError, match="differ in shape"):
            backends[backend].has_edges(us, vs)

    @pytest.mark.parametrize("backend", ["csr", "delta", "mmap"])
    def test_integer_ids_of_any_width_and_shape_answer(self, backends, backend):
        graph = backends[backend]
        us, vs = random_pairs(graph.num_nodes, 600)
        want = graph.has_edges(us, vs)
        for dtype in (np.int32, np.uint16, np.uint64):
            got = graph.has_edges(us.astype(dtype), vs.astype(dtype))
            assert np.array_equal(got, want)
        grid = graph.has_edges(us.reshape(20, 30), vs.reshape(20, 30))
        assert grid.shape == (20, 30) and np.array_equal(grid.ravel(), want)
        assert graph.has_edges([], []).size == 0

    @pytest.mark.parametrize("backend", ["csr", "delta", "mmap"])
    def test_zero_d_ids(self, backends, backend):
        """0-d ids answer 0-d, flips included, and out-of-range ones raise
        ``GraphError`` (they raised ``IndexError``, and a 0-d probe of an
        overlay's flipped pair a ``TypeError``)."""
        graph = backends[backend]
        pairs = [(0, 1), (0, 299), (5, 5)]
        if backend == "delta":
            stride = graph.num_nodes + 1
            pairs += [divmod(int(key), stride) for key in graph._dkeys]
        for u, v in pairs:
            got = graph.has_edges(np.int64(u), np.int64(v))
            assert got.shape == () and bool(got) == graph.has_edge(u, v)
        with pytest.raises(GraphError, match="out of range"):
            graph.has_edges(np.int64(0), np.int64(graph.num_nodes))
