"""Property-based tests for the vectorized CSS fast path.

The batched CSS pipeline re-implements the statistically load-bearing
math of Algorithm 3 — window classification, template enumeration, and
the ``p~(X)`` weighting — so these tests pin every stage to its serial
reference on *arbitrary* random graphs (hypothesis), not curated
fixtures:

* ``|C(s)| = alpha_i^k`` for random labeled connected patterns (the
  Definition 3 identity the weight table's padding relies on);
* vectorized window bitmasks == the per-edge Python classification;
* compiled weight-table evaluation == :func:`sampling_weight` **bit for
  bit** (the contract behind the batched estimator's exact parity);
* whole batched runs (vectorized vs per-chain Python accumulators) on
  random graphs, bit-identical sums.

CI runs these under the derandomized ``ci`` hypothesis profile (see
``tests/conftest.py``) so the suite cannot flake.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import _batched_python, _batched_vectorized

from repro.core.alpha import alpha_table
from repro.core.css import CSSWeightTable, css_templates, css_weight_table, sampling_weight
from repro.core.estimator import MethodSpec
from repro.graphlets import (
    classification_table,
    classify_bitmask,
    classify_by_signature,
    induced_bitmask,
    is_connected_mask,
)
from repro.graphs import CSRGraph, Graph
from repro.walks import BatchedWalkEngine
from repro.walks.windows import (
    distinct_window_nodes,
    induced_bitmasks,
    state_degrees,
)


@st.composite
def connected_graphs(draw, min_nodes=5, max_nodes=14):
    """Random connected graphs: a random tree plus random extra edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    rng = random.Random(draw(st.integers(0, 10_000)))
    edges = [(rng.randrange(i), i) for i in range(1, n)]  # random tree
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def random_connected_subset(graph, k, rng):
    """A sorted k-node subset inducing a connected subgraph (or None)."""
    for _ in range(200):
        nodes = sorted(rng.sample(range(graph.num_nodes), k))
        if graph.is_connected_subset(nodes):
            return nodes
    return None


class TestTemplateCounts:
    @given(st.integers(0, 2**10 - 1), st.sampled_from([(3, 1), (4, 1), (4, 2), (5, 2)]))
    @settings(max_examples=60, deadline=None)
    def test_template_count_equals_alpha(self, raw, kd):
        """|C(s)| = alpha_i^k on arbitrary *labeled* masks, not just the
        canonical certificate each type is cataloged under."""
        k, d = kd
        mask = raw & ((1 << (k * (k - 1) // 2)) - 1)
        if not is_connected_mask(mask, k):
            return
        type_index = classify_bitmask(mask, k)
        assert len(css_templates(mask, k, d)) == alpha_table(k, d)[type_index]

    @given(st.integers(0, 2**10 - 1), st.sampled_from([3, 4, 5]))
    @settings(max_examples=60, deadline=None)
    def test_classification_table_matches_classifiers(self, raw, k):
        """The dense gather table agrees with both serial classifiers."""
        mask = raw & ((1 << (k * (k - 1) // 2)) - 1)
        table = classification_table(k)
        if is_connected_mask(mask, k):
            assert table[mask] == classify_bitmask(mask, k)
            assert table[mask] == classify_by_signature(mask, k)
        else:
            assert table[mask] == -1


class TestVectorizedWindows:
    @given(connected_graphs(), st.integers(3, 5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_bitmasks_match_per_edge_classification(self, graph, k, seed):
        """Batched searchsorted probes == the serial neighbor-set loop."""
        csr = CSRGraph.from_graph(graph)
        rng = random.Random(seed)
        rows = [
            sorted(rng.sample(range(graph.num_nodes), k))
            for _ in range(12)
            if graph.num_nodes >= k
        ]
        if not rows:
            return
        uniq = np.asarray(rows, dtype=np.int64)
        masks = induced_bitmasks(csr, uniq, k)
        for row, mask in zip(rows, masks.tolist()):
            assert mask == induced_bitmask(graph, row)

    @given(
        st.integers(2, 6),
        st.lists(st.lists(st.integers(0, 9), min_size=4, max_size=4), min_size=1, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_distinct_window_nodes_matches_multiset_logic(self, k, rows):
        """Row-wise dedup == the serial window's node-multiset dict."""
        arr = np.asarray(rows, dtype=np.int64)
        valid, uniq = distinct_window_nodes(arr, k)
        expected = [sorted(set(row)) for row in rows]
        assert list(valid) == [len(nodes) == k for nodes in expected]
        assert [list(r) for r in uniq] == [n for n in expected if len(n) == k]


class TestWeightTable:
    @pytest.mark.parametrize("nb", [False, True])
    @given(
        graph=connected_graphs(min_nodes=6),
        kd=st.sampled_from([(3, 1), (4, 1), (4, 2), (5, 2)]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_weights_match_sampling_weight_bitwise(self, graph, kd, seed, nb):
        """Compiled evaluation == sampling_weight to the last bit (the
        serial division/summation order is reproduced exactly)."""
        k, d = kd
        if graph.num_nodes < k:
            return
        csr = CSRGraph.from_graph(graph)
        rng = random.Random(seed)
        rows = []
        for _ in range(8):
            nodes = random_connected_subset(graph, k, rng)
            if nodes is not None:
                rows.append(nodes)
        if not rows:
            return
        uniq = np.asarray(rows, dtype=np.int64)
        masks = induced_bitmasks(csr, uniq, k)
        table = css_weight_table(k, d)
        got = table.weights(
            masks, uniq, lambda ids: state_degrees(csr, ids, d, nominal=nb)
        )

        def degree_of_state(state):
            if d == 1:
                degree = graph.degree(state[0])
            else:
                degree = graph.degree(state[0]) + graph.degree(state[1]) - 2
            if nb:
                return degree - 1 if degree > 1 else 1
            return degree

        for row, mask, value in zip(rows, masks.tolist(), got.tolist()):
            assert value == sampling_weight(mask, row, k, d, degree_of_state)

    def test_rejects_invalid_shapes(self):
        with pytest.raises(ValueError):
            CSSWeightTable(4, 4)  # d >= k
        with pytest.raises(ValueError):
            CSSWeightTable(3, 2)  # l = 2: CSS degenerates to basic

    def test_lazy_compilation_saturates(self, karate):
        table = CSSWeightTable(3, 1)
        assert table.max_templates == 0
        csr = CSRGraph.from_graph(karate)
        uniq = np.asarray([[0, 1, 2]], dtype=np.int64)
        masks = induced_bitmasks(csr, uniq, 3)
        table.ensure(masks)
        assert table.max_templates > 0
        before = table.max_templates
        table.ensure(masks)  # idempotent
        assert table.max_templates == before


class TestBatchedRunParity:
    @given(
        connected_graphs(min_nodes=6),
        st.sampled_from(["SRW1CSS", "SRW1CSSNB", "SRW2CSS"]),
        st.integers(0, 1_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_vectorized_css_equals_python_accumulators(self, graph, method, seed):
        """Whole-run bit parity on random graphs: same windows, same
        weights, same per-(chain, type) addition order."""
        k = 3 if method.startswith("SRW1") else 4
        spec = MethodSpec.parse(method, k)
        csr = CSRGraph.from_graph(graph)
        alphas = alpha_table(spec.k, spec.d)
        budgets = [81, 80, 80]
        engines = [
            BatchedWalkEngine(
                csr, spec.d, 3, np.random.default_rng(seed),
                non_backtracking=spec.nb,
            )
            for _ in range(2)
        ]
        s1, c1, v1 = _batched_python(csr, spec, alphas, budgets, engines[0], 0)
        s2, c2, v2 = _batched_vectorized(csr, spec, alphas, budgets, engines[1], 0)
        assert np.array_equal(c1, c2)
        assert v1 == v2
        assert np.array_equal(s1, s2)
