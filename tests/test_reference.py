"""Parity against the tests-side oracle.

:mod:`reference` holds the per-chain Python accumulators — the slow,
obviously-correct reading of Algorithm 1.  These tests pin the
production :class:`~repro.core.estimator._VectorizedAccumulator` to it
bit for bit:

* at B = 256 chains on a ~1e4-edge graph, where blocking, partial rows
  and the fused d = 3 kernel all come into play: d = 2 with CSS
  (Algorithm 3's compiled weight table), and fused d = 3 (the
  production default) against the oracle driven by the *unfused*
  swap-frontier engine on the same RNG stream — kernel fusion must be a
  pure throughput move;
* at one chain, the paper's single crawler, on every backend: the
  serial walker's blocks must give the loop's sums, its rng draws and,
  through the crawl wrapper, its API calls.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from reference import _batched_python, _batched_vectorized, serial_python

from repro.core.alpha import alpha_table
from repro.core.estimator import MethodSpec, SRWSession, split_budget
from repro.graphs import CSRGraph, RestrictedGraph, barabasi_albert
from repro.walks import BatchedWalkEngine

CHAINS = 256


@pytest.fixture(scope="module")
def csr() -> CSRGraph:
    return CSRGraph.from_graph(barabasi_albert(2_000, 5, seed=0))


@pytest.mark.parametrize(
    "method, k, budget, oracle_fused",
    [
        ("SRW2CSS", 4, 10 * CHAINS + 97, True),
        ("SRW3", 4, 4 * CHAINS + 31, False),
    ],
)
def test_b256_vectorized_equals_oracle(csr, method, k, budget, oracle_fused):
    spec = MethodSpec.parse(method, k)
    alphas = alpha_table(spec.k, spec.d)
    budgets = split_budget(budget, CHAINS)
    oracle_engine, engine = (
        BatchedWalkEngine(
            csr, spec.d, CHAINS, np.random.default_rng(9), fused=fused
        )
        for fused in (oracle_fused, True)
    )
    s_ref, c_ref, v_ref = _batched_python(csr, spec, alphas, budgets, oracle_engine, 0)
    s_vec, c_vec, v_vec = _batched_vectorized(csr, spec, alphas, budgets, engine, 0)
    assert v_ref == v_vec > 0
    assert np.array_equal(c_ref, c_vec)
    assert np.array_equal(s_ref, s_vec)


@pytest.mark.parametrize("burn_in", [0, 7])
@pytest.mark.parametrize("backend", ["list", "csr", "restricted"])
@pytest.mark.parametrize(
    "method, k",
    [
        ("SRW1", 3), ("SRW1CSSNB", 3), ("SRW1CSS", 5), ("SRW2CSS", 4),
        ("SRW2NB", 4), ("SRW3", 3), ("SRW3", 4), ("SRW3CSS", 5), ("SRW4", 5),
    ],
)
def test_single_chain_equals_serial_loop(karate, method, k, backend, burn_in):
    graphs = {
        "list": lambda: karate,
        "csr": lambda: CSRGraph.from_graph(karate),
        "restricted": lambda: RestrictedGraph(karate, seed_node=0),
    }
    spec = MethodSpec.parse(method, k)
    budget = 150 if spec.d >= 3 else 600
    runs = []
    for run in ("oracle", "production"):
        graph, rng = graphs[backend](), random.Random(31)
        if run == "oracle":
            sums, counts, valid = serial_python(graph, spec, budget, rng, burn_in=burn_in)
        else:
            est = SRWSession(graph, spec, budget, rng=rng, burn_in=burn_in).result()
            sums, counts, valid = est.sums, est.sample_counts, est.valid_samples
        runs.append((sums, counts, valid, rng.getstate(), getattr(graph, "api_calls", None)))
    (s_ref, c_ref, v_ref, *rest_ref), (s_vec, c_vec, v_vec, *rest_vec) = runs
    assert v_ref == v_vec > 0
    assert np.array_equal(c_ref, c_vec)
    assert np.array_equal(s_ref, s_vec)
    assert rest_ref == rest_vec  # rng state and API calls
