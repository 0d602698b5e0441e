"""Full-batch-width parity against the tests-side oracle.

:mod:`reference` holds the per-chain Python accumulators — the slow,
obviously-correct reading of Algorithm 1.  These tests pin the
production :class:`~repro.core.estimator._VectorizedAccumulator` to it
bit for bit at B = 256 chains on a ~1e4-edge graph, where blocking,
partial rows and the fused d = 3 kernel all come into play:

* d = 2 with CSS (Algorithm 3's compiled weight table);
* fused d = 3 (the production default) against the oracle driven by the
  *unfused* swap-frontier engine on the same RNG stream — kernel fusion
  must be a pure throughput move.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference import _batched_python, _batched_vectorized

from repro.core.alpha import alpha_table
from repro.core.estimator import MethodSpec, split_budget
from repro.graphs import CSRGraph, barabasi_albert
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
