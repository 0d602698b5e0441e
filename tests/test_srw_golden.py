"""Fixed-seed goldens for every SRW run path.

Each case runs ``run_estimation`` on karate with a fixed seed and
compares sha256 digests of ``sums``, ``sample_counts``, ``samples`` and
``steps`` against ``srw_golden.json``.  The matrix covers both state
sources of ``SRWSession`` (serial walkers: ``chains=1`` or the list
backend; the batched engine: ``chains=3`` on CSR), burn-in, and a
mid-stream ``snapshot()`` at a ragged step count, so a refactor of the
run paths cannot move a single bit unnoticed.

The digests are a contract: regenerate them only for a change that is
*meant* to move the numbers, with::

    PYTHONPATH=src python tests/test_srw_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.estimator import MethodSpec, SRWSession, run_estimation
from repro.graphs import CSRGraph, load_dataset
from repro.walks import BatchFallbackWarning

GOLDEN = Path(__file__).with_name("srw_golden.json")

# (method, k, step budget): SRW3CSS keeps the smaller budget it was
# given when its single-chain runs evaluated d = 3 CSS degrees per
# window in Python; its digests were recorded at that budget.
METHODS = [
    ("SRW1", 3, 1_201),
    ("SRW1NB", 4, 1_201),
    ("SRW1CSSNB", 3, 1_201),
    ("SRW1CSS", 5, 1_201),
    ("SRW2", 4, 1_201),
    ("SRW2CSS", 4, 1_201),
    ("SRW2NB", 4, 1_201),
    ("SRW2CSSNB", 4, 1_201),
    ("SRW2CSSNB", 5, 1_201),
    ("SRW3", 4, 1_201),
    ("SRW3CSS", 5, 301),
    ("SRW4", 5, 1_201),
    ("SRW4NB", 5, 1_201),
]
CHAINS = (1, 3)
BACKENDS = ("list", "csr")
BURN_INS = (0, 7)
SEED = 20160901

CASES = [
    f"{method}-k{k}-n{budget}-{backend}-c{chains}-b{burn_in}"
    for method, k, budget in METHODS
    for backend in BACKENDS
    for chains in CHAINS
    for burn_in in BURN_INS
]


def _parse(case: str):
    method, k, budget, backend, chains, burn_in = case.split("-")
    return (
        method, int(k[1:]), int(budget[1:]), backend, int(chains[1:]),
        int(burn_in[1:]),
    )


def _digest(estimate) -> dict:
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    return {
        "sums": sha(np.ascontiguousarray(estimate.sums, dtype=np.float64).tobytes()),
        "sample_counts": sha(
            np.ascontiguousarray(estimate.sample_counts, dtype=np.int64).tobytes()
        ),
        "samples": sha(str(int(estimate.samples)).encode()),
        "steps": sha(str(int(estimate.steps)).encode()),
    }


_GRAPHS: dict = {}


def _graph(backend: str):
    if backend not in _GRAPHS:
        karate = load_dataset("karate")
        _GRAPHS[backend] = karate if backend == "list" else CSRGraph.from_graph(karate)
    return _GRAPHS[backend]


def run_case(case: str) -> dict:
    """Digests of the one-shot run and of a mid-stream snapshot."""
    method, k, budget, backend, chains, burn_in = _parse(case)
    graph = _graph(backend)
    spec = MethodSpec.parse(method, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BatchFallbackWarning)
        result = run_estimation(
            graph, spec, budget, rng=random.Random(SEED), burn_in=burn_in,
            chains=chains,
        )
        session = SRWSession(
            graph, spec, budget, rng=random.Random(SEED), burn_in=burn_in,
            chains=chains,
        )
        # Ragged: 3 chains stop mid-row, a single chain mid-budget.
        session.step(budget // 2 + 1)
        snapshot = session.snapshot()
    return {"result": _digest(result), "snapshot": _digest(snapshot)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_fixed_seed_digests(golden, case):
    assert run_case(case) == golden[case]


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_srw_golden.py --write")
    GOLDEN.write_text(
        json.dumps({case: run_case(case) for case in CASES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
