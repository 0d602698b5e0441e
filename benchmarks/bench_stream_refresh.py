"""Incremental refresh vs cold re-estimation on an edge stream (ISSUE 7).

Not a paper table — this pins the wall-clock claim of the streaming
subsystem: after an update batch, a :class:`repro.ContinuousSession`
keeps its walk chains warm (re-projecting only the chains the batch
touched) and spends ``REFRESH_STEPS`` new walk steps, while the cold
baseline re-runs the whole estimation from scratch at the session's
cumulative budget to reach a comparable-quality answer on the updated
graph.

Asserted claims on a BA(400, 3) base graph churned through
``BATCHES`` seeded insert/delete rounds: the warm refresh sequence is
bit-identical when replayed from the same seed, and the mean
refresh latency is >= 5x lower than cold re-estimation at the matched
chain count and cumulative budget (measured ~8x; see ``extra_info``).
"""

from __future__ import annotations

import time

import numpy as np
from conftest import emit

from repro.estimators import estimate as run_cold_estimate
from repro.evaluation import format_table
from repro.streaming import ContinuousSession, EdgeStreamSpec

BASE_GRAPH = "ba:400:3:5"
BATCHES = 20
CHURN = 12
STREAM_SEED = 0
METHOD = "SRW1"
K = 3
CHAINS = 8
REFRESH_STEPS = 2_000
WALK_SEED = 7
MIN_SPEEDUP = 5.0


def _stream() -> EdgeStreamSpec:
    return EdgeStreamSpec(
        graph=BASE_GRAPH,
        batches=BATCHES,
        inserts_per_batch=CHURN,
        deletes_per_batch=CHURN,
        seed=STREAM_SEED,
    )


def _prime() -> None:
    """Exercise the update + refresh paths once on a throwaway session
    so the timed run measures steady-state latency, not first-call numpy
    setup costs."""
    tiny = EdgeStreamSpec(
        graph="ba:60:3:1", batches=1, inserts_per_batch=3,
        deletes_per_batch=3, seed=1,
    )
    session = ContinuousSession(
        tiny.base_graph(), METHOD, k=K, chains=CHAINS,
        refresh_budget=CHAINS, seed=0,
    )
    session.refresh()
    batch = tiny.edge_batches()[0]
    session.apply_updates(inserts=batch.inserts, deletes=batch.deletes)
    session.refresh()


def _warm_run(stream: EdgeStreamSpec):
    """Play the whole stream through one warm session.

    Returns per-batch wall-clock latencies (apply + refresh), the
    matched cumulative budget per batch, and every refreshed
    concentration vector (for the replay bit-identity check).
    """
    session = ContinuousSession(
        stream.base_graph(),
        METHOD,
        k=K,
        chains=CHAINS,
        refresh_budget=REFRESH_STEPS,
        seed=WALK_SEED,
    )
    answers = [session.refresh().concentrations]
    latencies, budgets = [], []
    for batch in stream.edge_batches():
        start = time.perf_counter()
        session.apply_updates(inserts=batch.inserts, deletes=batch.deletes)
        answers.append(session.refresh().concentrations)
        latencies.append(time.perf_counter() - start)
        budgets.append(session.consumed)
    return latencies, budgets, answers


def test_stream_refresh_speedup(benchmark):
    _prime()
    stream = _stream()
    warm_latencies, budgets, answers = _warm_run(stream)

    # Fixed-seed determinism: replaying the identical stream through a
    # fresh session reproduces every refreshed answer bit for bit.
    _, _, replayed = _warm_run(stream)
    for first, second in zip(answers, replayed):
        assert np.array_equal(first, second)

    # Cold baseline: after each batch, re-estimate from scratch on the
    # compacted post-batch graph at the session's cumulative budget
    # (same method, chains, and vectorized CSR path; graph rebuild time
    # is excluded, which only flatters the baseline).
    replay = _stream().replay()  # fresh overlay, all batches applied
    snapshots = []
    partial = _stream()
    for upto in range(1, BATCHES + 1):
        clipped = EdgeStreamSpec(
            graph=partial.graph,
            batches=upto,
            inserts_per_batch=partial.inserts_per_batch,
            deletes_per_batch=partial.deletes_per_batch,
            seed=partial.seed,
        )
        snapshots.append(clipped.churned_graph())
    assert np.array_equal(replay.compact().indices, snapshots[-1].indices)

    cold_latencies = []
    for graph, budget in zip(snapshots, budgets):
        start = time.perf_counter()
        run_cold_estimate(
            graph, METHOD, k=K, budget=budget, seed=WALK_SEED,
            backend="csr", chains=CHAINS,
        )
        cold_latencies.append(time.perf_counter() - start)

    ratios = [c / w for c, w in zip(cold_latencies, warm_latencies)]
    mean_speedup = sum(ratios) / len(ratios)
    rows = [
        [i + 1, budgets[i], f"{warm_latencies[i] * 1e3:.1f}",
         f"{cold_latencies[i] * 1e3:.1f}", f"{ratios[i]:.1f}x"]
        for i in range(BATCHES)
    ]
    emit(
        f"Refresh latency after each update batch, {METHOD} k={K} "
        f"chains={CHAINS} on {BASE_GRAPH} (+{CHURN}/-{CHURN} edges/batch)",
        format_table(
            ["batch", "matched budget", "warm ms", "cold ms", "speedup"],
            rows,
        ),
    )
    benchmark.extra_info.update(
        {
            "mean_speedup": round(mean_speedup, 2),
            "warm_ms_mean": round(sum(warm_latencies) / BATCHES * 1e3, 2),
            "cold_ms_mean": round(sum(cold_latencies) / BATCHES * 1e3, 2),
        }
    )
    assert mean_speedup >= MIN_SPEEDUP, (
        f"incremental refresh only {mean_speedup:.1f}x faster than cold "
        f"re-estimation (need >= {MIN_SPEEDUP}x)"
    )

    # One timed pass for the benchmark table: a single warm refresh on a
    # session that has already absorbed the whole stream.
    session = ContinuousSession(
        _stream().base_graph(), METHOD, k=K, chains=CHAINS,
        refresh_budget=REFRESH_STEPS, seed=WALK_SEED,
    )
    session.refresh()
    for batch in _stream().edge_batches():
        session.apply_updates(inserts=batch.inserts, deletes=batch.deletes)
    benchmark(lambda: session.refresh())
