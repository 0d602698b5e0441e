"""Tests of the benchmark harness itself: fast, no timing assertions.

Covers the self-time arithmetic, the percentile rule, the exact-truth
cache, every workload at a tiny scale (metric names exactly as in
``BENCHMARK.json``, every span firing where it should, wrappers
restored), the empty-checkout refusal and ``compare.py``'s verdicts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import spans
import truth
import workloads
from repro.graphs import CSRGraph, barabasi_albert

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Spans each workload must fire (the layer -> workload table of README.md).
EXPECTED_SPANS = {
    "walk-k3": {
        "setup", "graphs.build", "exact.truth", "estimators.estimate",
        "estimator.accumulate", "walks.step_block", "relgraph.propose.d1",
        "windows.dedup", "windows.bitmasks", "windows.state_degrees",
        "css.weights", "graphs.has_edges",
    },
    "walk-k4": {
        "estimators.estimate", "walks.step_block", "relgraph.fused.propose",
        "relgraph.fused.ready", "windows.dedup", "windows.bitmasks",
    },
    "walk-k5": {"estimators.estimate", "walks.step_block", "relgraph.propose.frontier"},
    "serve": {
        "setup", "service.request", "service.task", "estimator.accumulate",
        "relgraph.propose.d1", "relgraph.propose.d2", "css.weights",
    },
    "stream": {
        "setup", "stream.batch", "streaming.apply_updates", "streaming.refresh",
        "graphs.delta.apply", "graphs.delta.view", "relgraph.propose.d1",
    },
}


# ----------------------------------------------------------------------
# Span arithmetic and percentiles
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    trace = [
        ("r", "root", 0.0, 10.0, None, None),
        ("a", "child", 1.0, 4.0, "r", None),
        ("b", "child", 3.0, 6.0, "r", None),  # overlaps a (another process)
        ("g", "leaf", 2.0, 3.0, "a", None),
        ("x", "child", 9.0, 12.0, "r", None),  # runs past its parent's end
    ]
    selfs = spans.self_times(trace)
    assert selfs["r"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["g"] == pytest.approx(1.0)
    summary = spans.summarize(trace)
    assert summary["child"]["calls"] == 3
    assert summary["child"]["self_s"] == pytest.approx(8.0)
    # Overlapping and overrunning children are each charged in full.
    assert sum(row["share"] for row in summary.values()) == pytest.approx(130.0)


def test_shares_of_a_nested_trace_add_up_to_100():
    trace = [
        ("r1", "root", 0.0, 4.0, None, None),
        ("c1", "child", 1.0, 2.0, "r1", None),
        ("r2", "root", 5.0, 7.0, None, None),
        ("c2", "child", 5.0, 7.0, "r2", None),
    ]
    summary = spans.summarize(trace)
    assert sum(row["share"] for row in summary.values()) == pytest.approx(100.0)
    assert summary["child"]["share"] == pytest.approx(50.0)


def test_link_requests_parents_worker_tasks_on_their_client_request():
    trace = [["w:1", "service.task", 1.0, 2.0, None, "r7"], ["w:2", "x", 1.0, 1.5, "w:1", None]]
    spans.link_requests(trace, {"r7": "c:3"})
    assert trace[0][spans.PARENT] == "c:3"
    assert trace[1][spans.PARENT] == "w:1"


@pytest.mark.parametrize(
    "n,expected", [(9, None), (20, 50.0), (99, 50.0), (100, 90.0), (200, 95.0),
                   (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert spans.supported_percentile(n) == expected


def test_percentile_is_nearest_rank():
    sample = list(range(1, 101))
    assert spans.percentile(sample, 50) == 50
    assert spans.percentile(sample, 90) == 90
    assert spans.percentile([3.0], 99) == 3.0


# ----------------------------------------------------------------------
# Exact-truth cache
# ----------------------------------------------------------------------
def test_truth_recomputed_when_fingerprint_misses():
    graph = CSRGraph.from_graph(barabasi_albert(60, 3, seed=2))
    key = f"{truth.fingerprint(graph)}:k3"
    stale = {key: {"counts": [1, 2]}}
    assert truth.exact_counts(graph, 3, stale) == ([1, 2], False)

    edges = list(graph.edges())
    changed = CSRGraph.from_edges(edges[1:], num_nodes=graph.num_nodes)
    counts, recomputed = truth.exact_counts(changed, 3, stale)
    assert recomputed
    assert counts == truth.compute(changed, 3)
    assert counts != [1, 2]


def test_cached_truth_equals_recomputed_truth():
    graph = workloads.build_graph("ba:10000:10:0")
    entries = truth.load()
    for k in (3, 4):
        assert entries[f"{truth.fingerprint(graph)}:k{k}"]["counts"] == truth.compute(graph, k)


def test_every_full_scale_truth_is_cached():
    entries = truth.load()
    for source, k in workloads.truth_needs(workloads.FULL):
        graph = workloads.build_graph(source)
        assert f"{truth.fingerprint(graph)}:k{k}" in entries, (source, k)


# ----------------------------------------------------------------------
# Workloads at a tiny scale
# ----------------------------------------------------------------------
def _attributes():
    out = {}
    for target in spans.TARGETS:
        owner = spans._resolve(target.owner)
        out[(target.owner, target.attr)] = vars(owner).get(target.attr, "inherited")
    return out


@pytest.fixture(scope="module")
def traced_docs(tmp_path_factory):
    before = _attributes()
    docs = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        docs[name] = workloads.run_workload(name, 3, 0.0, True, workdir, workloads.TINY)
    assert _attributes() == before, "a traced run left a wrapper installed"
    return docs


def test_workload_declarations_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(workloads.E2E_UNITS)
    for metric in SPEC["end_to_end"]:
        assert workloads.E2E_UNITS[metric["name"]] == metric["unit"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_is_correct_and_emits_declared_metrics(traced_docs, name):
    doc = traced_docs[name]
    assert doc["correct"], (doc["checks"], doc["errors"])
    assert doc["attempted"] >= workloads.TINY.min_ops and doc["failed"] == 0
    assert set(doc["e2e"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(doc["layers"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(value > 0 for value in doc["e2e"].values())
    assert doc["extra"]["missing_targets"] == []
    assert len(doc["extra"]["digest"]) == 64


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_declared_spans_fire_where_expected(traced_docs, name):
    layers = traced_docs[name]["layers"]
    silent = [s for s in EXPECTED_SPANS[name] if layers[f"{s}.calls"] == 0]
    assert not silent, f"{name}: spans that never fired: {silent}"
    if name != "walk-k4":
        assert layers["relgraph.fused.propose.calls"] == 0
    assert sum(layers[f"{s}.share"] for s in spans.SPAN_NAMES) == pytest.approx(100.0)


def test_every_declared_span_has_a_workload():
    covered = set().union(*EXPECTED_SPANS.values())
    assert covered == set(spans.SPAN_NAMES)


def test_untraced_run_emits_end_to_end_metrics_only(tmp_path):
    doc = workloads.run_workload("stream", 3, 0.0, False, tmp_path, workloads.TINY)
    assert doc["correct"]
    assert set(doc["e2e"]) == set(workloads.E2E_UNITS)
    assert "layers" not in doc


def test_same_seed_same_digest(tmp_path, traced_docs):
    doc = workloads.run_workload("walk-k4", 3, 0.0, False, tmp_path, workloads.TINY)
    assert doc["extra"]["digest"] == traced_docs["walk-k4"]["extra"]["digest"]
    assert doc["extra"]["nrmse"] == traced_docs["walk-k4"]["extra"]["nrmse"]


# ----------------------------------------------------------------------
# The command and the comparison
# ----------------------------------------------------------------------
def test_run_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "walk-k3", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _doc(workload, seed, latency, digest):
    return {
        "workload": workload, "seed": seed,
        "e2e": {"setup_s": 1.0, "steps_per_s": 100.0, "latency_p50_ms": latency,
                "peak_rss_mb": 50.0},
        "extra": {"digest": digest, "nrmse": 0.1},
    }


def _write(directory, docs):
    directory.mkdir()
    for i, doc in enumerate(docs):
        (directory / f"r{i}.json").write_text(json.dumps(doc))


def test_compare_verdicts_and_digest_flag(tmp_path, capsys):
    _write(tmp_path / "a", [_doc("walk-k3", s, 10.0, "d") for s in (1, 2, 3)])
    _write(tmp_path / "b", [_doc("walk-k3", s, 10.5, "d") for s in (1, 2, 3)])
    _write(tmp_path / "c", [_doc("walk-k3", s, 20.0, "d") for s in (1, 2, 3)])
    _write(tmp_path / "d", [_doc("walk-k3", s, 10.0, "e") for s in (1, 2, 3)])
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "within" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    assert "OUTSIDE" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "d")]) == 1
    assert "digest CHANGED" in capsys.readouterr().out
