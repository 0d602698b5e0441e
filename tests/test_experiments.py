"""Tests for the parallel experiment engine (repro.experiments)."""

from __future__ import annotations

import dataclasses
import json
import random

import numpy as np
import pytest

from repro.core import MethodSpec, run_with_checkpoints
from repro.core.checkpoints import checkpoint_session
from repro.core.session import EstimationConfig
from repro.estimators import get as get_estimator
from repro.evaluation import nrmse_table, random_start_nodes, run_trials
from repro.experiments import (
    ExperimentSpec,
    canonical_line,
    get_suite,
    resolve_graph,
    run_experiment,
    seed_stream,
    suite_names,
    suite_specs,
    summary_path,
    trials_path,
)
from repro.graphs import barabasi_albert

SPEC = ExperimentSpec(
    name="unit",
    graph="ba:60:3:2",
    k=3,
    methods=("SRW1", "SRW1CSSNB"),
    budget=300,
    trials=4,
    base_seed=9,
)


class TestSeedStream:
    def test_sequential_is_base_plus_t(self):
        assert seed_stream(5, 4, "sequential") == [5, 6, 7, 8]

    def test_spawn_deterministic(self):
        assert seed_stream(5, 6, "spawn") == seed_stream(5, 6, "spawn")

    def test_spawn_distinct_seeds(self):
        seeds = seed_stream(0, 32, "spawn")
        assert len(set(seeds)) == 32

    def test_spawn_prefix_stable(self):
        """Trial t's seed does not depend on how many trials follow it —
        the property that makes resume and parallel fan-out consistent."""
        assert seed_stream(3, 8, "spawn")[:4] == seed_stream(3, 4, "spawn")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="seed strategy"):
            seed_stream(0, 2, "quantum")


class TestExperimentSpec:
    def test_round_trip(self):
        rebuilt = ExperimentSpec.from_dict(SPEC.to_dict())
        assert rebuilt == SPEC

    def test_config_hash_stable_and_label_independent(self):
        relabeled = dataclasses.replace(
            SPEC, name="other", description="x", target="wedge"
        )
        assert relabeled.config_hash() == SPEC.config_hash()

    def test_config_hash_tracks_results_fields(self):
        assert (
            dataclasses.replace(SPEC, budget=301).config_hash()
            != SPEC.config_hash()
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one method"):
            dataclasses.replace(SPEC, methods=())
        with pytest.raises(ValueError, match="starts"):
            dataclasses.replace(SPEC, starts="somewhere")
        with pytest.raises(ValueError, match="trials"):
            dataclasses.replace(SPEC, trials=0)
        with pytest.raises(ValueError, match="basename"):
            dataclasses.replace(SPEC, name="a/b")

    def test_execution_shape_validation(self):
        with pytest.raises(ValueError, match="chains"):
            dataclasses.replace(SPEC, chains=0)
        with pytest.raises(ValueError, match="one transition per chain"):
            dataclasses.replace(SPEC, chains=SPEC.budget + 1)
        with pytest.raises(ValueError, match="unknown backend"):
            dataclasses.replace(SPEC, backend="sparse")
        # Chainless baselines fail at spec construction, not mid-sweep
        # inside a worker process.
        with pytest.raises(ValueError, match="wedge_mhrw"):
            dataclasses.replace(SPEC, methods=("SRW1", "wedge_mhrw"), chains=8)
        assert dataclasses.replace(SPEC, methods=("SRW1", "wedge_mhrw")).chains == 1

    def test_execution_shape_hash_compatibility(self):
        """Default chains/backend leave pre-existing fingerprints alone
        (checked-in trajectory artifacts stay valid); non-default values
        change results and therefore the hash."""
        assert (
            dataclasses.replace(SPEC, chains=1, backend=None).config_hash()
            == SPEC.config_hash()
        )
        assert dataclasses.replace(SPEC, chains=8).config_hash() != SPEC.config_hash()
        assert (
            dataclasses.replace(SPEC, backend="csr").config_hash()
            != SPEC.config_hash()
        )

    def test_batched_trials_carry_chains(self):
        """chains/backend ride the task into every trial's estimate."""
        spec = dataclasses.replace(
            SPEC, name="batched", chains=4, backend="csr", methods=("SRW2CSS",), k=4
        )
        result = run_experiment(spec, jobs=1)
        for estimate in result.method_estimates("SRW2CSS"):
            assert estimate.chains == 4

    def test_fixed_starts(self):
        spec = dataclasses.replace(SPEC, starts="fixed:7")
        graph = resolve_graph(spec.graph)
        assert spec.start_nodes(graph) == [7, 7, 7, 7]

    def test_resolve_graph_sources(self):
        ba = resolve_graph("ba:40:2:1")
        assert ba.num_nodes == 40
        assert resolve_graph("dataset:karate").num_nodes == 34
        assert resolve_graph("karate").num_nodes == 34  # bare-name shorthand
        with pytest.raises(ValueError, match="unknown graph source"):
            resolve_graph("zz:1")
        with pytest.raises(ValueError, match="malformed BA"):
            resolve_graph("ba:40:2")

    def test_resolve_file_source(self, tmp_path):
        """file:path ingests once (LCC by default), caches the mmap
        layout beside the file, and :raw opts out of the LCC cut."""
        from repro.graphs import Graph, MmapCSRGraph, write_edge_list

        ba = barabasi_albert(30, 2, seed=4)
        graph = Graph(32, list(ba.edges()) + [(30, 31)])
        path = tmp_path / "snap.txt"
        write_edge_list(graph, path)

        lcc = resolve_graph(f"file:{path}")
        assert isinstance(lcc, MmapCSRGraph)
        assert lcc.num_nodes == 30
        assert (tmp_path / "snap.txt.mmap").is_dir()

        raw = resolve_graph(f"file:{path}:raw")
        assert raw.num_nodes == 32
        assert (tmp_path / "snap.txt.mmap-raw").is_dir()

        # A saved layout directory resolves directly, no ingest.
        direct = resolve_graph(f"file:{tmp_path / 'snap.txt.mmap'}")
        assert direct == lcc

        with pytest.raises(ValueError, match="malformed file graph source"):
            resolve_graph("file:")
        with pytest.raises(ValueError, match="does not exist"):
            resolve_graph(f"file:{tmp_path / 'missing.txt'}")


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        serial = run_experiment(SPEC, jobs=1)
        parallel = run_experiment(SPEC, jobs=4)
        for method in SPEC.methods:
            assert np.array_equal(
                serial.estimates(method), parallel.estimates(method)
            ), method
        # Full rows too (seeds, samples, sums), not just concentrations.
        for a, b in zip(serial.rows, parallel.rows):
            assert canonical_line(a) == canonical_line(b)

    def test_run_trials_jobs_bit_identical(self, karate):
        starts = random_start_nodes(karate, 5, seed=3)
        one = run_trials(
            karate, 3, "SRW1CSSNB", 400, 5, base_seed=3, start_nodes=starts
        )
        four = run_trials(
            karate, 3, "SRW1CSSNB", 400, 5, base_seed=3, start_nodes=starts,
            jobs=4,
        )
        assert np.array_equal(one.estimates, four.estimates)

    def test_run_trials_matches_direct_sessions(self, karate):
        """The engine wrapper reproduces the historical serial loop:
        seed ``base_seed + t``, one fresh session per trial."""
        summary = run_trials(karate, 3, "SRW1", 300, 3, base_seed=11)
        estimator = get_estimator("SRW1")
        for t in range(3):
            config = EstimationConfig(
                method="SRW1", k=3, target=300, seed=11 + t, seed_node=0
            )
            expected = estimator.prepare(karate, config).result()
            assert np.array_equal(summary.estimates[t], expected.concentrations)

    def test_nrmse_table_jobs_identical(self, karate):
        kwargs = dict(steps=400, trials=4, target_index=1, base_seed=2)
        assert nrmse_table(karate, 3, ["SRW1"], **kwargs) == nrmse_table(
            karate, 3, ["SRW1"], jobs=2, **kwargs
        )


class TestArtifactsAndResume:
    def test_artifacts_written(self, tmp_path):
        result = run_experiment(SPEC, jobs=1, out_dir=tmp_path)
        rows = [
            json.loads(line)
            for line in trials_path(tmp_path, SPEC).read_text().splitlines()
        ]
        assert len(rows) == len(SPEC.methods) * SPEC.trials
        assert all(row["config_hash"] == SPEC.config_hash() for row in rows)
        summary = json.loads(summary_path(tmp_path, SPEC).read_text())
        assert summary["name"] == "unit"
        assert summary["config_hash"] == SPEC.config_hash()
        assert set(summary["nrmse"]) == set(SPEC.methods)
        assert summary["total_trials"] == len(result.rows)
        assert summary["total_steps"] == SPEC.budget * len(result.rows)

    def test_resume_reproduces_uninterrupted_run_byte_for_byte(self, tmp_path):
        full_dir = tmp_path / "full"
        cut_dir = tmp_path / "cut"
        run_experiment(SPEC, jobs=1, out_dir=full_dir)

        # Simulate a sweep killed after three trials: truncate the JSONL.
        cut_dir.mkdir()
        full_lines = trials_path(full_dir, SPEC).read_text().splitlines()
        trials_path(cut_dir, SPEC).write_text("\n".join(full_lines[:3]) + "\n")

        resumed = run_experiment(SPEC, jobs=2, out_dir=cut_dir, resume=True)
        assert resumed.resumed_trials == 3

        def canonical(lines):
            return sorted(canonical_line(json.loads(line)) for line in lines)

        resumed_lines = trials_path(cut_dir, SPEC).read_text().splitlines()
        assert len(resumed_lines) == len(full_lines)
        assert canonical(resumed_lines) == canonical(full_lines)

    def test_resume_tolerates_half_written_final_line(self, tmp_path):
        """A sweep killed mid-write leaves a truncated last JSONL line;
        resume drops it, re-runs that trial, and still recovers fully."""
        full_dir = tmp_path / "full"
        cut_dir = tmp_path / "cut"
        run_experiment(SPEC, jobs=1, out_dir=full_dir)
        full_lines = trials_path(full_dir, SPEC).read_text().splitlines()

        cut_dir.mkdir()
        damaged = "\n".join(full_lines[:3]) + "\n" + full_lines[3][: len(full_lines[3]) // 2]
        trials_path(cut_dir, SPEC).write_text(damaged)

        resumed = run_experiment(SPEC, jobs=1, out_dir=cut_dir, resume=True)
        assert resumed.resumed_trials == 3
        resumed_lines = trials_path(cut_dir, SPEC).read_text().splitlines()
        assert len(resumed_lines) == len(full_lines)
        assert sorted(
            canonical_line(json.loads(line)) for line in resumed_lines
        ) == sorted(canonical_line(json.loads(line)) for line in full_lines)

    def test_resume_rejects_mid_file_corruption(self, tmp_path):
        run_experiment(SPEC, jobs=1, out_dir=tmp_path)
        lines = trials_path(tmp_path, SPEC).read_text().splitlines()
        lines[1] = lines[1][:10]  # damage a non-final line
        trials_path(tmp_path, SPEC).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupted"):
            run_experiment(SPEC, jobs=1, out_dir=tmp_path, resume=True)

    def test_resume_on_finished_run_is_noop(self, tmp_path):
        run_experiment(SPEC, jobs=1, out_dir=tmp_path)
        before = trials_path(tmp_path, SPEC).read_text()
        result = run_experiment(SPEC, jobs=1, out_dir=tmp_path, resume=True)
        assert result.resumed_trials == len(result.rows)
        assert trials_path(tmp_path, SPEC).read_text() == before

    def test_resume_rejects_stale_config(self, tmp_path):
        run_experiment(SPEC, jobs=1, out_dir=tmp_path)
        edited = dataclasses.replace(SPEC, budget=SPEC.budget + 1)
        with pytest.raises(ValueError, match="config_hash"):
            run_experiment(edited, jobs=1, out_dir=tmp_path, resume=True)

    def test_fresh_run_overwrites_without_resume(self, tmp_path):
        run_experiment(SPEC, jobs=1, out_dir=tmp_path)
        run_experiment(SPEC, jobs=1, out_dir=tmp_path)
        rows = trials_path(tmp_path, SPEC).read_text().splitlines()
        assert len(rows) == len(SPEC.methods) * SPEC.trials


class TestSuites:
    def test_smoke_suite_shape(self):
        (spec,) = get_suite("smoke")
        assert spec.name == "smoke"
        assert spec.graph.startswith("ba:")
        assert spec.seed_strategy == "spawn"

    def test_all_suites_materialize(self):
        for name, specs in suite_specs().items():
            assert specs, name
            assert len({s.name for s in specs}) == len(specs), name

    def test_figure_suites_keep_historical_seed_stream(self):
        for name in ("fig4", "fig5", "fig6", "fig8"):
            for spec in get_suite(name):
                assert spec.seed_strategy == "sequential", spec.name

    def test_unknown_suite_actionable(self):
        with pytest.raises(KeyError, match="available"):
            get_suite("nope")
        assert "smoke" in suite_names()


class TestSummary:
    def test_target_defaults_to_rarest(self):
        spec = dataclasses.replace(SPEC, target=None, methods=("SRW1",))
        result = run_experiment(spec, jobs=1)
        assert result.target_index == 1  # triangles rarer than wedges on BA

    def test_nrmse_unknown_method_actionable(self):
        result = run_experiment(SPEC, jobs=1)
        with pytest.raises(KeyError, match="no trials for method"):
            result.nrmse("guise")

    def test_graph_override(self, karate):
        result = run_experiment(SPEC, graph=karate, jobs=1)
        assert result.estimates("SRW1").shape == (4, 2)


class TestCheckpointSeedExclusivity:
    def test_run_with_checkpoints_rejects_rng_plus_seed(self, karate):
        spec = MethodSpec.parse("SRW1", 3)
        with pytest.raises(ValueError, match="not both"):
            run_with_checkpoints(
                karate, spec, [100, 200], rng=random.Random(1), seed=1
            )

    def test_checkpoint_session_rejects_rng_plus_seed_registry(self, karate):
        with pytest.raises(ValueError, match="not both"):
            checkpoint_session(
                karate, "guise", 200, rng=random.Random(1), seed=1
            )

    def test_each_alone_still_works(self, karate):
        spec = MethodSpec.parse("SRW1", 3)
        with_rng = run_with_checkpoints(
            karate, spec, [100], rng=random.Random(4)
        )
        with_seed = run_with_checkpoints(karate, spec, [100], seed=4)
        assert np.array_equal(
            with_rng[0].concentrations, with_seed[0].concentrations
        )


class TestBenchCLI:
    def test_bench_smoke_produces_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["bench", "--suite", "smoke", "--jobs", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BENCH_smoke.json" in out
        summary = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert summary["jobs"] == 2
        assert (tmp_path / "smoke.trials.jsonl").exists()

    def test_bench_list(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "fig4" in out

    def test_bench_unknown_suite_fails(self, capsys):
        from repro.cli import main

        assert main(["bench", "--suite", "nope"]) == 2
        assert "available" in capsys.readouterr().err


def test_smoke_suite_matches_checked_in_trajectory():
    """The committed BENCH_smoke.json reproduces on this machine: the
    perf numbers are environment-bound, but the statistics are not."""
    from pathlib import Path

    golden_path = (
        Path(__file__).resolve().parent.parent
        / "benchmarks" / "trajectory" / "BENCH_smoke.json"
    )
    golden = json.loads(golden_path.read_text())
    (spec,) = get_suite("smoke")
    assert golden["config_hash"] == spec.config_hash()
    result = run_experiment(spec, jobs=2)
    for method in spec.methods:
        assert result.nrmse(method) == pytest.approx(
            golden["nrmse"][method], abs=1e-9
        )


def test_barabasi_albert_source_connected():
    """The smoke graph needs no LCC reduction: BA graphs are connected."""
    from repro.graphs import largest_connected_component

    graph = barabasi_albert(180, 3, seed=1)
    lcc, _ = largest_connected_component(graph)
    assert lcc.num_nodes == graph.num_nodes
