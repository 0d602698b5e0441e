"""Tests for the unified estimator API: registry, sessions, repro.estimate.

Covers the acceptance criteria of the API redesign: every registered
method runs end-to-end through the streaming protocol and returns the
unified Estimate; fixed-seed SRW{1,2} results are bit-identical to
Algorithm 1 (``run_estimation``); snapshots mid-run equal fresh runs of
the same budget (streaming/batch parity).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro
from repro import estimators
from repro.core import (
    Estimate,
    EstimationConfig,
    MethodSpec,
    run_estimation,
    run_with_checkpoints,
)
from repro.exact import exact_concentrations
from repro.graphs import CSRGraph, GraphError, RestrictedGraph, barabasi_albert
from repro.graphs.csr import as_backend


@pytest.fixture(scope="module")
def ba200():
    return barabasi_albert(200, 3, seed=42)


#: Cheap per-method budgets for the end-to-end sweep (d >= 3 substrates
#: enumerate G(d) neighborhoods per step, so they get smaller budgets).
def _sweep_budget(name: str) -> int:
    slow = (
        "psrw", "srw", "srw3", "srw3nb", "srw3css", "srw3cssnb",
        "srw4", "srw4nb",
    )
    return 300 if name in slow else 1_500


class TestRegistry:
    def test_every_available_method_runs_end_to_end(self, ba200):
        """Satellite: each registered method on a 200-node BA graph with a
        fixed seed returns an Estimate whose concentrations sum to ~1."""
        names = estimators.available()
        assert len(names) >= 9
        for name in names:
            result = repro.estimate(ba200, name, budget=_sweep_budget(name), seed=5)
            assert isinstance(result, Estimate), name
            assert result.method, name
            total = float(np.nansum(result.concentrations))
            assert abs(total - 1.0) < 1e-9, (name, total)

    def test_core_method_table_present(self):
        names = set(estimators.available())
        assert {
            "srw1", "srw1cssnb", "srw2", "srw2css", "psrw", "srw",
            "guise", "wedge", "wedge_mhrw", "path_sampling",
            "hardiman_katzir", "exact",
        } <= names

    def test_name_normalization(self):
        assert estimators.get("SRW2CSS") is estimators.get("srw2css")
        assert estimators.get("wedge-MHRW") is estimators.get("wedge_mhrw")

    def test_srw_grammar_fallback(self, karate):
        # Not pre-registered, still resolvable through the open grammar.
        assert "srw5" not in estimators.available()
        result = repro.estimate(karate, "srw5", k=5, budget=100, seed=1)
        assert result.method == "SRW5"

    def test_unknown_method_lists_available(self, karate):
        with pytest.raises(KeyError, match="guise"):
            estimators.get("magic")

    def test_register_makes_method_reachable_everywhere(self, karate):
        class ConstantEstimator:
            name = "constant_oracle"

            def prepare(self, graph, config):
                outer = self

                class _S(repro.Session):
                    def _advance(self, n):
                        pass

                    def snapshot(self):
                        return Estimate(
                            method=outer.name,
                            k=3,
                            steps=self.consumed,
                            samples=self.consumed,
                            concentrations=np.array([0.9, 0.1]),
                        )

                return _S(config.budget)

        estimators.register("constant_oracle", ConstantEstimator())
        try:
            assert "constant_oracle" in estimators.available()
            result = repro.estimate(karate, "constant_oracle", budget=10)
            assert result.concentration_dict() == {"wedge": 0.9, "triangle": 0.1}
        finally:
            estimators.unregister("constant_oracle")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            estimators.register("guise", estimators.get("guise"))

    def test_chainless_table_matches_the_adapters(self, karate):
        """``CHAINLESS_METHODS`` names exactly the built-in methods whose
        adapter refuses ``chains > 1``: specs and the service read it."""
        from repro.estimators.adapters import CHAINLESS_METHODS

        csr = as_backend(karate, "csr")
        refused = set()
        for name in estimators.available():
            config = EstimationConfig(method=name, target=100, chains=2, seed=1)
            try:
                estimators.prepare(csr, config)
            except ValueError as exc:
                assert "does not support chains" in str(exc), name
                refused.add(name)
        assert refused == CHAINLESS_METHODS

    def test_k_validation(self, karate):
        with pytest.raises(ValueError, match="supports k in"):
            repro.estimate(karate, "wedge", k=4, budget=100)
        with pytest.raises(ValueError, match="supports k in"):
            repro.estimate(karate, "path_sampling", k=3, budget=100)


class TestTooFewNodes:
    """A graph with fewer than k nodes holds no k-node graphlet: the
    estimate raises instead of spending its budget on all-zero output."""

    @pytest.mark.parametrize("backend", ["list", "csr"])
    @pytest.mark.parametrize("chains", [1, 3])
    def test_walk_raises(self, backend, chains):
        path = repro.Graph.from_edges([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"num_nodes=3 < k=4"):
            repro.estimate(
                path, "srw2css", k=4, target=200, seed=1, backend=backend,
                chains=chains,
            )

    @pytest.mark.parametrize("backend", [None, "csr"])
    def test_auto_raises_before_selection(self, backend):
        path = repro.Graph.from_edges([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"num_nodes=3 < k=4"):
            repro.estimate(path, "auto", k=4, target=200, seed=1, backend=backend)

    def test_exactly_k_nodes_still_runs(self):
        path = repro.Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        result = repro.estimate(path, "srw2css", k=4, target=50, seed=1)
        assert result.samples > 0

    def test_restricted_graph_is_not_checked(self):
        """A crawl exposes no ``num_nodes``, so the guard leaves it alone."""
        api = RestrictedGraph(repro.Graph.from_edges([(0, 1), (1, 2)]), seed_node=0)
        assert not hasattr(api, "num_nodes")
        result = repro.estimate(api, "srw1", k=3, target=50, seed=1)
        assert result.samples > 0


class TestBitIdentityWithOldEntryPoints:
    """Acceptance: fixed-seed results are bit-identical to the old
    per-method entry points for SRW{1,2} and GUISE."""

    @pytest.mark.parametrize(
        "method, k",
        [("SRW1", 3), ("SRW1CSSNB", 3), ("SRW2", 4), ("SRW2CSS", 4)],
    )
    def test_srw_matches_run_estimation(self, karate, method, k):
        spec = MethodSpec.parse(method, k)
        old = run_estimation(karate, spec, 4_000, rng=random.Random(7))
        new = repro.estimate(karate, method, k=k, budget=4_000, seed=7)
        assert np.array_equal(old.sums, new.sums)
        assert old.valid_samples == new.valid_samples
        assert old.steps == new.steps

    def test_multichain_matches_run_estimation(self, karate):
        spec = MethodSpec.parse("SRW2", 4)
        old = run_estimation(karate, spec, 2_000, rng=random.Random(3), chains=4)
        new = repro.estimate(karate, "srw2", k=4, budget=2_000, seed=3, chains=4)
        assert np.array_equal(old.sums, new.sums)
        assert new.chains == 4
        # Serial multichain runs carry a between-chain standard error.
        assert new.stderr is not None and new.stderr.shape == new.sums.shape

    def test_streamed_multichain_matches_run_estimation(self, karate):
        """Streaming step-by-step through a multichain session pools the
        same per-chain walks as the serial runner."""
        spec = MethodSpec.parse("SRW2", 4)
        old = run_estimation(karate, spec, 2_000, rng=random.Random(3), chains=4)
        config = EstimationConfig(method="srw2", k=4, target=2_000, seed=3, chains=4)
        session = estimators.get("srw2").prepare(karate, config)
        while session.step(333):
            pass
        new = session.result()
        assert np.array_equal(old.sums, new.sums)
        assert new.stderr is not None


class TestStreamingSessions:
    @pytest.mark.parametrize("method, k", [("srw2", 4), ("guise", 3)])
    def test_snapshot_mid_run_equals_fresh_run(self, karate, method, k):
        """Satellite: snapshot() after t units equals a fresh budget-t run
        with the same seed (streaming/batch parity)."""
        config = EstimationConfig(method=method, k=k, target=6_000, seed=13)
        session = estimators.get(method).prepare(karate, config)
        assert session.step(2_500) == 2_500
        snap = session.snapshot()
        fresh = repro.estimate(karate, method, k=k, budget=2_500, seed=13)
        assert snap.steps == fresh.steps == 2_500
        assert np.array_equal(snap.concentrations, fresh.concentrations)
        if snap.sums is not None:
            assert np.array_equal(snap.sums, fresh.sums)

    def test_step_budget_bookkeeping(self, karate):
        config = EstimationConfig(method="srw1", k=3, target=1_000, seed=1)
        session = estimators.get("srw1").prepare(karate, config)
        assert (session.budget, session.consumed, session.remaining) == (1_000, 0, 1_000)
        assert session.step(300) == 300
        assert session.remaining == 700 and not session.done
        assert session.step() == 700  # None = all remaining
        assert session.done
        assert session.step(100) == 0  # exhausted sessions are no-ops
        result = session.result()
        assert result.steps == 1_000

    def test_snapshot_before_first_step(self, karate):
        config = EstimationConfig(method="srw1", k=3, target=100, seed=1)
        session = estimators.get("srw1").prepare(karate, config)
        early = session.snapshot()
        assert early.steps == 0 and early.samples == 0

    def test_snapshots_are_independent_copies(self, karate):
        config = EstimationConfig(method="srw1", k=3, target=400, seed=2)
        session = estimators.get("srw1").prepare(karate, config)
        session.step(200)
        a = session.snapshot()
        session.step(200)
        b = session.snapshot()
        a.sums[0] = -1.0
        assert b.sums[0] >= 0
        assert b.samples >= a.samples

    def test_negative_step_rejected(self, karate):
        config = EstimationConfig(method="srw1", k=3, target=100, seed=1)
        session = estimators.get("srw1").prepare(karate, config)
        with pytest.raises(ValueError):
            session.step(-1)


class TestCheckpointsViaRegistry:
    def test_registry_method_checkpoints(self, karate):
        snaps = run_with_checkpoints(
            karate, "guise", [500, 2_000], seed=4, k=3
        )
        assert [s.steps for s in snaps] == [500, 2_000]
        fresh = repro.estimate(karate, "guise", k=3, budget=2_000, seed=4)
        assert np.array_equal(snaps[-1].concentrations, fresh.concentrations)


class TestExactOracle:
    def test_matches_exact_concentrations(self, karate):
        truth = exact_concentrations(karate, 4)
        result = repro.estimate(karate, "exact", k=4, budget=1)
        for index, value in truth.items():
            assert result.concentrations[index] == pytest.approx(value)
        assert np.all(result.stderr == 0.0)
        assert result.count_dict()["clique"] > 0


class TestBackendRouting:
    def test_estimate_backend_csr(self, karate):
        # CSR single-chain walks are bit-identical to list for d <= 2.
        a = repro.estimate(karate, "srw2", k=4, budget=1_500, seed=6)
        b = repro.estimate(karate, "srw2", k=4, budget=1_500, seed=6, backend="csr")
        assert np.array_equal(a.sums, b.sums)

    @pytest.mark.filterwarnings("error::repro.walks.batched.BatchFallbackWarning")
    def test_unstreamed_csr_multichain_uses_vectorized_path(self, karate):
        """A one-shot estimate() on a list graph with backend="csr" and
        chains keeps the batched engine: bit-identical to run_estimation
        on a CSRGraph built apart from as_backend, and no fallback."""
        csr = CSRGraph.from_edges(karate.edges(), karate.num_nodes)
        spec = MethodSpec.parse("SRW2", 4)
        old = run_estimation(csr, spec, 4_000, rng=random.Random(5), chains=8)
        new = repro.estimate(karate, "srw2", k=4, budget=4_000, seed=5,
                             backend="csr", chains=8)
        assert np.array_equal(old.sums, new.sums)
        assert old.valid_samples == new.valid_samples

    def test_restricted_to_csr_error_names_call_site(self, karate):
        """Satellite: the RestrictedGraph -> CSR error names the offending
        call site and suggests backend="list"."""
        api = RestrictedGraph(karate, seed_node=0)
        with pytest.raises(GraphError) as excinfo:
            repro.estimate(api, "srw1", k=3, budget=100, backend="csr")
        message = str(excinfo.value)
        assert "estimate(method='srw1', backend='csr')" in message
        assert 'backend="list"' in message
        assert "RestrictedGraph" in message

    def test_as_backend_default_context(self, karate):
        api = RestrictedGraph(karate, seed_node=0)
        with pytest.raises(GraphError, match=r'as_backend\(graph, "csr"\)'):
            as_backend(api, "csr")
