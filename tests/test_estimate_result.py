"""Tests for the unified Estimate result type."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import Estimate, MethodSpec, run_estimation
from repro.relgraph import relationship_edge_count


class TestCounts:
    def test_counts_reject_nonpositive_relationship_edges(self, karate):
        """Satellite: counts() raises a clear ValueError on
        relationship_edges <= 0 instead of silently producing zeros."""
        result = repro.estimate(karate, "srw1", k=3, budget=1_000, seed=1)
        for bad in (0, -5):
            with pytest.raises(ValueError, match="relationship_edges must be"):
                result.counts(bad)
        with pytest.raises(ValueError, match="relationship_edge_count"):
            result.counts(0)
        with pytest.raises(ValueError):
            result.counts(None)

    def test_counts_work_with_positive_edges(self, karate):
        result = repro.estimate(karate, "srw1", k=3, budget=30_000, seed=1)
        counts = result.counts(relationship_edge_count(karate, 1))
        assert counts.shape == (2,)
        assert np.all(counts >= 0)

    def test_counts_unavailable_without_sums(self, karate):
        wedge = repro.estimate(karate, "wedge", k=3, budget=500, seed=1)
        with pytest.raises(ValueError, match="does not expose re-weighted sums"):
            wedge.counts(karate.num_edges)

    def test_count_dict_from_meta(self, karate):
        path = repro.estimate(karate, "path_sampling", budget=2_000, seed=2)
        counts = path.count_dict()
        assert np.isnan(counts["3-star"])  # invisible to 3-path sampling
        assert counts["path"] >= 0

    def test_count_dict_needs_edges_for_sums_methods(self, karate):
        result = repro.estimate(karate, "srw1", k=3, budget=500, seed=1)
        with pytest.raises(ValueError, match="relationship_edges"):
            result.count_dict()
        assert set(result.count_dict(karate.num_edges)) == {"wedge", "triangle"}


class TestSerialization:
    @pytest.mark.parametrize(
        "method, kwargs",
        [
            ("srw2css", {"k": 4, "chains": 2}),
            ("guise", {"k": 3}),
            ("wedge", {"k": 3}),
            ("path_sampling", {}),
            ("exact", {"k": 3}),
        ],
    )
    def test_to_dict_round_trip(self, karate, method, kwargs):
        result = repro.estimate(karate, method, budget=500, seed=3, **kwargs)
        data = result.to_dict()
        # JSON-safe (NaN allowed by the default encoder) ...
        encoded = json.dumps(data)
        # ... and a faithful round-trip (string compare sidesteps nan != nan).
        rebuilt = Estimate.from_dict(data)
        assert json.dumps(rebuilt.to_dict()) == encoded
        assert rebuilt.method == result.method
        assert rebuilt.steps == result.steps
        assert np.allclose(
            rebuilt.concentrations, result.concentrations, equal_nan=True
        )

    def test_round_trip_revives_int_meta_keys(self, karate):
        result = repro.estimate(karate, "guise", k=3, budget=300, seed=1)
        rebuilt = Estimate.from_dict(result.to_dict())
        for size in (3, 4, 5):
            assert list(rebuilt.visits[size]) == list(result.visits[size])

    def test_unknown_kwarg_is_a_typeerror(self, karate):
        with pytest.raises(TypeError):
            repro.estimate(karate, "srw1", k=3, steps=500)  # old kwarg name

    def test_from_dict_restores_counts(self, karate):
        result = run_estimation(
            karate, MethodSpec.parse("SRW1", 3), 2_000, rng=__import__("random").Random(5)
        )
        rebuilt = Estimate.from_dict(result.to_dict())
        edges = relationship_edge_count(karate, 1)
        assert np.allclose(rebuilt.counts(edges), result.counts(edges))
        assert rebuilt.d == 1 and rebuilt.chains == 1


class TestMetaPassthrough:
    def test_method_specific_stats_read_as_attributes(self, karate):
        wedge = repro.estimate(karate, "wedge", k=3, budget=1_000, seed=1)
        assert wedge.closed_fraction == wedge.meta["closed_fraction"]
        assert wedge.triangle_count >= 0
        mhrw = repro.estimate(karate, "wedge_mhrw", k=3, budget=500, seed=1)
        assert mhrw.nominal_api_calls == 3 * 500

    def test_unknown_attribute_raises(self, karate):
        result = repro.estimate(karate, "srw1", k=3, budget=100, seed=1)
        with pytest.raises(AttributeError, match="meta"):
            result.definitely_not_a_field


class TestDeprecatedAliases:
    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro", "EstimationResult"),
            ("repro.core", "EstimationResult"),
            ("repro.core.estimator", "EstimationResult"),
            ("repro.baselines", "GuiseResult"),
            ("repro.baselines.wedge", "WedgeSamplingResult"),
        ],
    )
    def test_removed_alias_raises(self, module, name):
        """The per-method result names are gone: every estimator returns
        :class:`Estimate`, and the old names are plain missing attributes."""
        import importlib

        mod = importlib.import_module(module)
        with pytest.raises(AttributeError):
            getattr(mod, name)

    def test_unknown_module_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.NotAThing  # noqa: B018


class TestDeprecationHygiene:
    def test_package_imports_clean_under_error_filter(self):
        """Internal code must not touch deprecated surfaces: importing
        the whole public surface with DeprecationWarning-as-error for
        repro modules must succeed (pytest.ini applies the same filter
        to the whole suite)."""
        code = (
            "import warnings; "
            "warnings.filterwarnings('error', category=DeprecationWarning, "
            "module=r'repro($|\\..*)'); "
            "import repro, repro.cli, repro.estimators, repro.evaluation, "
            "repro.baselines, repro.core, repro.reporting; "
            "repro.estimate(repro.load_dataset('karate'), 'srw1', k=3, budget=50, seed=1)"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
