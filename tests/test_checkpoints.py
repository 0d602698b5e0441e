"""Tests for checkpointed (anytime) estimation."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.checkpoints import run_with_checkpoints
from repro.core.estimator import MethodSpec, run_estimation
from repro.exact import exact_concentrations


class TestCheckpoints:
    def test_final_snapshot_equals_plain_run(self, karate):
        """With the same RNG, the last checkpoint must reproduce a plain
        run of the largest budget bit-for-bit."""
        spec = MethodSpec.parse("SRW2CSS", 4)
        snapshots = run_with_checkpoints(
            karate, spec, [500, 2_000, 5_000], seed=1
        )
        plain = run_estimation(karate, spec, 5_000, rng=random.Random(1))
        assert np.allclose(snapshots[-1].sums, plain.sums)
        assert snapshots[-1].valid_samples == plain.valid_samples

    def test_snapshot_steps(self, karate):
        spec = MethodSpec.parse("SRW1", 3)
        snapshots = run_with_checkpoints(
            karate, spec, [100, 400, 900], seed=2
        )
        assert [s.steps for s in snapshots] == [100, 400, 900]

    def test_monotone_accumulation(self, karate):
        spec = MethodSpec.parse("SRW1", 3)
        snapshots = run_with_checkpoints(
            karate, spec, [500, 1_000, 2_000], seed=3
        )
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later.valid_samples >= earlier.valid_samples
            assert (later.sums >= earlier.sums).all()

    def test_unsorted_and_duplicate_checkpoints_normalized(self, karate):
        spec = MethodSpec.parse("SRW1", 3)
        snapshots = run_with_checkpoints(
            karate, spec, [900, 100, 900], seed=4
        )
        assert [s.steps for s in snapshots] == [100, 900]

    def test_invalid_checkpoints(self, karate):
        spec = MethodSpec.parse("SRW1", 3)
        with pytest.raises(ValueError):
            run_with_checkpoints(karate, spec, [], seed=5)
        with pytest.raises(ValueError):
            run_with_checkpoints(karate, spec, [0, 100], seed=5)

    def test_anytime_error_trajectory(self, karate):
        """Later snapshots are (on average over a few seeds) closer to the
        truth — the anytime property."""
        truth = exact_concentrations(karate, 3)[1]
        spec = MethodSpec.parse("SRW1CSS", 3)
        early_errors, late_errors = [], []
        for seed in range(6):
            snaps = run_with_checkpoints(
                karate, spec, [300, 20_000], seed=seed
            )
            early_errors.append(abs(float(snaps[0].concentrations[1]) - truth))
            late_errors.append(abs(float(snaps[1].concentrations[1]) - truth))
        assert sum(late_errors) < sum(early_errors)

    def test_snapshots_are_independent_objects(self, karate):
        spec = MethodSpec.parse("SRW1", 3)
        snapshots = run_with_checkpoints(
            karate, spec, [100, 200], seed=6
        )
        snapshots[0].sums[0] = -1.0
        assert snapshots[1].sums[0] >= 0
