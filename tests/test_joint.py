"""Tests for joint multi-size estimation (the MSS extension)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.estimator import MethodSpec, run_estimation
from repro.core.joint import run_joint_estimation
from repro.exact import exact_concentrations
from repro.graphlets import graphlet_by_name
from repro.graphs import RestrictedGraph


class TestValidation:
    def test_empty_sizes(self, karate):
        with pytest.raises(ValueError):
            run_joint_estimation(karate, [], d=2, steps=100)

    def test_size_too_small(self, karate):
        with pytest.raises(ValueError):
            run_joint_estimation(karate, [2], d=1, steps=100)

    def test_d_too_large_for_k(self, karate):
        with pytest.raises(ValueError):
            run_joint_estimation(karate, [3], d=3, steps=100)

    def test_steps_positive(self, karate):
        with pytest.raises(ValueError):
            run_joint_estimation(karate, [3, 4], d=2, steps=0)


class TestJointAccuracy:
    def test_all_sizes_converge_basic(self, karate):
        results = run_joint_estimation(
            karate, [3, 4, 5], d=2, steps=40_000, rng=random.Random(1)
        )
        for k in (3, 4, 5):
            truth = exact_concentrations(karate, k)
            estimate = results[k].concentrations
            for index, value in truth.items():
                if value > 0.02:
                    assert abs(estimate[index] - value) < 0.3 * value + 0.01, (k, index)

    def test_all_sizes_converge_css(self, karate):
        results = run_joint_estimation(
            karate, [3, 4, 5], d=2, steps=40_000, css=True, rng=random.Random(2)
        )
        for k in (3, 4, 5):
            truth = exact_concentrations(karate, k)
            estimate = results[k].concentrations
            for index, value in truth.items():
                if value > 0.02:
                    assert abs(estimate[index] - value) < 0.3 * value + 0.01, (k, index)

    def test_nb_variant(self, karate):
        results = run_joint_estimation(
            karate, [3, 4], d=1, steps=30_000, nb=True, rng=random.Random(3)
        )
        truth = exact_concentrations(karate, 3)
        assert abs(results[3].concentrations[1] - truth[1]) < 0.1

    def test_srw1_star_unreachable_in_joint(self, karate):
        results = run_joint_estimation(
            karate, [3, 4], d=1, steps=5_000, rng=random.Random(4)
        )
        star = graphlet_by_name(4, "3-star").index
        assert star in results[4].unreachable
        assert results[4].sums[star] == 0


class TestJointSemantics:
    def test_shared_walk_metadata(self, karate):
        results = run_joint_estimation(
            karate, [3, 4, 5], d=2, steps=2_000, rng=random.Random(5)
        )
        assert {r.steps for r in results.values()} == {2_000}
        assert {r.method for r in results.values()} == {"SRW2"}
        # Shorter windows cover k nodes more often.
        assert results[3].valid_samples >= results[4].valid_samples
        assert results[4].valid_samples >= results[5].valid_samples

    def test_duplicate_sizes_deduplicated(self, karate):
        results = run_joint_estimation(
            karate, [4, 4, 3], d=2, steps=1_000, rng=random.Random(6)
        )
        assert sorted(results) == [3, 4]

    def test_reproducible(self, karate):
        a = run_joint_estimation(karate, [3, 4], d=2, steps=2_000, rng=random.Random(7))
        b = run_joint_estimation(karate, [3, 4], d=2, steps=2_000, rng=random.Random(7))
        for k in (3, 4):
            assert np.array_equal(a[k].sums, b[k].sums)

    def test_restricted_access_amortization(self, karate):
        """One crawl serves three sizes: the API-call count equals that of
        a single-size crawl of the same length."""
        api = RestrictedGraph(karate, seed_node=0)
        run_joint_estimation(api, [3, 4, 5], d=2, steps=3_000, rng=random.Random(8))
        joint_calls = api.api_calls

        api_single = RestrictedGraph(karate, seed_node=0)
        run_joint_estimation(api_single, [5], d=2, steps=3_000, rng=random.Random(8))
        assert joint_calls == api_single.api_calls

    def test_l2_size_matches_plain_psrw_weighting(self, karate):
        """In the joint run, the k = d + 1 size uses l = 2 windows whose
        weights coincide with PSRW's 1/alpha weighting."""
        results = run_joint_estimation(
            karate, [3], d=2, steps=5_000, css=True, rng=random.Random(9)
        )
        truth = exact_concentrations(karate, 3)
        assert abs(results[3].concentrations[1] - truth[1]) < 0.15 * truth[1] + 0.01


class TestStandaloneIdentity:
    """Each size of a joint run is its standalone run: windows start at
    the same walk step, so sums and counts agree bit for bit."""

    @pytest.mark.parametrize(
        "css, nb", [(False, False), (True, False), (False, True)],
        ids=["basic", "css", "nb"],
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_size_equals_its_standalone_run(self, karate, d, css, nb):
        # k = d + 1 has l = 2: under css=True it runs the basic weighting.
        ks = [k for k in (3, 4, 5) if k >= d + 1]
        steps = 1_500
        joint = run_joint_estimation(
            karate, ks, d=d, steps=steps, css=css, nb=nb, rng=random.Random(23)
        )
        for k in ks:
            spec = MethodSpec(k, d, css=css and k - d + 1 > 2, nb=nb)
            alone = run_estimation(karate, spec, steps, rng=random.Random(23))
            assert np.array_equal(joint[k].sums, alone.sums), k
            assert np.array_equal(joint[k].sample_counts, alone.sample_counts), k
            assert joint[k].valid_samples == alone.valid_samples
            assert joint[k].method == f"SRW{d}" + ("CSS" if css else "") + (
                "NB" if nb else ""
            )

    def test_steps_past_one_block(self, karate):
        """Sizes advance in rounds over a bounded buffer of the walk; a run
        longer than one round still matches."""
        from repro.core import joint as joint_mod

        steps = 2 * joint_mod.JOINT_BLOCK + 7
        joint = run_joint_estimation(
            karate, [3, 5], d=2, steps=steps, css=True, rng=random.Random(22)
        )
        for k in (3, 5):
            spec = MethodSpec(k, 2, css=k > 3)
            alone = run_estimation(karate, spec, steps, rng=random.Random(22))
            assert np.array_equal(joint[k].sums, alone.sums), k
