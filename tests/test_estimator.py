"""Tests for the estimation loop: spec parsing, convergence to exact
ground truth, count estimation, restricted access."""

from __future__ import annotations

import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from repro.core.estimator import MethodSpec, SRWSession, run_estimation
from repro.core.joint import run_joint_estimation
from repro.exact import exact_concentrations, exact_counts
from repro.graphlets import graphlet_by_name, graphlets
from repro.graphs import RestrictedGraph, read_edge_list, write_edge_list
from repro.relgraph import relationship_edge_count
from repro.walks import BatchFallbackWarning


class TestMethodSpec:
    @pytest.mark.parametrize(
        "name, k, expected",
        [
            ("SRW1", 3, (1, False, False)),
            ("SRW1CSS", 3, (1, True, False)),
            ("SRW1CSSNB", 3, (1, True, True)),
            ("SRW2NB", 3, (2, False, True)),
            ("SRW2CSS", 5, (2, True, False)),
            ("srw2css", 4, (2, True, False)),  # case-insensitive
        ],
    )
    def test_parse(self, name, k, expected):
        spec = MethodSpec.parse(name, k)
        assert (spec.d, spec.css, spec.nb) == expected

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            MethodSpec.parse("WALK2", 4)
        with pytest.raises(ValueError):
            MethodSpec.parse("SRW", 4)
        with pytest.raises(ValueError):
            MethodSpec.parse("SRW2XYZ", 4)

    def test_name_roundtrip(self):
        for name in ["SRW1", "SRW2CSS", "SRW1CSSNB", "SRW3NB"]:
            assert MethodSpec.parse(name, 5).name == name

    def test_l_property(self):
        assert MethodSpec(k=5, d=2).l == 4
        assert MethodSpec(k=3, d=1).l == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            MethodSpec(k=2, d=1)
        with pytest.raises(ValueError):
            MethodSpec(k=4, d=5)
        with pytest.raises(ValueError):
            MethodSpec(k=4, d=3, css=True)  # l = 2: CSS undefined


class TestConvergenceToExact:
    """Long single runs must land near exact concentrations (SLLN)."""

    @pytest.mark.parametrize(
        "method", ["SRW1", "SRW1CSS", "SRW1CSSNB", "SRW2", "SRW2NB"]
    )
    def test_k3_methods(self, karate, method):
        truth = exact_concentrations(karate, 3)
        spec = MethodSpec.parse(method, 3)
        result = run_estimation(karate, spec, 40_000, rng=random.Random(11))
        estimate = result.concentrations
        for index, value in truth.items():
            assert abs(estimate[index] - value) < 0.15 * value + 0.01

    @pytest.mark.parametrize("method", ["SRW2", "SRW2CSS", "SRW3"])
    def test_k4_methods(self, karate, method):
        truth = exact_concentrations(karate, 4)
        spec = MethodSpec.parse(method, 4)
        result = run_estimation(karate, spec, 40_000, rng=random.Random(12))
        estimate = result.concentrations
        for index, value in truth.items():
            assert abs(estimate[index] - value) < 0.3 * value + 0.01

    def test_k5_srw2css(self, karate):
        truth = exact_concentrations(karate, 5)
        spec = MethodSpec.parse("SRW2CSS", 5)
        result = run_estimation(karate, spec, 40_000, rng=random.Random(13))
        estimate = result.concentrations
        # Check the dominant types (rare 5-node types need larger budgets).
        for index, value in truth.items():
            if value > 0.02:
                assert abs(estimate[index] - value) < 0.3 * value + 0.01

    def test_psrw_k5(self, karate):
        """PSRW = SRW4 (l = 2, no middle degrees)."""
        truth = exact_concentrations(karate, 5)
        result = run_estimation(
            karate, MethodSpec(k=5, d=4), 2_000, rng=random.Random(14)
        )
        dominant = max(truth, key=truth.get)
        assert abs(result.concentrations[dominant] - truth[dominant]) < 0.2

    def test_srw_on_gk(self, karate):
        """The degenerate d = k walk (l = 1) weights by 1/deg."""
        truth = exact_concentrations(karate, 3)
        result = run_estimation(
            karate, MethodSpec(k=3, d=3), 4_000, rng=random.Random(15)
        )
        for index, value in truth.items():
            assert abs(result.concentrations[index] - value) < 0.15 * value + 0.02


class TestCountEstimation:
    def test_triangle_count_srw1(self, karate):
        truth = exact_counts(karate, 3)
        spec = MethodSpec.parse("SRW1CSS", 3)
        result = run_estimation(karate, spec, 60_000, rng=random.Random(16))
        counts = result.counts(relationship_edge_count(karate, 1))
        for index, value in truth.items():
            assert abs(counts[index] - value) < 0.2 * value + 2

    def test_four_node_counts_srw2(self, karate):
        truth = exact_counts(karate, 4)
        spec = MethodSpec.parse("SRW2CSS", 4)
        result = run_estimation(karate, spec, 60_000, rng=random.Random(17))
        counts = result.counts(relationship_edge_count(karate, 2))
        for index, value in truth.items():
            if value >= 30:
                assert abs(counts[index] - value) < 0.35 * value

    def test_counts_require_steps(self, karate):
        result = run_estimation(
            karate, MethodSpec(k=3, d=1), 100, rng=random.Random(0)
        )
        result.steps = 0
        with pytest.raises(ValueError):
            result.counts(karate.num_edges)


class TestResultSemantics:
    def test_reproducible_with_seed(self, karate):
        spec = MethodSpec.parse("SRW2", 4)
        a = run_estimation(karate, spec, 2_000, rng=random.Random(5))
        b = run_estimation(karate, spec, 2_000, rng=random.Random(5))
        assert np.array_equal(a.sums, b.sums)

    def test_steps_must_be_positive(self, karate):
        with pytest.raises(ValueError):
            run_estimation(karate, MethodSpec(k=3, d=1), 0)

    def test_valid_samples_bounded_by_steps(self, karate):
        result = run_estimation(
            karate, MethodSpec(k=3, d=1), 3_000, rng=random.Random(6)
        )
        assert 0 < result.valid_samples <= 3_000
        assert result.sample_counts.sum() == result.valid_samples

    def test_nb_produces_more_valid_samples(self, karate):
        """§4.2: NB-SRW reduces invalid samples."""
        base = run_estimation(
            karate, MethodSpec.parse("SRW1", 3), 20_000, rng=random.Random(7)
        )
        nb = run_estimation(
            karate, MethodSpec.parse("SRW1NB", 3), 20_000, rng=random.Random(7)
        )
        assert nb.valid_samples > base.valid_samples

    def test_unreachable_types_zero(self, karate):
        """SRW1 on 4-node graphlets cannot see the 3-star."""
        star = graphlet_by_name(4, "3-star").index
        result = run_estimation(
            karate, MethodSpec.parse("SRW1", 4), 10_000, rng=random.Random(8)
        )
        assert star in result.unreachable
        assert result.sums[star] == 0.0
        assert result.concentrations[star] == 0.0

    def test_concentrations_sum_to_one(self, karate):
        result = run_estimation(
            karate, MethodSpec.parse("SRW2CSS", 4), 5_000, rng=random.Random(9)
        )
        assert math.isclose(result.concentrations.sum(), 1.0, rel_tol=1e-9)

    def test_concentration_dict_names(self, karate):
        result = run_estimation(
            karate, MethodSpec.parse("SRW2", 4), 1_000, rng=random.Random(10)
        )
        d = result.concentration_dict()
        assert set(d) == {g.name for g in graphlets(4)}
        assert math.isclose(result.concentration_of("clique"), d["clique"])

    def test_burn_in_runs(self, karate):
        result = run_estimation(
            karate,
            MethodSpec.parse("SRW1", 3),
            1_000,
            rng=random.Random(11),
            burn_in=500,
        )
        assert result.steps == 1_000

    def test_elapsed_recorded(self, karate):
        result = run_estimation(
            karate, MethodSpec.parse("SRW1", 3), 500, rng=random.Random(12)
        )
        assert result.elapsed_seconds > 0


class TestRestrictedAccess:
    def test_walk_works_through_api(self, karate):
        api = RestrictedGraph(karate, seed_node=0)
        result = run_estimation(
            api, MethodSpec.parse("SRW1CSSNB", 3), 5_000,
            rng=random.Random(13), seed_node=0,
        )
        truth = exact_concentrations(karate, 3)
        assert abs(result.concentrations[1] - truth[1]) < 0.1
        assert result.api_calls is not None and result.api_calls > 0

    def test_api_calls_bounded_by_distinct_nodes(self, karate):
        api = RestrictedGraph(karate, seed_node=0)
        run_estimation(
            api, MethodSpec.parse("SRW1", 3), 10_000,
            rng=random.Random(14), seed_node=0,
        )
        assert api.api_calls <= karate.num_nodes

    def test_estimates_agree_with_full_access(self, karate):
        spec = MethodSpec.parse("SRW2", 4)
        full = run_estimation(karate, spec, 5_000, rng=random.Random(15))
        api = RestrictedGraph(karate, seed_node=0)
        restricted = run_estimation(
            api, spec, 5_000, rng=random.Random(15), seed_node=0
        )
        assert np.allclose(full.sums, restricted.sums)


class TestLoadedGraph:
    """A graph read from an edge-list file runs every SRW entry point, bit
    for bit like the same graph built through the constructor."""

    @pytest.fixture
    def loaded(self, karate, tmp_path):
        path = tmp_path / "karate.txt"
        write_edge_list(karate, path)
        return read_edge_list(path)[0]

    @pytest.mark.parametrize("chains", [1, 3])
    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "api"])
    def test_run_estimation(self, loaded, chains, restricted):
        spec = MethodSpec.parse("SRW2CSS", 4)

        def run(graph):
            graph = RestrictedGraph(graph) if restricted else graph
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BatchFallbackWarning)
                return run_estimation(
                    graph, spec, 300, rng=random.Random(5), chains=chains
                )

        got, want = run(loaded), run(loaded.copy())
        assert np.array_equal(got.sums, want.sums)
        assert got.api_calls == want.api_calls

    def test_run_joint_estimation(self, loaded):
        got, want = (
            run_joint_estimation(g, [3, 4], d=2, steps=300, rng=random.Random(6))
            for g in (loaded, loaded.copy())
        )
        for k in (3, 4):
            assert np.array_equal(got[k].sums, want[k].sums)


# (method, k, chains, burn_in) -> (api_calls and fetched_nodes after the
# one-shot run, the same after a ragged step, and for chains=1 a digest
# of the caller's rng state after each).  Budgets are small enough that
# neither run fetches all of karate, so any change in which neighbour
# lists a run retrieves, or in how many transitions it draws, moves a pin.
RESTRICTED_PINS = {
    ("SRW1", 3, 1, 0): (16, 16, 9, 9, "649d13a3d33cdaa8", "15c6cbd80552234e"),
    ("SRW1", 3, 1, 5): (16, 16, 11, 11, "c2aa33dc5ddff8cc", "bf101b8fff2ef0a1"),
    ("SRW1", 3, 3, 0): (19, 19, 10, 10, None, None),
    ("SRW1", 3, 3, 5): (21, 21, 18, 18, None, None),
    ("SRW1CSSNB", 3, 1, 0): (17, 17, 8, 8, "2fa668fbf2a461b2", "d3c4dbd30902bbe3"),
    ("SRW1CSSNB", 3, 1, 5): (19, 19, 11, 11, "3a1e38da3bccbccc", "77fb713b026793b6"),
    ("SRW1CSSNB", 3, 3, 0): (18, 18, 12, 12, None, None),
    ("SRW1CSSNB", 3, 3, 5): (24, 24, 16, 16, None, None),
    ("SRW2CSS", 4, 1, 0): (19, 19, 10, 10, "4ff6ea13b27bfcc1", "48d0c666c66977b1"),
    ("SRW2CSS", 4, 1, 5): (20, 20, 14, 14, "ef45254d6ffdff41", "33b047eb61b4466f"),
    ("SRW2CSS", 4, 3, 0): (21, 21, 12, 12, None, None),
    ("SRW2CSS", 4, 3, 5): (24, 24, 20, 20, None, None),
    ("SRW3", 4, 1, 0): (25, 25, 15, 15, "480f331f424bc631", "15c6cbd80552234e"),
    ("SRW3", 4, 1, 5): (26, 26, 20, 20, "ca770044099ec6e4", "bf101b8fff2ef0a1"),
    ("SRW3", 4, 3, 0): (18, 18, 13, 13, None, None),
    ("SRW3", 4, 3, 5): (22, 22, 17, 17, None, None),
    ("SRW3CSS", 5, 1, 0): (26, 26, 17, 17, "8be72128fffc0828", "d3c4dbd30902bbe3"),
    ("SRW3CSS", 5, 1, 5): (26, 26, 21, 21, "e639f134fa938b97", "bc589f182ac87ce2"),
    ("SRW3CSS", 5, 3, 0): (19, 19, 14, 14, None, None),
    ("SRW3CSS", 5, 3, 5): (23, 23, 18, 18, None, None),
    # l = 1: a chain steps only after counting its window.
    ("SRW3", 3, 1, 0): (25, 25, 14, 14, "c0ce70b5f6826ac1", "bc987c33678172d5"),
    ("SRW3", 3, 1, 5): (26, 26, 19, 19, "2fa668fbf2a461b2", "a0e697e95e5aad09"),
    ("SRW3", 3, 3, 0): (17, 17, 10, 10, None, None),
    ("SRW3", 3, 3, 5): (20, 20, 16, 16, None, None),
}


class TestRestrictedAccounting:
    """Exact crawl cost of fixed-seed runs through the API wrapper: which
    neighbour lists a run fetches, and how many transitions it draws
    from the caller's rng, one-shot and after a ragged ``step``."""

    BUDGET, RAGGED, SEED = 30, 13, 7

    def _run(self, karate, method, k, chains, burn_in, n):
        api = RestrictedGraph(karate, seed_node=0)
        rng = random.Random(self.SEED)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BatchFallbackWarning)
            session = SRWSession(
                api, MethodSpec.parse(method, k), self.BUDGET, rng=rng,
                chains=chains, burn_in=burn_in,
            )
        session.step(n)
        state = hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]
        return api.api_calls, api.fetched_nodes, state if chains == 1 else None

    @pytest.mark.parametrize("case", sorted(RESTRICTED_PINS), ids=str)
    def test_pinned_api_calls_and_rng_state(self, karate, case):
        one_shot = self._run(karate, *case, None)
        ragged = self._run(karate, *case, self.RAGGED)
        api, fetched, ragged_api, ragged_fetched, state, ragged_state = (
            RESTRICTED_PINS[case]
        )
        assert one_shot == (api, fetched, state)
        assert ragged == (ragged_api, ragged_fetched, ragged_state)
