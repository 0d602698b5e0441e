"""Declarative stopping specs (ISSUE 8 tentpole + satellite 3).

Pins the three contracts of :mod:`repro.core.stopping`:

* **Bit-identity** — ``target=StepBudget(N)`` is byte-for-byte the
  legacy ``budget=N`` run (hypothesis, across the framework methods);
  ``EstimationConfig(budget=N)`` without a target is an error.
* **Monotonicity** — with a fixed seed and cadence, loosening a
  variance target never makes a run stop *later*.
* **Provenance** — an early-stopped estimate's ``meta["stopping"]``
  records the spec, the rule that fired, and the steps actually spent;
  a pure step-budget run carries no stopping meta at all.  One-shot
  runs, continuous refreshes and daemon finals share the record's
  schema, and a refresh honours its step cap exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import estimate
from repro.core import (
    AllOf,
    AnyOf,
    CIWidth,
    Deadline,
    EstimationConfig,
    StepBudget,
    StoppingRule,
    TargetStderr,
    TheoremBound,
    parse_target,
)
from repro.core.stopping import StopProbe, as_stopping_spec
from repro.estimators import prepare, run_config


def canon(result) -> dict:
    """``Estimate.to_dict()`` minus wall-clock noise."""
    data = result.to_dict()
    data.pop("elapsed_seconds", None)
    meta = data.get("meta")
    if isinstance(meta, dict):
        for key in [k for k in meta if k.endswith("_seconds")]:
            del meta[key]
    return data


# ----------------------------------------------------------------------
# Bit-identity: StepBudget(N) == legacy budget=N
# ----------------------------------------------------------------------
class TestBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        method=st.sampled_from(["srw1", "srw2css", "srw3css"]),
        budget=st.integers(min_value=200, max_value=2_000),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_step_budget_equals_legacy_budget(self, karate, method, budget, seed):
        k = {"srw1": 3, "srw2css": 4, "srw3css": 5}[method]
        legacy = estimate(karate, method, k=k, budget=budget, seed=seed)
        spec = estimate(karate, method, k=k, target=StepBudget(budget), seed=seed)
        assert canon(legacy) == canon(spec)
        # A pure step budget never annotates the estimate.
        assert "stopping" not in spec.meta
        assert spec.steps == budget

    def test_config_budget_without_a_target_is_an_error(self):
        with pytest.raises(ValueError, match="target="):
            EstimationConfig(method="srw2css", k=4, budget=1_500, seed=9)
        config = EstimationConfig(method="srw2css", k=4, target=1_500, seed=9)
        assert config.budget == 1_500
        assert config.target == StepBudget(1_500)

    def test_budget_conflicting_with_step_cap_is_an_error(self):
        with pytest.raises(ValueError, match="conflicts"):
            EstimationConfig(
                method="srw1", k=3, budget=5_000, target=StepBudget(4_000)
            )

    def test_budget_caps_an_open_ended_target(self):
        config = EstimationConfig(
            method="srw1", k=3, budget=7_000, target=TargetStderr(0.01)
        )
        assert config.budget == 7_000
        assert config.target.dynamic


# ----------------------------------------------------------------------
# Monotonic early stopping
# ----------------------------------------------------------------------
class TestMonotonicity:
    def _steps_at(self, graph, rule) -> int:
        result = estimate(
            graph,
            "srw1",
            k=3,
            budget=20_000,
            chains=4,
            backend="csr",
            seed=11,
            target=rule,
        )
        stopping = result.meta["stopping"]
        assert stopping["steps"] == result.steps
        return result.steps

    @settings(max_examples=6, deadline=None)
    @given(
        pair=st.tuples(
            st.floats(min_value=1e-4, max_value=0.3),
            st.floats(min_value=1e-4, max_value=0.3),
        )
    )
    def test_looser_stderr_target_never_stops_later(self, karate, pair):
        tight, loose = sorted(pair)
        assert self._steps_at(karate, TargetStderr(loose)) <= self._steps_at(
            karate, TargetStderr(tight)
        )

    def test_looser_ci_width_never_stops_later(self, karate):
        steps = [
            self._steps_at(karate, CIWidth(width))
            for width in (0.4, 0.1, 0.02, 0.002)
        ]
        assert steps == sorted(steps)

    def test_fired_rule_and_steps_are_recorded(self, karate):
        result = estimate(
            karate,
            "srw1",
            k=3,
            budget=20_000,
            chains=4,
            backend="csr",
            seed=11,
            target=TargetStderr(0.05) | StepBudget(20_000),
        )
        stopping = result.meta["stopping"]
        assert stopping["target"] == "stderr:0.05|steps:20000"
        assert stopping["fired"] == "stderr:0.05"
        assert stopping["satisfied"] and stopping["early"]
        assert 0 < stopping["steps"] < 20_000
        assert result.steps == stopping["steps"]

    def test_unreachable_target_spends_the_whole_cap(self, karate):
        result = estimate(
            karate,
            "srw1",
            k=3,
            budget=4_000,
            chains=4,
            backend="csr",
            seed=11,
            target=TargetStderr(1e-12),
        )
        stopping = result.meta["stopping"]
        assert result.steps == 4_000
        assert not stopping["satisfied"] and not stopping["early"]

    def test_single_chain_stderr_target_cannot_fire(self, karate):
        result = estimate(
            karate, "srw1", k=3, budget=3_000, seed=2, target=TargetStderr(1.0)
        )
        assert result.steps == 3_000
        assert not result.meta["stopping"]["satisfied"]


# ----------------------------------------------------------------------
# Rule algebra, parsing, and the probe
# ----------------------------------------------------------------------
class TestRules:
    def test_composition_flattens_and_dedupes(self):
        spec = TargetStderr(0.1) | StepBudget(100) | TargetStderr(0.1)
        assert isinstance(spec, AnyOf)
        assert spec.members == (TargetStderr(0.1), StepBudget(100))
        assert spec.dynamic and spec.requires_stderr
        assert spec.step_cap() == 100

    def test_allof_cap_needs_every_member_capped(self):
        both = StepBudget(100) & StepBudget(300)
        assert isinstance(both, AllOf)
        assert both.step_cap() == 300
        assert (StepBudget(100) & TargetStderr(0.1)).step_cap() is None

    def test_deadline_fires_on_elapsed(self):
        probe = StopProbe(estimate=None, steps=10, budget=100, elapsed=2.5)
        assert Deadline(2.0).satisfied(probe)
        assert not Deadline(3.0).satisfied(probe)

    def test_validation_rejects_nonpositive_thresholds(self):
        with pytest.raises(ValueError):
            StepBudget(0)
        with pytest.raises(ValueError):
            TargetStderr(0.0)
        with pytest.raises(ValueError):
            CIWidth(-0.1)
        with pytest.raises(ValueError, match="confidence"):
            CIWidth(0.1, confidence=1.0)
        with pytest.raises(ValueError, match="epsilon"):
            TheoremBound(epsilon=0.0)
        with pytest.raises(ValueError, match="delta"):
            TheoremBound(delta=1.0)

    def test_parse_target_round_trips_describe(self):
        for text in (
            "steps:5000",
            "deadline:2.5",
            "stderr:0.05",
            "ci:0.1",
            "rci:0.2",
            "ci:0.1@0.99",
            "stderr:0.05|steps:5000",
            "deadline:2.5&steps:5000",
        ):
            assert parse_target(text).describe() == text

    def test_parse_target_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_target("")
        with pytest.raises(ValueError, match="unknown stopping rule"):
            parse_target("pixie:3")
        with pytest.raises(ValueError, match="mixes"):
            parse_target("ci:0.1|steps:10&deadline:5")

    def test_as_stopping_spec_coercions(self):
        assert as_stopping_spec(5_000) == StepBudget(5_000)
        assert as_stopping_spec("5000") == StepBudget(5_000)
        rule = TargetStderr(0.1)
        assert as_stopping_spec(rule) is rule
        with pytest.raises(TypeError):
            as_stopping_spec(True)
        with pytest.raises(TypeError):
            as_stopping_spec(1.5)

    def test_theorem_bound_binds_to_the_graph(self, karate):
        result = estimate(
            karate,
            "srw1",
            k=3,
            budget=50_000,
            seed=4,
            target=TheoremBound(epsilon=0.5, delta=0.5, graphlet_index=1),
        )
        stopping = result.meta["stopping"]
        assert stopping["satisfied"]
        assert stopping["fired"].startswith("theorem3:0.5:0.5:g1(n>=")
        assert result.steps < 50_000

    def test_theorem_bound_needs_k(self, karate):
        config = EstimationConfig(
            method="srw1", budget=1_000, target=TheoremBound()
        )
        with pytest.raises(ValueError, match="graphlet size k"):
            run_config(karate, config)


# ----------------------------------------------------------------------
# Session.run cadence
# ----------------------------------------------------------------------
class TestRunCadence:
    def test_check_every_controls_the_stop_granularity(self, karate):
        coarse = estimate(
            karate, "srw1", k=3, budget=8_000, chains=4, backend="csr",
            seed=11, target=TargetStderr(0.05), check_every=4_000,
        )
        fine = estimate(
            karate, "srw1", k=3, budget=8_000, chains=4, backend="csr",
            seed=11, target=TargetStderr(0.05), check_every=500,
        )
        assert fine.steps <= coarse.steps
        assert coarse.steps % 4_000 == 0
        assert fine.steps % 500 == 0

    def test_check_every_must_be_positive(self, karate):
        with pytest.raises(ValueError, match="check_every"):
            estimate(
                karate, "srw1", k=3, budget=1_000, seed=1,
                target=TargetStderr(0.1), check_every=0,
            )

    def test_estimate_accepts_spec_strings(self, karate):
        result = estimate(
            karate, "srw1", k=3, budget=20_000, chains=4, backend="csr",
            seed=11, target="stderr:0.05|steps:20000",
        )
        assert result.meta["stopping"]["fired"] == "stderr:0.05"

    def test_stopping_rule_base_is_abstract(self):
        probe = StopProbe(estimate=None, steps=1, budget=2)
        with pytest.raises(NotImplementedError):
            StoppingRule().satisfied(probe)
        with pytest.raises(NotImplementedError):
            StoppingRule().describe()


class _StepsReached(StoppingRule):
    """Test-only dynamic rule: fires once ``probe.steps`` reaches a
    threshold — deterministic, unlike the variance rules, so cadence
    regressions pin exactly which check window fired."""

    def __init__(self, threshold: int) -> None:
        self.threshold = int(threshold)

    def satisfied(self, probe: StopProbe) -> bool:
        return probe.steps >= self.threshold

    def describe(self) -> str:
        return f"reached:{self.threshold}"


class TestCadenceTailWindows:
    """ISSUE 9 satellite: the final partial check window is a real one.

    When ``check_every`` does not divide the budget, the run's last
    window is shorter than the cadence — dynamic rules must still be
    evaluated there (a rule first met in the tail fires; an unmet one
    is *checked*, not skipped), and a refresh cap must be honored
    exactly rather than overshot by a full epoch.
    """

    def test_rule_met_only_in_the_partial_tail_still_fires(self, karate):
        # Windows of 4000/4000/1000: only the 1000-step tail can satisfy
        # the threshold, so a skipped tail check would report unmet.
        result = estimate(
            karate, "srw1", k=3, budget=9_000, chains=4, backend="csr",
            seed=11, target=_StepsReached(8_001), check_every=4_000,
        )
        assert result.steps == 9_000
        stopping = result.meta["stopping"]
        assert stopping["satisfied"]
        assert stopping["fired"] == "reached:8001"
        assert stopping["checks"] == 3

    def test_unmet_rule_is_still_checked_in_the_tail(self, karate):
        result = estimate(
            karate, "srw1", k=3, budget=9_000, chains=4, backend="csr",
            seed=11, target=TargetStderr(1e-12), check_every=4_000,
        )
        assert result.steps == 9_000
        stopping = result.meta["stopping"]
        assert not stopping["satisfied"]
        assert stopping["checks"] == 3  # 4000 + 4000 + the 1000 tail

    def test_refresh_cap_is_honored_exactly(self, karate):
        # cap 2500, epochs of 1000: the tail epoch must clamp to 500,
        # never overshoot to a full third epoch (3000 steps).
        from repro.streaming import ContinuousSession

        session = ContinuousSession(
            karate, "SRW1", k=3, chains=4, refresh_budget=1_000, seed=5
        )
        snapshot = session.refresh(target="stderr:1e-12|steps:2500")
        stopping = snapshot.meta["stopping"]
        assert stopping["steps"] == 2_500
        assert stopping["checks"] == 3
        assert session.consumed == 2_500
        assert not stopping["early"]

    def test_refresh_rule_met_in_the_clamped_tail_fires(self, karate):
        from repro.streaming import ContinuousSession

        session = ContinuousSession(
            karate, "SRW1", k=3, chains=4, refresh_budget=1_000, seed=5
        )
        spec = _StepsReached(2_400) | StepBudget(2_500)
        snapshot = session.refresh(target=spec)
        stopping = snapshot.meta["stopping"]
        assert stopping["steps"] == 2_500  # 1000 + 1000 + clamped 500
        assert stopping["satisfied"]
        assert stopping["fired"] == "reached:2400"


class _Recorder(StoppingRule):
    """Test-only dynamic rule that never fires and keeps every probe."""

    def __init__(self) -> None:
        self.probes = []

    def satisfied(self, probe: StopProbe) -> bool:
        self.probes.append(probe)
        return False

    def describe(self) -> str:
        return "recorder"


def _refresher(karate):
    from repro.streaming import ContinuousSession

    return ContinuousSession(
        karate, "SRW1", k=3, chains=4, refresh_budget=1_000, seed=5
    )


class TestRefreshCap:
    """A refresh walks exactly its step cap unless a dynamic rule fires:
    the target's own cap when it has one, else 8 epochs for an
    open-ended dynamic target, else one epoch."""

    def test_short_tail_merges_instead_of_overshooting(self, karate):
        # Epochs of 1000 leave a 2-step tail, below chains=4: it joins
        # the second epoch rather than growing to a 4-step third one.
        session = _refresher(karate)
        stopping = session.refresh(target="stderr:1e-12|steps:2002").meta["stopping"]
        assert session.consumed == stopping["steps"] == 2_002
        assert stopping["checks"] == 2
        assert not stopping["early"]

    def test_cap_below_chains_is_an_error(self, karate):
        session = _refresher(karate)
        with pytest.raises(ValueError, match="step cap 3 < chains=4"):
            session.refresh(target="stderr:1e-12|steps:3")
        assert session.consumed == 0

    @pytest.mark.parametrize("target", ["steps:500", 500, StepBudget(500)])
    def test_static_cap_below_the_epoch_is_honoured(self, karate, target):
        session = _refresher(karate)
        snapshot = session.refresh(target=target)
        assert session.consumed == snapshot.steps == 500
        assert "stopping" not in snapshot.meta

    def test_static_and_dynamic_caps_agree(self, karate):
        static, dynamic = _refresher(karate), _refresher(karate)
        static.refresh(target="steps:500")
        stopping = dynamic.refresh(target="stderr:1e-12|steps:500").meta["stopping"]
        assert static.consumed == dynamic.consumed == stopping["steps"] == 500

    def test_open_ended_target_gets_eight_epochs(self, karate):
        session = _refresher(karate)
        stopping = session.refresh(target=TargetStderr(1e-12)).meta["stopping"]
        assert session.consumed == stopping["steps"] == 8_000
        assert stopping["checks"] == 8

    def test_no_target_walks_one_epoch(self, karate):
        session = _refresher(karate)
        assert session.refresh(steps=600).steps == 600
        assert session.refresh().steps == 1_600

    def test_each_refresh_measures_from_its_own_call(self, karate):
        session = _refresher(karate)
        session.refresh()
        rule = _Recorder()
        stopping = session.refresh(target=rule | StepBudget(2_500)).meta["stopping"]
        assert [(p.steps, p.budget) for p in rule.probes] == [
            (1_000, 2_500), (2_000, 2_500), (2_500, 2_500),
        ]
        assert stopping["steps"] == 2_500
        assert session.consumed == 3_500


class TestRunMeasuresFromTheCall:
    def _session(self, karate):
        return prepare(
            karate,
            EstimationConfig(
                method="srw1", k=3, chains=4, backend="csr", seed=11,
                target=8_000,
            ),
        )

    def test_stepped_session_counts_only_its_own_steps(self, karate):
        session = self._session(karate)
        session.step(3_000)
        before = session.snapshot().elapsed_seconds
        rule = _Recorder()
        result = session.run(rule, check_every=2_500)
        assert [(p.steps, p.budget) for p in rule.probes] == [
            (2_500, 5_000), (5_000, 5_000),
        ]
        assert rule.probes[-1].elapsed == result.elapsed_seconds - before
        stopping = result.meta["stopping"]
        assert stopping["steps"] == 5_000 and stopping["checks"] == 2
        assert not stopping["early"]
        assert result.steps == 8_000

    def test_fresh_session_keeps_its_construction_time(self, karate):
        session = self._session(karate)
        built = session.snapshot().elapsed_seconds
        assert built > 0
        rule = _Recorder()
        result = session.run(rule, check_every=8_000)
        assert [(p.steps, p.budget) for p in rule.probes] == [(8_000, 8_000)]
        assert rule.probes[0].elapsed == result.elapsed_seconds > built

    def test_stepped_session_fires_on_steps_since_the_call(self, karate):
        session = self._session(karate)
        session.step(3_000)
        result = session.run(_StepsReached(2_000), check_every=1_000)
        stopping = result.meta["stopping"]
        assert stopping["fired"] == "reached:2000" and stopping["early"]
        assert stopping["steps"] == 2_000 and stopping["checks"] == 2
        assert result.steps == 5_000


class TestOneRecordSchema:
    """Every site that records a dynamic target writes the same keys;
    only the documented extra key differs."""

    BASE = {"target", "fired", "satisfied", "early", "steps"}

    def test_run_refresh_and_daemon_share_the_record(self, karate):
        from repro.graphs import CSRGraph
        from repro.service import Daemon
        from repro.streaming import ContinuousSession

        spec = TargetStderr(1e-12)
        one_shot = estimate(
            karate, "srw1", k=3, budget=2_000, chains=4, backend="csr",
            seed=3, target=spec,
        )
        refresh = ContinuousSession(
            karate, "SRW1", k=3, chains=4, refresh_budget=500, seed=3
        ).refresh(target=spec)
        with Daemon(CSRGraph.from_graph(karate), workers=1) as service:
            served = service.estimate(
                "srw1", k=3, budget=2_000, chains=2, seed=3, target=spec
            )
        records = [r.meta["stopping"] for r in (one_shot, refresh, served)]
        assert set(records[0]) == set(records[1]) == self.BASE | {"checks"}
        assert set(records[2]) == self.BASE | {"extra_steps"}
        for record in records:
            assert record["target"] == "stderr:1e-12"
            assert record["fired"] is None and not record["satisfied"]
            assert not record["early"]
        assert [r["steps"] for r in records] == [2_000, 4_000, 2_000]


class TestStderrBound:
    """A daemon frame and a stopping check read one stderr bound."""

    @pytest.mark.parametrize(
        "stderr, expected",
        [
            (None, None),
            ([float("nan"), float("nan")], None),
            ([float("inf"), float("nan"), 0.25, 0.5], 0.5),
            ([0.1, 0.03], 0.1),
        ],
        ids=["none", "all-nan", "mixed", "finite"],
    )
    def test_snapshot_and_probe_agree(self, stderr, expected):
        from repro.core import Estimate
        from repro.service.messages import Snapshot

        est = Estimate(
            method="srw1", k=3, steps=10, samples=10,
            concentrations=np.array([0.5, 0.5]),
            stderr=None if stderr is None else np.array(stderr),
        )
        frame = Snapshot(request_id="r", seq=0, steps=10, budget=10, estimate=est)
        probe = StopProbe(estimate=est, steps=10, budget=10)
        assert frame.stderr_bound == probe.stderr_bound == expected

    def test_no_estimate(self):
        from repro.service.messages import Snapshot

        frame = Snapshot(request_id="r", seq=0, steps=0, budget=10)
        probe = StopProbe(estimate=None, steps=0, budget=10)
        assert frame.stderr_bound is None and probe.stderr_bound is None
