"""Declarative stopping specs: *what accuracy*, not *how many steps*.

Every estimation entry point accepts a ``target`` — a composable
:class:`StoppingRule` describing when a run may stop:

* :class:`StepBudget` — the classic raw step budget (never dynamic; a
  run with ``StepBudget(N)`` is bit-identical to the legacy ``budget=N``);
* :class:`Deadline` — wall-clock seconds;
* :class:`TargetStderr` — stop once the between-chain standard error of
  every graphlet type drops below a threshold;
* :class:`CIWidth` — stop once the (optionally relative) normal-theory
  confidence-interval width is below a threshold;
* :class:`TheoremBound` — stop once the step count reaches the paper's
  Theorem 3 Chernoff–Hoeffding sample-size bound (evaluated once, at
  ``bind`` time, on the actual graph).

Rules compose with ``|`` (stop when *any* is satisfied) and ``&`` (stop
when *all* are satisfied)::

    target = CIWidth(0.05) | StepBudget(100_000)   # whichever first

Dynamic rules are evaluated on a fixed cadence inside
:meth:`repro.core.session.Session.run`, the one stopping loop (a
continuous session's ``refresh`` is that loop over a topped-up budget;
the daemon checks the same rules on its pooled progress snapshots); a
spec whose only rule is a step budget never changes the execution path,
so fixed-seed runs that exhaust the same step count stay bit-identical
to the pre-spec API.  Every run with a dynamic target records its
outcome in ``meta["stopping"]`` through :func:`stopping_record`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Any, Optional, Tuple

import numpy as np

#: Step cap applied when a purely dynamic spec (no step-budget member)
#: is used without an explicit ``budget`` cap — open-ended targets must
#: still terminate.
DEFAULT_STEP_CAP = 200_000


@dataclass(frozen=True)
class StopProbe:
    """One stopping-rule evaluation point: the run state at a check."""

    estimate: Any  # repro.core.result.Estimate
    steps: int
    budget: int
    elapsed: float = 0.0

    @property
    def stderr_bound(self) -> Optional[float]:
        """Max finite per-type stderr, or None when unavailable."""
        stderr = getattr(self.estimate, "stderr", None)
        if stderr is None:
            return None
        values = np.asarray(stderr, dtype=np.float64)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return None
        return float(finite.max())


def stopping_record(
    spec: "StoppingRule",
    fired: Optional["StoppingRule"],
    *,
    early: bool,
    steps: int,
    **extra: int,
) -> dict:
    """The ``meta["stopping"]`` record of a run with a dynamic target.

    Names the spec, the rule that fired (None when unmet), whether the
    run stopped before its step cap and the steps it spent; ``extra``
    keys follow (``checks`` from :meth:`Session.run
    <repro.core.session.Session.run>`, ``extra_steps`` from the daemon).
    """
    return {
        "target": spec.describe(),
        "fired": None if fired is None else fired.describe(),
        "satisfied": fired is not None,
        "early": bool(early),
        "steps": int(steps),
        **extra,
    }


class StoppingRule:
    """Base class for composable stopping rules.

    ``dynamic`` rules need mid-run checks (stderr, CI width, deadlines);
    a non-dynamic spec (pure step budgets) is fully decided by the
    budget, so sessions run it on the unmodified legacy path.
    """

    #: Whether the rule can fire before the step budget is exhausted.
    dynamic: bool = True
    #: Whether the rule reads per-type standard errors (needs chains >= 2).
    requires_stderr: bool = False

    def satisfied(self, probe: StopProbe) -> bool:
        raise NotImplementedError

    def firing(self, probe: StopProbe) -> Optional["StoppingRule"]:
        """The rule that fired at ``probe`` (None when unsatisfied)."""
        return self if self.satisfied(probe) else None

    def describe(self) -> str:
        """Compact, :func:`parse_target`-compatible token."""
        raise NotImplementedError

    def step_cap(self) -> Optional[int]:
        """Step count at which the spec is *guaranteed* satisfied."""
        return None

    def _step_floor(self) -> int:
        """Steps below which the spec *cannot* be satisfied."""
        return 0

    def bind(self, graph, config) -> "StoppingRule":
        """Resolve graph-dependent quantities (Theorem 3) before a run."""
        return self

    def __or__(self, other: "StoppingRule") -> "StoppingRule":
        return AnyOf(_flatten(AnyOf, self) + _flatten(AnyOf, other))

    def __and__(self, other: "StoppingRule") -> "StoppingRule":
        return AllOf(_flatten(AllOf, self) + _flatten(AllOf, other))


def _format(value: float) -> str:
    return f"{value:g}"


@dataclass(frozen=True)
class StepBudget(StoppingRule):
    """Stop after ``steps`` budget units — the legacy contract."""

    steps: int
    dynamic = False

    def __post_init__(self) -> None:
        if int(self.steps) <= 0:
            raise ValueError(f"steps must be positive, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))

    def satisfied(self, probe: StopProbe) -> bool:
        return probe.steps >= self.steps

    def describe(self) -> str:
        return f"steps:{self.steps}"

    def step_cap(self) -> Optional[int]:
        return self.steps

    def _step_floor(self) -> int:
        return self.steps


@dataclass(frozen=True)
class Deadline(StoppingRule):
    """Stop once ``seconds`` of estimation wall-clock have elapsed."""

    seconds: float

    def __post_init__(self) -> None:
        if not self.seconds > 0:
            raise ValueError(f"seconds must be positive, got {self.seconds}")
        object.__setattr__(self, "seconds", float(self.seconds))

    def satisfied(self, probe: StopProbe) -> bool:
        return probe.elapsed >= self.seconds

    def describe(self) -> str:
        return f"deadline:{_format(self.seconds)}"


@dataclass(frozen=True)
class TargetStderr(StoppingRule):
    """Stop once every finite per-type stderr is ``<= value``.

    Standard errors come from between-chain variance, so the rule can
    only fire on multi-chain (or pooled fanout) runs; with a single
    chain it simply never fires and the step cap decides.
    """

    value: float
    requires_stderr = True

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise ValueError(f"value must be positive, got {self.value}")
        object.__setattr__(self, "value", float(self.value))

    def satisfied(self, probe: StopProbe) -> bool:
        bound = probe.stderr_bound
        return bound is not None and bound <= self.value

    def describe(self) -> str:
        return f"stderr:{_format(self.value)}"


@dataclass(frozen=True)
class CIWidth(StoppingRule):
    """Stop once the normal-theory CI is narrower than ``width``.

    The full width of the two-sided interval, ``2 z stderr_i``, must drop
    below ``width`` for every type with a finite stderr.  With
    ``relative=True`` the width is measured in units of the estimated
    concentration (types with zero concentration are excluded — an
    unreachable type would otherwise make any relative target vacuous).
    """

    width: float
    confidence: float = 0.95
    relative: bool = False
    requires_stderr = True

    def __post_init__(self) -> None:
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")
        if not 0 < self.confidence < 1:
            raise ValueError(
                f"confidence must lie in (0, 1), got {self.confidence}"
            )
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "confidence", float(self.confidence))

    @property
    def z(self) -> float:
        """Two-sided normal quantile for ``confidence``."""
        return NormalDist().inv_cdf(0.5 + self.confidence / 2.0)

    def satisfied(self, probe: StopProbe) -> bool:
        stderr = getattr(probe.estimate, "stderr", None)
        if stderr is None:
            return False
        stderr = np.asarray(stderr, dtype=np.float64)
        finite = np.isfinite(stderr)
        if not finite.any():
            return False
        if not self.relative:
            widths = 2.0 * self.z * stderr[finite]
            return bool(widths.max() <= self.width)
        try:
            conc = np.asarray(probe.estimate.concentrations, dtype=np.float64)
        except ValueError:
            return False
        mask = finite & np.isfinite(conc) & (conc > 0)
        if not mask.any():
            return False
        widths = 2.0 * self.z * stderr[mask] / conc[mask]
        return bool(widths.max() <= self.width)

    def describe(self) -> str:
        token = "rci" if self.relative else "ci"
        text = f"{token}:{_format(self.width)}"
        if self.confidence != 0.95:
            text += f"@{_format(self.confidence)}"
        return text


@dataclass(frozen=True)
class TheoremBound(StoppingRule):
    """Stop once steps reach the Theorem 3 sample-size bound.

    The bound needs exact counts and the G(d) spectrum, so it is
    evaluated *once*, at :meth:`bind` time (small graphs only — the same
    regime :func:`repro.core.bounds.sample_size_bound` targets), and the
    resulting sample size becomes a step floor.  ``css=True`` uses the
    §4.1 CSS bound instead.
    """

    epsilon: float = 0.1
    delta: float = 0.1
    graphlet_index: int = 0
    css: bool = False
    xi: float = 1.0
    required: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    def satisfied(self, probe: StopProbe) -> bool:
        return self.required is not None and probe.steps >= self.required

    def describe(self) -> str:
        text = (
            f"theorem3:{_format(self.epsilon)}:{_format(self.delta)}"
            f":g{self.graphlet_index}"
        )
        if self.css:
            text += ":css"
        if self.required is not None:
            text += f"(n>={_format(math.ceil(self.required))})"
        return text

    def bind(self, graph, config) -> "TheoremBound":
        if self.required is not None:
            return self
        from .bounds import css_sample_size_bound, sample_size_bound
        from .estimator import MethodSpec

        if config.k is None:
            raise ValueError(
                "TheoremBound needs an explicit graphlet size k in the config"
            )
        spec = MethodSpec.parse(config.method, config.k)
        bound_fn = css_sample_size_bound if self.css else sample_size_bound
        report = bound_fn(
            graph,
            spec.k,
            spec.d,
            self.graphlet_index,
            epsilon=self.epsilon,
            delta=self.delta,
            xi=self.xi,
        )
        return replace(self, required=float(report.sample_size))


def _flatten(cls, rule: StoppingRule) -> Tuple[StoppingRule, ...]:
    if isinstance(rule, cls):
        return rule.members
    if not isinstance(rule, StoppingRule):
        raise TypeError(f"expected a StoppingRule, got {rule!r}")
    return (rule,)


def _dedupe(members: Tuple[StoppingRule, ...]) -> Tuple[StoppingRule, ...]:
    seen = []
    for member in members:
        if member not in seen:
            seen.append(member)
    return tuple(seen)


@dataclass(frozen=True)
class _Composite(StoppingRule):
    members: Tuple[StoppingRule, ...]

    def __post_init__(self) -> None:
        flat = []
        for member in self.members:
            flat.extend(_flatten(type(self), member))
        members = _dedupe(tuple(flat))
        if not members:
            raise ValueError("a composite stopping rule needs members")
        object.__setattr__(self, "members", members)

    @property
    def dynamic(self) -> bool:  # type: ignore[override]
        return any(member.dynamic for member in self.members)

    @property
    def requires_stderr(self) -> bool:  # type: ignore[override]
        return any(member.requires_stderr for member in self.members)

    def bind(self, graph, config) -> "StoppingRule":
        return type(self)(
            tuple(member.bind(graph, config) for member in self.members)
        )


@dataclass(frozen=True)
class AnyOf(_Composite):
    """Satisfied when *any* member is (``a | b``)."""

    def satisfied(self, probe: StopProbe) -> bool:
        return any(member.satisfied(probe) for member in self.members)

    def firing(self, probe: StopProbe) -> Optional[StoppingRule]:
        for member in self.members:
            fired = member.firing(probe)
            if fired is not None:
                return fired
        return None

    def describe(self) -> str:
        return "|".join(member.describe() for member in self.members)

    def step_cap(self) -> Optional[int]:
        caps = [c for c in (m.step_cap() for m in self.members) if c is not None]
        return min(caps) if caps else None

    def _step_floor(self) -> int:
        return min(member._step_floor() for member in self.members)


@dataclass(frozen=True)
class AllOf(_Composite):
    """Satisfied when *all* members are (``a & b``)."""

    def satisfied(self, probe: StopProbe) -> bool:
        return all(member.satisfied(probe) for member in self.members)

    def describe(self) -> str:
        return "&".join(member.describe() for member in self.members)

    def step_cap(self) -> Optional[int]:
        caps = [member.step_cap() for member in self.members]
        if any(cap is None for cap in caps):
            return None
        return max(caps)

    def _step_floor(self) -> int:
        return max(member._step_floor() for member in self.members)


def _parse_token(token: str) -> StoppingRule:
    token = token.strip()
    if token.isdigit():
        return StepBudget(int(token))
    kind, sep, rest = token.partition(":")
    if not sep or not rest:
        raise ValueError(
            f"unparseable stopping token {token!r} (expected kind:value)"
        )
    kind = kind.strip().lower()
    if kind == "steps":
        return StepBudget(int(rest))
    if kind == "deadline":
        return Deadline(float(rest))
    if kind == "stderr":
        return TargetStderr(float(rest))
    if kind in ("ci", "rci"):
        width, at, confidence = rest.partition("@")
        return CIWidth(
            float(width),
            confidence=float(confidence) if at else 0.95,
            relative=(kind == "rci"),
        )
    raise ValueError(
        f"unknown stopping rule {kind!r} "
        "(expected steps / deadline / stderr / ci / rci)"
    )


def parse_target(text: str) -> StoppingRule:
    """Parse the CLI/spec grammar: tokens joined by ``|`` or ``&``.

    ``"ci:0.05|steps:100000"`` means *stop at a 0.05 CI width or after
    100k steps, whichever first*.  Mixing ``|`` and ``&`` in one string
    is rejected (compose programmatically for that).
    """
    text = str(text).strip()
    if not text:
        raise ValueError("empty stopping target")
    if "|" in text and "&" in text:
        raise ValueError(
            f"stopping target {text!r} mixes '|' and '&'; "
            "compose rules programmatically instead"
        )
    if "|" in text:
        return AnyOf(tuple(_parse_token(tok) for tok in text.split("|")))
    if "&" in text:
        return AllOf(tuple(_parse_token(tok) for tok in text.split("&")))
    return _parse_token(text)


def as_stopping_spec(value) -> StoppingRule:
    """Coerce a user-facing target into a :class:`StoppingRule`.

    Accepts a rule (returned as-is), a positive int (a step budget), or
    a :func:`parse_target` string.
    """
    if isinstance(value, StoppingRule):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as a stopping target")
    if isinstance(value, (int, np.integer)):
        return StepBudget(int(value))
    if isinstance(value, str):
        return parse_target(value)
    raise TypeError(
        f"cannot interpret {value!r} as a stopping target "
        "(expected a StoppingRule, an int step budget, or a spec string)"
    )
