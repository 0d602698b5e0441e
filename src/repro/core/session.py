"""The streaming estimator protocol: config, sessions, estimators.

Every estimation method is exposed through the same three-piece surface:

* an :class:`Estimator` — a stateless factory whose
  ``prepare(graph, config)`` binds a method to a graph and budget;
* a :class:`Session` — one streaming run: ``step(n)`` advances up to
  ``n`` budget units, ``snapshot()`` reads the current estimate without
  disturbing the stream, ``result()`` consumes the remaining budget and
  returns the final :class:`~repro.core.result.Estimate`;
* a declarative :class:`EstimationConfig` naming the method, graphlet
  size, budget and seeds.

The central registry lives in :mod:`repro.estimators`; anything that
iterates estimators generically (``evaluation/runner.py``, checkpointed
convergence studies, the CLI) drives them through this interface, so a
new method is one ``register()`` call away from every harness.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Protocol, Union, runtime_checkable

from .result import Estimate
from .stopping import (
    DEFAULT_STEP_CAP,
    StopProbe,
    StoppingRule,
    as_stopping_spec,
    stopping_record,
)

#: Step budget used when no ``target`` is given.
DEFAULT_BUDGET = 20_000


@dataclass
class EstimationConfig:
    """Declarative description of one estimation run.

    Parameters
    ----------
    method:
        Registry name (``"srw2css"``, ``"guise"``, ``"exact"``, …), any
        paper-grammar ``SRW{d}[CSS][NB]`` string, or ``"auto"`` to let
        :mod:`repro.estimators.selector` pick.
    k:
        Graphlet size; ``None`` lets the estimator pick its default
        (3 for the triadic baselines, 4 for 3-path sampling, …).
    target:
        Declarative stopping spec — a
        :class:`~repro.core.stopping.StoppingRule`, an int step budget,
        or a :func:`~repro.core.stopping.parse_target` string.  After
        construction this attribute is always a normalized rule, and
        ``budget`` holds its step cap.
    budget:
        Step cap of an open-ended dynamic target; it must agree with a
        target that has a cap of its own, and without a target it is an
        error (pass ``target=N`` instead).  When neither is given the
        target is ``StepBudget(20_000)``.
    seed:
        RNG seed (``None`` for nondeterministic).
    seed_node:
        Walk/crawl starting node, where applicable.
    backend:
        Storage backend conversion applied before the run (``None`` keeps
        the graph as passed; see :func:`repro.graphs.as_backend`).
    chains:
        Independent chains the budget is split over (SRW family).
    burn_in:
        Discarded transitions per chain before sampling starts.
    """

    method: str
    k: Optional[int] = None
    budget: Optional[int] = None
    seed: Optional[int] = None
    seed_node: int = 0
    backend: Optional[str] = None
    chains: int = 1
    burn_in: int = 0
    target: Union[StoppingRule, int, str, None] = None

    def __post_init__(self) -> None:
        if self.target is None:
            if self.budget is not None:
                raise ValueError(
                    f"EstimationConfig(budget={self.budget}) needs a target: "
                    f"pass target={self.budget} (or any stopping spec); "
                    "budget= only caps an open-ended dynamic target"
                )
            self.target = DEFAULT_BUDGET
        spec = as_stopping_spec(self.target)
        cap = spec.step_cap()
        if self.budget is not None:
            budget = int(self.budget)
            if budget <= 0:
                raise ValueError(f"budget must be positive, got {budget}")
            if cap is None:
                # The spec is open-ended; budget provides its cap.
                cap = budget
            elif cap != budget:
                raise ValueError(
                    f"budget={budget} conflicts with the target's step "
                    f"cap {cap} ({spec.describe()!r}); drop budget= or "
                    "make them agree"
                )
        elif cap is None:
            cap = max(DEFAULT_STEP_CAP, spec._step_floor())
        self.target = spec
        self.budget = int(cap)
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")


class Session(ABC):
    """One streaming estimation run (produced by ``Estimator.prepare``).

    Subclasses implement ``_advance(n)`` (consume exactly ``n`` budget
    units) and ``snapshot()``; the base class keeps the budget and timing
    bookkeeping so ``step``/``result`` behave identically across methods.
    Snapshots along one session share the underlying walk — they are
    *nested*, not independent (use fresh sessions when independence
    matters).
    """

    #: Smallest number of budget units one ``_advance`` accepts;
    #: :meth:`run` never steps fewer.
    _min_step = 1

    def __init__(self, budget: int) -> None:
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self._budget = int(budget)
        self._consumed = 0
        self._elapsed = 0.0

    @property
    def budget(self) -> int:
        """Total budget units this session may consume."""
        return self._budget

    @property
    def consumed(self) -> int:
        """Budget units consumed so far."""
        return self._consumed

    @property
    def remaining(self) -> int:
        """Budget units left."""
        return self._budget - self._consumed

    @property
    def done(self) -> bool:
        """Whether the budget is exhausted."""
        return self._consumed >= self._budget

    def _set_remaining(self, units: int) -> None:
        """Re-size the budget so that exactly ``units`` remain.

        Protected hook for open-ended subclasses (a continuous session
        over an edge stream sets each refresh's step cap this way);
        ordinary fixed-budget sessions never call it.
        """
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units}")
        self._budget = self._consumed + int(units)

    def step(self, n: Optional[int] = None) -> int:
        """Advance by up to ``n`` budget units (all remaining if None).

        Returns the number of units actually consumed (0 when done).
        """
        if n is None:
            n = self.remaining
        elif n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        n = min(n, self.remaining)
        if n == 0:
            return 0
        start = time.perf_counter()
        self._advance(n)
        self._elapsed += time.perf_counter() - start
        self._consumed += n
        return n

    def result(self) -> Estimate:
        """Consume the remaining budget and return the final estimate."""
        self.step()
        return self.snapshot()

    def run(
        self,
        target: Union[StoppingRule, int, str, None] = None,
        *,
        check_every: Optional[int] = None,
    ) -> Estimate:
        """Run until ``target`` is satisfied or the budget is exhausted.

        The one stopping loop: one-shot runs call it on a fresh session,
        and a continuous session's ``refresh`` is this loop over a budget
        topped up to the refresh's step cap.  Without a target (or with a
        pure step-budget spec) this is exactly :meth:`result` — the
        legacy single-``step`` path, so fixed-seed runs stay bit-identical
        to the pre-spec API.  Dynamic specs are checked every
        ``check_every`` steps (default: 1/16 of the budget left) against
        a fresh :meth:`snapshot`.  Each check is measured from the call:
        steps spent since ``run`` began, against the budget left at that
        point, and seconds likewise — except that a session not yet
        stepped keeps counting its construction time.  No step is shorter
        than the session's smallest legal step (``_min_step``): a shorter
        tail merges into the step before it.  The returned estimate's
        ``meta["stopping"]`` is the
        :func:`~repro.core.stopping.stopping_record` plus the number of
        ``checks``.
        """
        spec = None if target is None else as_stopping_spec(target)
        if spec is None or not spec.dynamic:
            return self.result()
        budget = self.remaining
        if check_every is None:
            cadence = max(1, budget // 16)
        else:
            cadence = int(check_every)
            if cadence <= 0:
                raise ValueError(f"check_every must be positive, got {cadence}")
        cadence = max(cadence, self._min_step)
        start_steps = self._consumed
        start_elapsed = self._elapsed if self._consumed else 0.0
        checks = 0
        while True:
            if not self.done:
                n = min(cadence, self.remaining)
                if self.remaining - n < self._min_step:
                    n = self.remaining
                self.step(n)
                checks += 1
            estimate = self.snapshot()
            probe = StopProbe(
                estimate=estimate,
                steps=self._consumed - start_steps,
                budget=budget,
                elapsed=self._elapsed - start_elapsed,
            )
            fired = spec.firing(probe)
            if fired is not None or self.done:
                break
        estimate.meta["stopping"] = stopping_record(
            spec,
            fired,
            early=not self.done,
            steps=probe.steps,
            checks=checks,
        )
        return estimate

    @abstractmethod
    def _advance(self, n: int) -> None:
        """Consume exactly ``n`` budget units."""

    @abstractmethod
    def snapshot(self) -> Estimate:
        """Current estimate from everything consumed so far.

        Must be safe to call at any point (including before the first
        ``step``) and must not disturb the stream; returned arrays are
        copies.
        """


@runtime_checkable
class Estimator(Protocol):
    """A registrable estimation method.

    Implementations are cheap, stateless factories; all per-run state
    lives in the :class:`Session` returned by :meth:`prepare`.
    """

    #: Canonical registry name.
    name: str

    def prepare(self, graph, config: EstimationConfig) -> Session:
        """Bind the method to ``graph`` under ``config``; validate k."""
        ...
