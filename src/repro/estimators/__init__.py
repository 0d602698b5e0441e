"""Unified estimator surface: one protocol, one result type, a registry.

Every estimation method in the library — the paper's ``SRW{d}[CSS][NB]``
framework, PSRW/SRW, GUISE, wedge sampling, wedge-MHRW, 3-path sampling,
Hardiman–Katzir, and exact enumeration as the oracle — implements the
same protocol:

    estimator = repro.estimators.get("srw2css")
    session   = estimator.prepare(graph, EstimationConfig(
        method="srw2css", k=4, budget=100_000, seed=7))
    session.step(10_000)         # stream part of the budget
    partial = session.snapshot() # useful partial result, any time
    final   = session.result()   # consume the rest

and returns the unified :class:`~repro.core.result.Estimate`.  The
:func:`estimate` one-liner covers the common case::

    est = repro.estimate(graph, "srw2css", k=4, budget=100_000, seed=7)
    est.concentration_dict()

New methods join every harness (evaluation runner, checkpoint sweeps,
``repro estimate`` / ``repro compare`` on the CLI) with a single
:func:`register` call.
"""

from __future__ import annotations

from typing import Optional

from ..core.result import Estimate
from ..core.session import EstimationConfig, Estimator, Session
from ..core.stopping import StepBudget, StoppingRule, as_stopping_spec
from ..graphs.csr import as_backend
from . import adapters  # noqa: F401  (populates the registry on import)
from .adapters import register_builtin_estimators
from .registry import available, get, normalize, register, unregister
from .selector import SelectionReport, select

__all__ = [
    "Estimate",
    "EstimationConfig",
    "Estimator",
    "SelectionReport",
    "Session",
    "available",
    "estimate",
    "get",
    "normalize",
    "prepare",
    "register",
    "register_builtin_estimators",
    "run_config",
    "select",
    "unregister",
]


def _prepare(graph, config: EstimationConfig):
    """Auto-resolve, backend-convert, open: the shared prepare pipeline.

    Returns ``(session, resolved_config, converted_graph, report)`` —
    ``report`` is the :class:`SelectionReport` when ``method="auto"``
    resolved here, else None.
    """
    report = None
    if normalize(config.method) == "auto":
        report = select(graph, config)
        config = report.apply(config)
    estimator = get(config.method)
    if config.backend is not None:
        graph = as_backend(
            graph,
            config.backend,
            context=(
                f"estimate(method={config.method!r}, backend={config.backend!r})"
            ),
        )
    return estimator.prepare(graph, config), config, graph, report


def prepare(graph, config: EstimationConfig) -> Session:
    """Resolve ``config.method``, apply ``config.backend``, open a session.

    ``method="auto"`` resolves through :func:`repro.estimators.select`
    first (use :func:`run_config` to also get the selection recorded in
    the estimate's meta).
    """
    session, _, _, _ = _prepare(graph, config)
    return session


def run_config(
    graph,
    config: EstimationConfig,
    *,
    check_every: Optional[int] = None,
) -> Estimate:
    """Run ``config`` to completion, honoring its stopping target.

    The config's ``target`` spec is bound to the (backend-converted)
    graph when it has graph-dependent rules, dynamic rules are checked
    on the :meth:`~repro.core.session.Session.run` cadence, and the
    selection report (for ``method="auto"``) lands in
    ``Estimate.meta["selection"]``.
    """
    session, resolved, bound_graph, report = _prepare(graph, config)
    spec: Optional[StoppingRule] = resolved.target
    if spec is not None and spec.dynamic:
        spec = spec.bind(bound_graph, resolved)
    result = session.run(spec, check_every=check_every)
    if report is not None:
        result.meta["selection"] = report.to_dict()
    return result


def estimate(
    graph,
    method: str,
    k: Optional[int] = None,
    budget: Optional[int] = None,
    seed: Optional[int] = None,
    seed_node: int = 0,
    backend: Optional[str] = None,
    chains: int = 1,
    burn_in: int = 0,
    target=None,
    check_every: Optional[int] = None,
) -> Estimate:
    """One-shot estimation with any registered method.

    ``repro.estimate(graph, "srw2css", k=4, target=100_000, seed=7)``
    is the whole API: the method name resolves through the registry
    (``"auto"`` picks one from graph statistics), the run streams until
    the ``target`` stopping spec is satisfied, and the unified
    :class:`~repro.core.result.Estimate` comes back.  ``target`` is a
    :class:`~repro.core.stopping.StoppingRule` (composable with ``|`` /
    ``&``), an int step budget, or a spec string like
    ``"ci:0.05|steps:100000"``; the legacy ``budget=N`` keyword still
    works and means ``target=StepBudget(N)`` (or, next to an open-ended
    dynamic target, the run's step cap).  Fixed-seed runs of the
    framework methods are bit-identical to
    :func:`repro.core.run_estimation` with ``rng=random.Random(seed)``.
    """
    spec = None if target is None else as_stopping_spec(target)
    if budget is not None and spec is None:
        spec = StepBudget(int(budget))
        budget = None
    config = EstimationConfig(
        method=method,
        k=k,
        budget=budget,
        seed=seed,
        seed_node=seed_node,
        backend=backend,
        chains=chains,
        burn_in=burn_in,
        target=spec,
    )
    return run_config(graph, config, check_every=check_every)
