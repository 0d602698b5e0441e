"""Checkpointed estimation: partial results along one run.

Convergence studies (Figure 6) want the estimate at several budgets.
Re-running per budget is statistically clean but wastes steps when one
only needs a *trajectory*; :func:`run_with_checkpoints` drives a single
streaming :class:`~repro.core.session.Session` and snapshots it at the
requested budgets, giving the whole anytime-curve for the price of its
largest budget — for *any* registered estimator, not just the SRW
family.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .estimator import MethodSpec
from .result import Estimate
from .session import EstimationConfig


def run_with_checkpoints(
    graph,
    spec: Union[MethodSpec, str],
    checkpoints: Sequence[int],
    seed_node: int = 0,
    burn_in: int = 0,
    seed: Optional[int] = None,
    chains: int = 1,
    k: Optional[int] = None,
) -> List[Estimate]:
    """One streaming run, snapshotted at each checkpoint budget.

    Returns one :class:`~repro.core.result.Estimate` per checkpoint
    (ascending, deduplicated); the last one is exactly what a plain run
    of the largest budget with the same seed would return.  Snapshots
    share the run, so they are *nested*, not independent — use
    :func:`repro.evaluation.run_trials` when independence matters.

    ``spec`` is any registry method name (``"guise"``, ``"srw2css"``, …)
    or a :class:`MethodSpec`, which stands for ``(spec.name, spec.k)``.
    The session opens through :func:`repro.estimators.prepare`, so
    ``seed=s`` gives the bits of
    :func:`~repro.core.run_estimation` with ``rng=random.Random(s)``.
    """
    budgets = sorted(set(checkpoints))
    if not budgets:
        raise ValueError("checkpoints must be non-empty")
    if budgets[0] <= 0:
        raise ValueError(f"steps must be positive, got {budgets[0]}")
    if isinstance(spec, MethodSpec):
        spec, k = spec.name, spec.k
    # Lazy import: estimators sits above core in the layer stack.
    from ..estimators import prepare

    session = prepare(
        graph,
        EstimationConfig(
            method=spec, k=k, target=budgets[-1], seed=seed,
            seed_node=seed_node, burn_in=burn_in, chains=chains,
        ),
    )
    snapshots: List[Estimate] = []
    reached = 0
    for budget in budgets:
        session.step(budget - reached)
        reached = budget
        snapshots.append(session.snapshot())
    return snapshots
