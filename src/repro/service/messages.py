"""Wire types of the estimation service.

Everything that crosses a process or socket boundary lives here:
:class:`EstimateRequest` (what a caller wants), :class:`Snapshot` (the
any-time answer stream), and the service's exception hierarchy.  All of
them are plain picklable objects — the daemon's queues, the Unix-socket
protocol and the client facade all ship them verbatim, so a snapshot's
:class:`~repro.core.result.Estimate` arrives bit-exact (no JSON detour).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from ..core.result import Estimate
from ..core.stopping import StoppingRule, as_stopping_spec

#: Default number of progressive snapshots per request when the caller
#: does not pin ``snapshot_steps`` explicitly.
DEFAULT_SNAPSHOTS = 8


class ServiceError(RuntimeError):
    """Base class for everything the service raises."""


class ServiceOverloaded(ServiceError):
    """The bounded request queue is full and the caller chose not to wait."""


class ServiceClosed(ServiceError):
    """The daemon is shutting down (or already gone)."""


class RequestFailed(ServiceError):
    """The request errored inside a worker; carries the final snapshot."""

    def __init__(self, message: str, snapshot: Optional["Snapshot"] = None):
        super().__init__(message)
        self.snapshot = snapshot


class RequestTimeout(ServiceError, TimeoutError):
    """The request hit its deadline.

    The last progressive :class:`Snapshot` (the coarse any-time answer)
    rides along as ``.snapshot`` — a timed-out caller still gets the
    best estimate available at the deadline instead of nothing.
    """

    def __init__(self, message: str, snapshot: Optional["Snapshot"] = None):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass(frozen=True)
class EstimateRequest:
    """One estimation query, addressed to a running :class:`Daemon`.

    Parameters mirror :class:`~repro.core.session.EstimationConfig`;
    the service-specific knobs are:

    fanout:
        ``False`` (default) runs the request as one streamed session in
        a single worker — the answer is bit-identical to an in-process
        ``repro.estimate(...)`` with the same arguments on the same CSR
        graph.  ``True`` splits ``chains`` across workers as
        independent single-chain parts with the serial multi-chain seed
        derivation, pooling sums/stderr exactly like the serial
        reference — more parallel, but a *different* (equally valid)
        chain layout than the vectorized in-process run.
    snapshot_steps:
        Steps between progressive snapshots (default: ``budget // 8``).
    timeout_seconds:
        Deadline; on expiry the caller receives the last snapshot
        marked ``timed_out`` instead of hanging.
    target:
        Declarative stopping spec — a
        :class:`~repro.core.stopping.StoppingRule`, an int step budget,
        or a :func:`~repro.core.stopping.parse_target` string.  Dynamic
        rules are evaluated daemon-side on every progressive snapshot;
        when one fires the daemon finalizes with the snapshot that met
        it, cancels the remaining budget, and *releases* it to the
        reallocation pool for still-converging requests.  A spec with a
        step cap overrides ``budget``; an open-ended spec keeps
        ``budget`` as its cap.  Variance rules (``TargetStderr``,
        ``CIWidth``) need a between-chain stderr, i.e. ``chains >= 2``
        or a pooled fanout — single chains carry none.
    """

    method: str
    k: Optional[int] = None
    budget: int = 20_000
    chains: int = 1
    seed: Optional[int] = None
    seed_node: int = 0
    burn_in: int = 0
    fanout: bool = False
    snapshot_steps: Optional[int] = None
    timeout_seconds: Optional[float] = None
    target: Union[StoppingRule, int, str, None] = None

    def __post_init__(self) -> None:
        if self.target is not None:
            spec = as_stopping_spec(self.target)
            cap = spec.step_cap()
            if cap is not None:
                object.__setattr__(self, "budget", int(cap))
            object.__setattr__(self, "target", spec)
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")
        if self.budget < self.chains:
            raise ValueError(
                f"budget {self.budget} cannot cover {self.chains} chains"
            )
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.snapshot_steps is not None and self.snapshot_steps <= 0:
            raise ValueError("snapshot_steps must be positive when given")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive when given")

    def effective_snapshot_steps(self) -> int:
        """Steps per progressive snapshot after defaulting."""
        if self.snapshot_steps is not None:
            return self.snapshot_steps
        return max(self.budget // DEFAULT_SNAPSHOTS, 1)

    def with_overrides(self, **changes) -> "EstimateRequest":
        """A copy with fields replaced (validation re-runs)."""
        return replace(self, **changes)


@dataclass
class Snapshot:
    """One frame of a request's any-time answer stream.

    ``estimate`` is the current pooled :class:`Estimate` (``None`` only
    when the request dies before any worker produced a frame — a
    timeout during queueing, or an immediate error).  ``seq`` increases
    by one per frame; ``steps`` (budget units consumed across all
    parts) strictly increases between progressive frames of a healthy
    run.  Exactly one frame per request has ``final=True``; it may
    additionally be flagged ``timed_out`` (deadline hit — ``estimate``
    is the last progressive answer), ``early_stopped`` (the stopping
    ``target`` fired below budget), or carry ``error`` text.  When the
    request carries a ``target`` spec, ``meta["stopping"]`` names it on
    every frame (``repro query --watch`` prints it per line).
    """

    request_id: str
    seq: int
    steps: int
    budget: int
    estimate: Optional[Estimate] = None
    parts: int = 1
    parts_done: int = 0
    final: bool = False
    timed_out: bool = False
    early_stopped: bool = False
    error: Optional[str] = None
    meta: dict = field(default_factory=dict)

    @property
    def stderr_bound(self) -> Optional[float]:
        """Largest finite per-type stderr of the current estimate.

        ``None`` while no estimate (or no stderr) is available; a
        ``TargetStderr`` target compares against this.
        """
        import numpy as np

        if self.estimate is None or self.estimate.stderr is None:
            return None
        stderr = np.asarray(self.estimate.stderr, dtype=float)
        finite = stderr[np.isfinite(stderr)]
        if finite.size == 0:
            return None
        return float(finite.max())
