"""Wire types of the estimation service.

Everything that crosses a process or socket boundary lives here:
:class:`EstimateRequest` (what a caller wants), :class:`Snapshot` (the
any-time answer stream), and the service's exception hierarchy.  All of
them are plain picklable objects — the daemon's worker pipes, the Unix-socket
protocol and the client facade all ship them verbatim, so a snapshot's
:class:`~repro.core.result.Estimate` arrives bit-exact (no JSON detour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..core.result import Estimate
from ..core.session import EstimationConfig
from ..core.stopping import StoppingRule, as_stopping_spec, stderr_bound

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

    The run fields — ``method``, ``k``, ``budget``, ``chains``, ``seed``,
    ``seed_node``, ``burn_in`` and ``target`` — are those of
    :class:`~repro.core.session.EstimationConfig`, which also checks
    them: construction builds the normalized run description as
    ``request.config``, and the daemon serves that config.  A
    ``target`` spec with a step cap overrides ``budget``; an open-ended
    spec keeps ``budget`` as its cap.  Variance rules (``TargetStderr``,
    ``CIWidth``) need a between-chain stderr, i.e. ``chains >= 2`` or a
    pooled fanout — single chains carry none.  Dynamic rules are
    evaluated daemon-side on every progressive snapshot; when one fires
    the daemon finalizes with the snapshot that met it, cancels the
    remaining budget, and *releases* it to the reallocation pool for
    still-converging requests.

    The service-specific knobs are:

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
    config: EstimationConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.target is not None:
            spec = as_stopping_spec(self.target)
            cap = spec.step_cap()
            if cap is not None:
                object.__setattr__(self, "budget", int(cap))
            object.__setattr__(self, "target", spec)
        config = EstimationConfig(
            method=self.method,
            k=self.k,
            budget=self.budget,
            target=self.target if self.target is not None else self.budget,
            seed=self.seed,
            seed_node=self.seed_node,
            chains=self.chains,
            burn_in=self.burn_in,
        )
        object.__setattr__(self, "config", config)
        if self.budget < self.chains:
            raise ValueError(
                f"budget {self.budget} cannot cover {self.chains} chains"
            )
        if self.snapshot_steps is not None and self.snapshot_steps <= 0:
            raise ValueError("snapshot_steps must be positive when given")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive when given")

    def effective_snapshot_steps(self) -> int:
        """Steps per progressive snapshot after defaulting."""
        if self.snapshot_steps is not None:
            return self.snapshot_steps
        return max(self.budget // DEFAULT_SNAPSHOTS, 1)


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
        """Largest finite per-type stderr of the current estimate
        (:func:`repro.core.stopping.stderr_bound`)."""
        return stderr_bound(self.estimate)

    def outcome(self) -> Optional[Estimate]:
        """The estimate of a final frame, or the exception it stands for.

        A deadline-hit frame raises :class:`RequestTimeout` and a failed
        one :class:`RequestFailed`, each carrying this frame as
        ``.snapshot``; otherwise the pooled estimate is returned.
        """
        if self.timed_out:
            raise RequestTimeout(
                f"request {self.request_id} hit its deadline after "
                f"{self.steps}/{self.budget} steps",
                snapshot=self,
            )
        if self.error is not None:
            raise RequestFailed(self.error, snapshot=self)
        return self.estimate
