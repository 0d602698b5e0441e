"""Continuous any-time estimation over a mutating graph.

:class:`ContinuousSession` extends the streaming
:class:`~repro.core.session.Session` protocol from frozen graphs to edge
streams: it owns a :class:`~repro.graphs.delta.DeltaCSRGraph` overlay,
keeps its ``B`` walk chains **warm across graph versions**, and after
each update batch re-projects only the chains whose current G(d) state
touched a changed edge — an edge ``(u, v)`` can only change a state's
validity or its G(d) degree if ``u`` or ``v`` is one of the state's
nodes, so untouched chains resume exactly where they stopped.

Accumulation is epoch-wise: every ``step(n)`` runs one vectorized epoch
(:class:`~repro.core.estimator._VectorizedAccumulator` over a
:class:`~repro.walks.batched.BatchedWalkEngine` resumed from the carried
states) and folds the per-(chain, type) cells into running totals, so a
``refresh()`` after an update batch costs only ``refresh_budget``
transitions — not the cumulative budget a cold re-estimation would pay.
A refresh is :meth:`Session.run <repro.core.session.Session.run>` over a
budget topped up to the refresh's step cap, so a stopping ``target``
is checked and recorded exactly as in a one-shot run.  Snapshots pool
the running cells through :func:`~repro.core.estimator.pool_chains`,
like every multi-chain path in the repo.

Determinism: the session seed fixes the per-epoch engine RNG stream
(derived with the same single draw :func:`~repro.walks.walkers.make_engine`
makes), and re-projection RNGs derive from
``(session seed, graph version, chain)`` via string seeding — so
replaying the same :class:`~repro.streaming.EdgeStreamSpec` through two
sessions with one seed yields bit-identical refresh sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..core.alpha import alpha_table
from ..core.estimator import (
    MethodSpec,
    _VectorizedAccumulator,
    _srw_meta,
    pool_chains,
    split_budget,
)
from ..core.result import Estimate
from ..core.session import Session
from ..core.stopping import as_stopping_spec
from ..graphs.csr import sorted_unique
from ..graphs.delta import DeltaCSRGraph
from ..relgraph.spaces import WalkSpaceError, walk_space
from ..walks.batched import BatchedWalkEngine

Edge = Tuple[int, int]


class StreamError(RuntimeError):
    """A continuous session could not continue over a graph update."""


@dataclass(frozen=True)
class UpdateReport:
    """What :meth:`ContinuousSession.apply_updates` did for one batch."""

    version: int
    touched: Tuple[int, ...]
    inserts: int
    deletes: int


class ContinuousSession(Session):
    """Any-time graphlet estimation over an edge stream.

    Parameters
    ----------
    graph:
        The starting graph.  A :class:`DeltaCSRGraph` is adopted as-is
        (updates through the session and through the overlay are the
        same object); anything else is wrapped in a fresh overlay.
    method / k:
        Paper-grammar method string (``"SRW1"``, ``"SRW2CSS"``, ...) or
        a pre-parsed :class:`MethodSpec`, and the graphlet size.
    chains:
        Warm chains ``B``; each refresh splits its budget evenly across
        them (``refresh_budget >= chains`` required).
    refresh_budget:
        Transitions consumed by one :meth:`refresh`.
    seed:
        Session seed; fixes engine streams *and* re-projection draws.
    seed_node / burn_in:
        First-epoch start node and discarded transitions (later epochs
        resume from carried states and never burn in again).
    """

    def __init__(
        self,
        graph,
        method: str = "SRW1",
        k: int = 3,
        *,
        chains: int = 8,
        refresh_budget: int = 4000,
        seed: Optional[int] = None,
        seed_node: int = 0,
        burn_in: int = 0,
    ) -> None:
        spec = method if isinstance(method, MethodSpec) else MethodSpec.parse(method, k)
        if chains < 1:
            raise ValueError(f"chains must be >= 1, got {chains}")
        if refresh_budget < chains:
            raise ValueError(
                "need at least one transition per chain per refresh: "
                f"refresh_budget={refresh_budget} < chains={chains}"
            )
        super().__init__(refresh_budget)
        self._min_step = chains  # every epoch moves every chain
        self.spec = spec
        self.refresh_budget = int(refresh_budget)
        self.graph = graph if isinstance(graph, DeltaCSRGraph) else DeltaCSRGraph(graph)
        self._chains = chains
        self._seed = (
            int(seed) if seed is not None else random.Random().randrange(2**63)
        )
        self._rng = random.Random(self._seed)
        self._seed_node = seed_node
        self._burn_in = burn_in
        self._alphas = alpha_table(spec.k, spec.d)
        self._space = walk_space(spec.d)
        num_types = len(self._alphas)
        self._chain_sums = np.zeros((chains, num_types))
        self._sample_counts = np.zeros(num_types, dtype=np.int64)
        self._valid_samples = 0
        self._carried: Optional[np.ndarray] = None
        self._virgin = True
        self._refreshes = 0
        self._reprojected = 0

    @property
    def seed(self) -> int:
        """The session seed (generated when none was passed)."""
        return self._seed

    @property
    def chains(self) -> int:
        """Number of warm chains."""
        return self._chains

    # ------------------------------------------------------------------
    # Session protocol
    # ------------------------------------------------------------------
    def _advance(self, n: int) -> None:
        """One vectorized epoch of ``n`` transitions, resumed warm."""
        if n < self._chains:
            raise ValueError(
                f"each epoch must cover every chain: n={n} < chains={self._chains}"
            )
        spec = self.spec
        # Same single derivation draw as make_engine, so the transition
        # stream is a pure function of the session seed and epoch index.
        np_rng = np.random.default_rng(self._rng.randrange(2**63))
        engine = BatchedWalkEngine(
            self.graph,
            spec.d,
            self._chains,
            np_rng,
            seed_node=self._seed_node,
            non_backtracking=spec.nb,
            initial_states=self._carried,
        )
        accumulator = _VectorizedAccumulator(
            self.graph,
            spec,
            self._alphas,
            split_budget(n, self._chains),
            engine,
            self._burn_in if self._virgin else 0,
        )
        self._virgin = False
        accumulator.advance(accumulator.total)
        self._chain_sums += accumulator.chain_sums
        self._sample_counts += accumulator.sample_counts
        self._valid_samples += accumulator.valid_samples
        self._carried = engine.states().copy()

    def snapshot(self) -> Estimate:
        """Pooled estimate over everything accumulated so far."""
        sums, stderr = pool_chains(self._chain_sums)
        meta = _srw_meta(self.spec, self._alphas, self.graph, chains=self._chains)
        meta["graph_version"] = self.graph.version
        meta["refreshes"] = self._refreshes
        meta["reprojected_chains"] = self._reprojected
        return Estimate(
            method=self.spec.name,
            k=self.spec.k,
            steps=self.consumed,
            samples=self._valid_samples,
            sums=sums,
            sample_counts=self._sample_counts.copy(),
            stderr=stderr,
            elapsed_seconds=self._elapsed,
            meta=meta,
        )

    # ------------------------------------------------------------------
    # The continuous surface
    # ------------------------------------------------------------------
    def refresh(self, steps: Optional[int] = None, *, target=None) -> Estimate:
        """Walk one refresh and return the refreshed pooled estimate.

        A refresh is :meth:`~repro.core.session.Session.run` over a
        budget topped up to the refresh's step cap; the session budget
        is open-ended, so a monitoring loop can call this forever.
        ``steps`` (default ``refresh_budget``) is the epoch: the stopping
        ``target`` (:mod:`repro.core.stopping`) is checked after every
        epoch.  The cap is the target's step cap when it has one, else
        8 epochs for an open-ended dynamic target, or one epoch without
        a target.  The refresh walks exactly the cap unless a dynamic
        rule fires first; a tail shorter than ``chains`` merges into the
        epoch before it, and a cap below ``chains`` is an error.  The
        returned snapshot's ``meta["stopping"]`` records what happened —
        so each refresh spends only as much walking as its accuracy
        target needs.
        """
        epoch = self.refresh_budget if steps is None else int(steps)
        if epoch < self._chains:
            raise ValueError(
                f"refresh must cover every chain: steps={epoch} < chains={self._chains}"
            )
        spec = None if target is None else as_stopping_spec(target)
        cap = None if spec is None else spec.step_cap()
        if cap is None:
            cap = epoch if spec is None else 8 * epoch
        if cap < self._chains:
            raise ValueError(
                f"refresh must cover every chain: step cap {cap} < chains={self._chains}"
            )
        self._set_remaining(cap)
        self._refreshes += 1
        return self.run(spec, check_every=epoch)

    def apply_updates(
        self, inserts: Iterable[Edge] = (), deletes: Iterable[Edge] = ()
    ) -> UpdateReport:
        """Apply one edge-update batch and repair the warm chains.

        The batch goes through :meth:`DeltaCSRGraph.apply` (validated,
        atomic, version-bumping); then every chain whose current state
        contains an endpoint of a changed edge is re-projected onto a
        valid G(d) state grown from the old state's nodes — all other
        chains keep their states, which the update provably did not
        invalidate.  Deterministic given ``(seed, version, chain)``.
        """
        ins, dels = list(inserts), list(deletes)
        # apply() rejects non-integer ids, so the int64 cast below is exact.
        version = self.graph.apply(inserts=ins, deletes=dels)
        if self._carried is None or (not ins and not dels):
            return UpdateReport(
                version=version, touched=(), inserts=len(ins), deletes=len(dels)
            )
        endpoints = sorted_unique(np.asarray(ins + dels, dtype=np.int64))
        hit = np.isin(self._carried, endpoints)
        if self._carried.ndim == 2:
            hit = hit.any(axis=1)
        touched = tuple(int(b) for b in np.nonzero(hit)[0])
        for b in touched:
            self._reproject(b, version)
        self._reprojected += len(touched)
        return UpdateReport(
            version=version, touched=touched, inserts=len(ins), deletes=len(dels)
        )

    def _reproject(self, b: int, version: int) -> None:
        """Re-seed chain ``b``'s state after a touching update.

        Anchors on the old state's own nodes first (preferring locality:
        the repaired chain stays in the neighborhood it was exploring),
        then on the lowest-id non-isolated node.  An anchor whose grown
        state has no G(d) neighbor (an isolated edge, a component of
        exactly d nodes) is skipped: the walk could not leave it.  The
        draw's RNG derives from ``(seed, version, chain)`` via string
        seeding (sha512 — process-stable), so repair is a pure function
        of the update history.
        """
        rng = random.Random(f"reproject:{self._seed}:{version}:{b}")
        old = self._carried[b]
        candidates: List[int] = (
            [int(old)] if self.spec.d == 1 else [int(x) for x in old]
        )
        degrees = self.graph.degrees_array
        alive = np.nonzero(degrees > 0)[0]
        if alive.size:
            candidates.append(int(alive[0]))
        state = None
        for anchor in candidates:
            if degrees[anchor] <= 0:
                continue
            try:
                grown = self._space.initial_state(self.graph, rng, anchor)
            except WalkSpaceError:
                continue
            if self._space.degree(self.graph, grown) > 0:
                state = grown
                break
        if state is None:
            raise StreamError(
                f"cannot re-project chain {b} at version {version}: no valid "
                f"G({self.spec.d}) state reachable from {candidates}"
            )
        if self.spec.d == 1:
            self._carried[b] = state[0]
        else:
            self._carried[b] = np.sort(np.asarray(state, dtype=np.int64))
