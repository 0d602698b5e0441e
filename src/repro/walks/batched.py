"""Batched multi-chain random-walk engine over the CSR backend.

The serial walkers in :mod:`repro.walks.walkers` advance one chain at a
time through Python-level neighbor lists; every transition costs a method
dispatch, an RNG call and (for d >= 2) tuple construction.
:class:`BatchedWalkEngine` instead advances **B independent chains per
vectorized step** through the vectorized walk spaces of
:mod:`repro.relgraph.vectorized`: the current states live in NumPy arrays
and one transition of all B chains is a handful of fancy-indexing
operations on the CSR ``indptr``/``indices`` arrays —

    d = 1 (SRW):   next = indices[indptr[cur] + floor(U * deg[cur])]

— i.e. two gathers and a multiply for the whole batch, written straight
into the row of the block's history (:meth:`BatchedWalkEngine.step_block`
reads the graph arrays once per block).  For d = 2 the
space vectorizes the paper's §5 two-stage endpoint trick (pick an
endpoint with probability proportional to its degree, draw a uniform
neighbor of it, reject proposals equal to the state itself), re-proposing
only the rejected lanes.  For d >= 3 — the G(3)/G(4) regime the paper's
Table 6 singles out as an order of magnitude slower — the space
enumerates every chain's swap-candidate frontier in one sorted pass over
the state nodes' CSR rows and samples by rank, so SRW3/SRW4/PSRW sweeps
ride the same lockstep engine.  Non-backtracking variants (§4.2) exclude
the previous state (rejection lanes for d <= 2, an exact rank-exclusion
draw for d >= 3) with the forced-backtrack rule on degree-1 states,
exactly mirroring the serial walkers' semantics.

The engine only *walks*; windowing and graphlet classification stay with
the estimator (:class:`repro.core.estimator.SRWSession` with
``chains > 1``), which classifies whole state blocks at once.  Chains are
statistically independent given independent starting draws because every
lane consumes its own slice of the shared vectorized RNG stream.

:func:`batch_support` reports whether a graph's chains ride the engine:
a CSR graph's do, while a list :class:`~repro.graphs.Graph` and a crawl
wrapper run independent serial walkers, and the estimator warns once
(:class:`BatchFallbackWarning`) when a multi-chain run takes them.
"""

from __future__ import annotations

import sys
import warnings
from typing import Optional, Sequence, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph
from ..relgraph.fused import FusedD3Kernel
from ..relgraph.vectorized import VectorSpace, vector_space


class BatchFallbackWarning(UserWarning):
    """A multi-chain run lost its vectorized engine and degraded to
    serial per-chain walkers (emitted once per distinct reason *per
    invocation* — every ``run_estimation`` call / session warns afresh)."""


def batch_support(graph) -> Tuple[bool, Optional[str]]:
    """Whether the batched engine can drive walks over ``graph``.

    Returns ``(supported, reason)``; ``reason`` names what is missing
    when unsupported (so callers can warn usefully instead of silently
    degrading to serial walkers).  Every walk dimension d has vectorized
    kernels, so only the type matters: a CSR graph batches its chains,
    but a list :class:`Graph` (``backend="list"``) keeps one serial
    walker per chain, as does a graph without CSR arrays (a crawl
    wrapper).
    """
    if isinstance(graph, Graph) or not isinstance(graph, CSRGraph):
        return False, (
            f"a {type(graph).__name__} runs one serial walker per chain; "
            'convert with as_backend(graph, "csr") (or pass '
            'backend="csr") to batch chains'
        )
    return True, None


def check_seed_node(graph, seed_node) -> None:
    """Reject a walk start that is not a node id of ``graph``.

    Unchecked, a negative id counts from the end of the list backend's
    adjacency, ``True`` starts at node 1, the CSR engine casts a float,
    and an id past the end raises a bare ``IndexError``.  A graph that
    does not report its size (a crawl wrapper) is checked from below only.
    """
    if isinstance(seed_node, (bool, np.bool_)) or not isinstance(
        seed_node, (int, np.integer)
    ):
        raise ValueError(f"seed_node must be an integer node id, got {seed_node!r}")
    num_nodes = getattr(graph, "num_nodes", None)
    if seed_node < 0 or (num_nodes is not None and seed_node >= num_nodes):
        size = "" if num_nodes is None else f" for a graph of {num_nodes} nodes"
        raise ValueError(f"seed_node {seed_node} is out of range{size}")


def warn_serial_fallback(graph, stacklevel: int = 2) -> None:
    """Emit the :class:`BatchFallbackWarning` for a multi-chain run that
    cannot ride the batched engine, with a fresh ``__warningregistry__``
    per call: a long-lived daemon is warned about *each* degradation,
    not only the first one in the process."""
    supported, reason = batch_support(graph)
    if supported:  # pragma: no cover - callers check first
        return
    try:
        frame = sys._getframe(stacklevel)
    except ValueError:  # pragma: no cover - shallow call stack
        frame = sys._getframe(1)
    warnings.warn_explicit(
        f"multi-chain run falling back to serial per-chain walks: {reason}",
        BatchFallbackWarning,
        frame.f_code.co_filename,
        frame.f_lineno,
        module=frame.f_globals.get("__name__", "repro"),
        registry={},
    )


class BatchedWalkEngine:
    """B independent (possibly non-backtracking) chains on G(d).

    Parameters
    ----------
    csr:
        The :class:`~repro.graphs.CSRGraph` substrate.
    d:
        Walk space dimension (any d >= 1; d <= 2 uses the O(1) closed-form
        kernels, d >= 3 the swap-frontier kernels).
    chains:
        Number of independent chains B.
    rng:
        NumPy :class:`~numpy.random.Generator` driving every lane.
    seed_node:
        Starting node for every chain (chains decorrelate through their
        first uniform draws, like the serial walkers started from one
        crawl seed).  Pass ``seed_nodes`` for per-chain starts instead.
    non_backtracking:
        Use the NB-SRW transition kernel (§4.2).
    seed_nodes:
        Optional per-chain starting nodes, length ``chains``.
    initial_states:
        Optional pre-built G(d) states to resume from — shape ``(B,)``
        for d = 1, ``(B, d)`` otherwise.  When given, ``seed_node`` /
        ``seed_nodes`` are ignored and **no RNG draws** happen during
        construction (the vectorized initial-state growth is skipped),
        so a continuous session can carry chains across graph versions
        without perturbing the transition stream.  States are trusted:
        callers re-project any state invalidated by a graph change
        before resuming (see :mod:`repro.streaming`).
    fused:
        Use the closed-form fused kernel
        (:class:`~repro.relgraph.fused.FusedD3Kernel`) for d = 3
        transitions when available.  Bit-identical to the generic path
        for any fixed seed — this is a performance switch, kept only so
        benchmarks can time the unfused baseline.
    """

    def __init__(
        self,
        csr: CSRGraph,
        d: int,
        chains: int,
        rng: np.random.Generator,
        seed_node: int = 0,
        non_backtracking: bool = False,
        seed_nodes: Optional[Sequence[int]] = None,
        initial_states: Optional[np.ndarray] = None,
        fused: bool = True,
    ) -> None:
        if not isinstance(csr, CSRGraph):
            raise TypeError("BatchedWalkEngine requires a CSRGraph substrate")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if chains < 1:
            raise ValueError(f"need at least one chain, got {chains}")
        self.csr = csr
        self.d = d
        self.chains = chains
        self.rng = rng
        self.nb = non_backtracking
        self.steps_taken = 0
        self.space: VectorSpace = vector_space(d)

        if initial_states is not None:
            states = np.asarray(initial_states, dtype=np.int64).copy()
            want = (chains,) if d == 1 else (chains, d)
            if states.shape != want:
                raise ValueError(
                    f"initial_states must have shape {want}, got {states.shape}"
                )
            self._cur = states
        else:
            seed_nodes = [seed_node] * chains if seed_nodes is None else list(seed_nodes)
            for node in seed_nodes:
                check_seed_node(csr, node)
            starts = np.asarray(seed_nodes, dtype=np.int64)
            if starts.shape != (chains,):
                raise ValueError(f"seed_nodes must have length {chains}")
            degs = csr.degrees_array
            if np.any(degs[starts] == 0):
                bad = int(starts[degs[starts] == 0][0])
                raise ValueError(f"seed node {bad} is isolated")
            self._cur = self.space.initial(csr, rng, starts)
        self._prev = None  # previous states, set once NB chains have moved

        self._fused: Optional[FusedD3Kernel] = None
        if fused and d == 3:
            self._fused = FusedD3Kernel(csr)

    # ------------------------------------------------------------------
    # Public stepping API
    # ------------------------------------------------------------------
    def states(self) -> np.ndarray:
        """Current state per chain: shape (B,) for d = 1, (B, d) else."""
        return self._cur

    def step(self) -> np.ndarray:
        """Advance every chain by one transition; returns the new states."""
        return self.step_block(1)[0]

    def step_block(self, steps: int) -> np.ndarray:
        """Advance every chain ``steps`` times; returns the state history.

        Shape is ``(steps, B)`` for d = 1 and ``(steps, B, d)`` otherwise
        — time-major so consumers can peel off per-chain streams with a
        stride-1 slice per chain (``block[:, b]``).  The returned buffer
        is the caller's: the engine keeps copies of its last two rows.

        One Python-level pass writes each transition into its row; any
        split of T transitions into blocks walks the same history.

        * d <= 2: the graph arrays are read, and the starting states
          checked for a neighbor, once per block.  One check is enough:
          a walk only moves to neighbors, so a state with a neighbor
          never steps onto one without.  Each step draws uniforms for
          every lane, then round by round for the still-rejected lanes;
          the redraw counts depend on the data, so no ``(steps, B)``
          block can be drawn up front.
        * d >= 3: the ``(steps, B)`` uniform block is drawn up front
          (C-order, so the draw order matches ``steps`` blocks of one bit
          for bit).  A mid-block :class:`WalkSpaceError` (stuck state)
          propagates after committing the transitions that already
          completed.
        """
        if self.d == 1:
            out = np.empty((steps, self.chains), dtype=np.int64)
        else:
            out = np.empty((steps, self.chains, self.d), dtype=np.int64)
        if steps == 0:
            return out
        if self.d < 3:
            csr, rng, space = self.csr, self.rng, self.space
            cur, prev = self._cur, self._prev
            arrays = space.arrays(csr, cur)
            for row in out:
                if self.nb and prev is not None:
                    space.propose_nb(csr, cur, prev, rng, out=row, arrays=arrays)
                else:
                    space.propose(csr, cur, rng, out=row, arrays=arrays)
                prev, cur = cur, row
            self._commit(cur, prev, steps)
            return out
        kern = self._fused
        use_fused = kern is not None and kern.ready(self.csr)
        U = self.rng.random((steps, self.chains))
        cur = self._cur
        prev = self._prev
        done = 0
        try:
            for t in range(steps):
                row = out[t]
                if use_fused:
                    if self.nb and prev is not None:
                        nxt = kern.propose_nb(self.csr, cur, prev, U[t], out=row)
                    else:
                        nxt = kern.propose(self.csr, cur, U[t], out=row)
                elif self.nb and prev is not None:
                    nxt = self.space.propose_nb(
                        self.csr, cur, prev, self.rng, u=U[t]
                    )
                else:
                    nxt = self.space.propose(self.csr, cur, self.rng, u=U[t])
                if nxt is not row:
                    row[...] = nxt
                    nxt = row
                prev = cur
                cur = nxt
                done = t + 1
        finally:
            if done:
                self._commit(cur, prev, done)
        return out

    def _commit(self, cur: np.ndarray, prev: Optional[np.ndarray], steps: int) -> None:
        # Engine state must not alias the returned buffer.
        self._prev = None if prev is None else prev.copy()
        self._cur = cur.copy()
        self.steps_taken += steps

    def state_degrees(self) -> np.ndarray:
        """Degree in G(d) of every chain's current state (vectorized)."""
        return self.space.degrees(self.csr, self._cur)
