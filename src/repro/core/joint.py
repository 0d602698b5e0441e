"""Joint multi-size estimation from a single walk (the MSS idea).

Wang et al. [36] extend PSRW to *mix subgraph sampling* (MSS), estimating
(k-1)-, k- and (k+1)-node graphlet statistics simultaneously from one
random walk.  The same trick generalizes to this paper's framework: one
walk on G(d) carries, for every graphlet size k >= d + 1, a sliding window
of length ``l_k = k - d + 1`` — so a single SRW on G(2) can estimate 3-,
4- and 5-node concentrations at once, amortizing the crawl cost (which,
under restricted access, is the expensive part).

Each size feeds the one window pipeline of :mod:`repro.core.estimator`
from the shared walk, and its windows are start-aligned: size k's window
t covers walk states t .. t + l_k - 1, exactly as in a standalone run.
So every size's sums equal, bit for bit, a standalone
:func:`~repro.core.estimator.run_estimation` of that size at the same
seed and step count, while the walk itself — and every API call it
makes — is paid once: ``steps + l_max - 1`` transitions, as for the
longest size alone.  This module is the library's implementation of the
paper's "future work" direction and is exercised by the
joint-estimation tests and the crawling example.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Optional, Sequence

import numpy as np

from ..relgraph.spaces import walk_space
from ..walks.walkers import make_walk
from .alpha import alpha_table
from .estimator import (
    MethodSpec,
    _SerialLanes,
    _srw_meta,
    _VectorizedAccumulator,
    pool_chains,
)
from .result import Estimate

#: Windows each size counts per round; the shared walk buffers at most
#: ``l_max + JOINT_BLOCK`` states.
JOINT_BLOCK = 1024


class _SharedStates:
    """One serial walk, read by several accumulators at their own pace.

    States are drawn from the walk's :class:`_SerialLanes` when a reader
    first needs them and dropped by :meth:`release` once every reader is
    past.
    """

    def __init__(self, lanes: _SerialLanes) -> None:
        self.lanes = lanes
        self.rows = lanes.states()[None].copy()  # (states, 1, d)
        self.first = 0  # walk index of rows[0]

    def get(self, lo: int, n: int) -> np.ndarray:
        """Walk states ``lo .. lo + n - 1``."""
        missing = lo + n - (self.first + len(self.rows))
        if missing > 0:
            self.rows = np.concatenate([self.rows, self.lanes.step_block(missing)])
        return self.rows[lo - self.first : lo - self.first + n]

    def release(self, index: int) -> None:
        """Drop the states before walk index ``index``."""
        self.rows = self.rows[index - self.first :]
        self.first = index


class _Reader:
    """One size's state source over the shared walk: the surface
    :class:`_VectorizedAccumulator` pulls, from walk state 0 on.  The
    longest size's reader also passes the accumulator's ``settle`` hook
    on to the walk's lanes, which draw what that size's standalone run
    draws."""

    def __init__(self, walk: _SharedStates, drives: bool) -> None:
        self.walk = walk
        self.index = 0  # walk index of the last state handed out
        self.settle = walk.lanes.settle if drives else None

    def states(self) -> np.ndarray:
        return self.walk.get(self.index, 1)[0]

    def step_block(self, t: int) -> np.ndarray:
        self.index += t
        return self.walk.get(self.index - t + 1, t)


def run_joint_estimation(
    graph,
    ks: Sequence[int],
    d: int,
    steps: int,
    css: bool = False,
    nb: bool = False,
    rng: Optional[random.Random] = None,
    seed_node: int = 0,
) -> Dict[int, Estimate]:
    """Estimate graphlet statistics for several sizes from one walk on G(d).

    Parameters
    ----------
    ks:
        Graphlet sizes, each >= max(3, d + 1) (the window must have length
        >= 2).  With ``css=True``, a size with ``k - d + 1 = 2`` uses the
        basic weighting, which CSS coincides with there.
    d, steps, css, nb, seed_node:
        As in :func:`repro.core.estimator.run_estimation`; one walk of
        ``steps + l_max - 1`` transitions is shared by all sizes.

    Returns
    -------
    dict k -> :class:`~repro.core.result.Estimate`, each carrying the
    method name ``SRW{d}[CSS][NB]`` and the shared step count.  Size k's
    sums and sample counts equal ``run_estimation(graph, MethodSpec(k, d,
    css=css and k - d + 1 > 2, nb=nb), steps, rng=random.Random(s))``
    bit for bit when ``rng`` is ``random.Random(s)``.
    """
    sizes = sorted(set(ks))
    if not sizes:
        raise ValueError("ks must be non-empty")
    for k in sizes:
        if k < 3:
            raise ValueError(f"graphlet size {k} < 3")
        if k - d + 1 < 2:
            raise ValueError(f"k={k} needs d <= k - 1 (got d={d})")
    if steps <= 0:
        raise ValueError("steps must be positive")

    start = time.perf_counter()
    rng = rng if rng is not None else random.Random()
    walker = make_walk(
        graph, walk_space(d), non_backtracking=nb, rng=rng, seed_node=seed_node
    )
    # The walk draws what the longest size's standalone run draws.
    walk = _SharedStates(
        _SerialLanes([walker], graph, d, sizes[-1] - d + 1, [steps], 0)
    )
    accumulators = {}
    for k in sizes:
        spec = MethodSpec(k, d, css=css and k - d + 1 > 2, nb=nb)
        reader = _Reader(walk, drives=k == sizes[-1])
        accumulators[k] = _VectorizedAccumulator(
            graph, spec, alpha_table(k, d), [steps], reader, 0
        )
    # After ``done`` counted windows every size's next window starts at
    # walk state ``done``.
    for done in range(0, steps, JOINT_BLOCK):
        n = min(JOINT_BLOCK, steps - done)
        for acc in accumulators.values():
            acc.advance(n)
        walk.release(done + n)
    elapsed = time.perf_counter() - start

    method = f"SRW{d}" + ("CSS" if css else "") + ("NB" if nb else "")
    return {
        k: Estimate(
            method=method,
            k=k,
            steps=steps,
            samples=acc.valid_samples,
            sums=pool_chains(acc.chain_sums)[0],
            sample_counts=acc.sample_counts,
            elapsed_seconds=elapsed,
            meta={**_srw_meta(acc.spec, acc.alpha_arr, graph), "css": css},
        )
        for k, acc in accumulators.items()
    }
