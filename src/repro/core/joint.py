"""Joint multi-size estimation from a single walk (the MSS idea).

Wang et al. [36] extend PSRW to *mix subgraph sampling* (MSS), estimating
(k-1)-, k- and (k+1)-node graphlet statistics simultaneously from one
random walk.  The same trick generalizes to this paper's framework: one
walk on G(d) carries, for every graphlet size k >= d + 1, a sliding window
of length ``l_k = k - d + 1`` — so a single SRW on G(2) can estimate 3-,
4- and 5-node concentrations at once, amortizing the crawl cost (which,
under restricted access, is the expensive part).

Each size runs the one serial SRW chain of :mod:`repro.core.estimator`
over the shared walk, and its windows are start-aligned: size k's window
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
from types import SimpleNamespace
from typing import Dict, Optional, Sequence

from ..relgraph.spaces import walk_space
from ..walks.walkers import make_walk
from .alpha import alpha_table
from .estimator import MethodSpec, _SerialChain, _srw_meta
from .result import Estimate

#: Transitions each size's chain runs per round; the shared walk buffers
#: at most ``l_max + JOINT_BLOCK`` states.
JOINT_BLOCK = 1024


class _SharedWalk:
    """One walk, handed out in stretches to several readers.

    States are drawn from the walker only when a stretch first needs
    them and dropped by :meth:`release` once every reader is past.
    """

    def __init__(self, walker) -> None:
        self.walker = walker
        self.states = [walker.state]
        self.first = 0  # walk index of states[0]

    def stretch(self, lo: int, hi: int):
        """A ``step`` function returning walk states ``lo .. hi - 1``."""
        while self.first + len(self.states) < hi:
            self.states.append(self.walker.step())
        return iter(self.states[lo - self.first : hi - self.first]).__next__

    def release(self, index: int) -> None:
        """Drop the states before walk index ``index``."""
        del self.states[: index - self.first]
        self.first = index


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
    origin = walker.state
    shared = _SharedWalk(walker)
    chains = {}
    for k in sizes:
        spec = MethodSpec(k, d, css=css and k - d + 1 > 2, nb=nb)
        # Each chain's walker is a replay whose ``step`` is set to each
        # stretch of the shared walk in turn.
        replay = SimpleNamespace(state=origin, step=shared.stretch(1, spec.l))
        chains[k] = _SerialChain(graph, spec, alpha_table(k, d), replay)
    # After ``done`` counted transitions size k's window starts at walk
    # state ``done``, so its next ``n`` steps read states l_k + done on.
    for done in range(0, steps, JOINT_BLOCK):
        n = min(JOINT_BLOCK, steps - done)
        for chain in chains.values():
            lo = chain.spec.l + done
            chain.walker.step = shared.stretch(lo, lo + n)
            chain.advance(n)
        shared.release(done + n)
    elapsed = time.perf_counter() - start

    method = f"SRW{d}" + ("CSS" if css else "") + ("NB" if nb else "")
    return {
        k: Estimate(
            method=method,
            k=k,
            steps=steps,
            samples=chain.valid_samples,
            sums=chain.sums,
            sample_counts=chain.sample_counts,
            elapsed_seconds=elapsed,
            meta={**_srw_meta(chain.spec, chain.alphas, graph), "css": css},
        )
        for k, chain in chains.items()
    }
