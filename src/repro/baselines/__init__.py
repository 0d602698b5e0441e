"""Baselines the paper compares against (§6.3).

Each baseline is a streaming ``Session`` class behind a registry name
(``"guise"``, ``"wedge"``, ``"wedge_mhrw"``, ``"path_sampling"``,
``"hardiman_katzir"``) and returns the unified
:class:`~repro.core.result.Estimate`; run one with
``repro.estimate(graph, name, ...)``.

PSRW and the plain subgraph random walk of Wang et al. [36] need no code
of their own: the paper shows PSRW is SRW(k - 1) and plain SRW is SRW(k)
(§1.2, §6.3.1), so ``"psrw"`` and ``"srw"`` are named SRW specs in
:mod:`repro.estimators.adapters`.
"""

from .guise import GuiseSession, guise_neighbors
from .hardiman_katzir import HardimanKatzirSession
from .path_sampling import PathSampler, PathSamplingSession, path_weights
from .wedge import WedgeSampler, WedgeSession
from .wedge_mhrw import WedgeMHRWSession

__all__ = [
    "GuiseSession",
    "HardimanKatzirSession",
    "PathSampler",
    "PathSamplingSession",
    "WedgeMHRWSession",
    "WedgeSampler",
    "WedgeSession",
    "guise_neighbors",
    "path_weights",
]
