"""Baselines the paper compares against (§6.3).

Every baseline returns the unified :class:`~repro.core.result.Estimate`
and exposes a streaming ``Session`` class.
"""

from .guise import GuiseSession, guise, guise_neighbors
from .hardiman_katzir import HardimanKatzirSession, hardiman_katzir
from .path_sampling import (
    PathSampler,
    PathSamplingSession,
    path_sampling,
    path_weights,
)
from .psrw import psrw_estimate, psrw_spec, srw_estimate, srw_spec
from .wedge import WedgeSampler, WedgeSession, wedge_sampling
from .wedge_mhrw import WedgeMHRWSession, wedge_mhrw

__all__ = [
    "GuiseSession",
    "HardimanKatzirSession",
    "PathSampler",
    "PathSamplingSession",
    "WedgeMHRWSession",
    "WedgeSampler",
    "WedgeSession",
    "guise",
    "guise_neighbors",
    "hardiman_katzir",
    "path_sampling",
    "path_weights",
    "psrw_estimate",
    "psrw_spec",
    "srw_estimate",
    "srw_spec",
    "wedge_mhrw",
    "wedge_sampling",
]
