"""Estimator adapters: every method behind the one streaming protocol.

Each adapter is a thin, stateless factory that validates the
:class:`~repro.core.session.EstimationConfig` and returns the method's
streaming :class:`~repro.core.session.Session`.  The module registers
the full method table on import:

* the framework grammar ``SRW{d}[CSS][NB]`` (``srw1`` … ``srw4nb``,
  including the d >= 3 methods the batched CSR engine now vectorizes;
  any other combination resolves on demand),
* PSRW and the plain subgraph random walk of Wang et al. [36] as named
  SRW specs: ``psrw`` is SRW(k - 1) and ``srw`` is SRW(k) (§1.2,
  §6.3.1), so they share :class:`SRWEstimator`,
* the baselines GUISE, wedge sampling, wedge-MHRW, 3-path sampling and
  Hardiman–Katzir,
* the ``exact`` enumeration oracle.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

import numpy as np

from ..baselines.guise import GuiseSession
from ..baselines.hardiman_katzir import HardimanKatzirSession
from ..baselines.path_sampling import PathSamplingSession
from ..baselines.wedge import WedgeSession
from ..baselines.wedge_mhrw import WedgeMHRWSession
from ..core.estimator import MethodSpec, SRWSession
from ..core.result import Estimate
from ..core.session import EstimationConfig, Session
from ..exact import exact_counts_cached
from ..graphlets.catalog import graphlets
from .registry import normalize, register


def _resolve_k(
    config: EstimationConfig,
    default: int,
    allowed: Optional[Sequence[int]] = None,
    method: str = "",
) -> int:
    k = config.k if config.k is not None else default
    if allowed is not None and k not in allowed:
        raise ValueError(
            f"method {method or config.method!r} supports k in {tuple(allowed)}, "
            f"got k={k}"
        )
    return k


#: Built-in methods with no chain-splitting notion (the i.i.d./MH
#: baselines and the oracle): their adapters reject ``chains > 1`` and
#: ``burn_in`` through :func:`_reject_walk_options`.  Experiment specs and
#: the service read this table to refuse a chained run before it starts.
CHAINLESS_METHODS = frozenset(
    {"guise", "wedge", "wedge_mhrw", "path_sampling", "hardiman_katzir", "exact"}
)


def _reject_walk_options(config: EstimationConfig, method: str) -> None:
    """i.i.d./MH baselines have no chain-splitting or burn-in notion."""
    if config.chains != 1:
        raise ValueError(f"method {method!r} does not support chains > 1")
    if config.burn_in:
        raise ValueError(f"method {method!r} does not support burn_in")


#: Named SRW specs whose walk dimension follows k, as
#: ``name -> (k - d, default k)``: PSRW (Wang et al. [36]) is SRW(k - 1)
#: and the plain subgraph random walk is SRW(k) with window length 1
#: (§1.2, §6.3.1).
_NAMED_SRW = {"psrw": (1, 4), "srw": (0, 3)}


class SRWEstimator:
    """A fixed ``SRW{d}[CSS][NB]`` method of the paper's framework, or
    one of the named specs ``psrw`` / ``srw`` whose d follows k."""

    def __init__(self, method: str) -> None:
        self.name = normalize(method)

    def _default_k(self) -> int:
        if self.name in _NAMED_SRW:
            return _NAMED_SRW[self.name][1]
        spec_probe = self.name.upper()
        digits = "".join(c for c in spec_probe[3:] if c.isdigit())
        d = int(digits)
        # Smallest valid graphlet size: windows need >= 2 states, CSS >= 3.
        return max(3, d + (2 if "CSS" in spec_probe else 1))

    def prepare(self, graph, config: EstimationConfig) -> Session:
        k = _resolve_k(config, self._default_k())
        if self.name in _NAMED_SRW:
            spec = MethodSpec(k=k, d=k - _NAMED_SRW[self.name][0])
        else:
            spec = MethodSpec.parse(self.name, k)
        return SRWSession(
            graph,
            spec,
            config.budget,
            rng=random.Random(config.seed),
            seed_node=config.seed_node,
            burn_in=config.burn_in,
            chains=config.chains,
        )


class GuiseEstimator:
    """GUISE (Bhuiyan et al. [6]) MH subgraph sampler."""

    name = "guise"

    def prepare(self, graph, config: EstimationConfig) -> Session:
        k = _resolve_k(config, 3, allowed=(3, 4, 5))
        _reject_walk_options(config, self.name)
        return GuiseSession(
            graph, config.budget, k=k, seed=config.seed, seed_node=config.seed_node
        )


class WedgeEstimator:
    """Wedge sampling [32] — full-access triadic baseline."""

    name = "wedge"

    def prepare(self, graph, config: EstimationConfig) -> Session:
        _resolve_k(config, 3, allowed=(3,), method=self.name)
        _reject_walk_options(config, self.name)
        return WedgeSession(graph, config.budget, seed=config.seed)


class WedgeMHRWEstimator:
    """Adapted wedge sampling via MHRW (paper Appendix F, Algorithm 4)."""

    name = "wedge_mhrw"

    def prepare(self, graph, config: EstimationConfig) -> Session:
        _resolve_k(config, 3, allowed=(3,), method=self.name)
        _reject_walk_options(config, self.name)
        return WedgeMHRWSession(
            graph, config.budget, seed=config.seed, seed_node=config.seed_node
        )


class PathSamplingEstimator:
    """3-path sampling [14] — full-access 4-node baseline."""

    name = "path_sampling"

    def prepare(self, graph, config: EstimationConfig) -> Session:
        _resolve_k(config, 4, allowed=(4,), method=self.name)
        _reject_walk_options(config, self.name)
        return PathSamplingSession(graph, config.budget, seed=config.seed)


class ExactSession(Session):
    """The enumeration oracle behind the streaming protocol.

    The budget is consumed trivially (the oracle has no sampling loop);
    any snapshot after the first ``step`` — and ``result()`` always —
    carries the exact concentrations and counts.
    """

    def __init__(self, graph, k: int, budget: int) -> None:
        super().__init__(budget)
        self.graph = graph
        self.k = k
        self._counts = None

    def _advance(self, n: int) -> None:
        pass  # nothing to sample

    def _exact_counts(self):
        if self._counts is None:
            self._counts = exact_counts_cached(self.graph, self.k)
        return self._counts

    def snapshot(self) -> Estimate:
        counts = self._exact_counts()
        total = sum(counts.values())
        names = graphlets(self.k)
        concentrations = np.array(
            [counts.get(g.index, 0) / total if total else 0.0 for g in names]
        )
        return Estimate(
            method="exact",
            k=self.k,
            steps=self.consumed,
            samples=total,
            concentrations=concentrations,
            stderr=np.zeros(len(names)),
            elapsed_seconds=self._elapsed,
            meta={
                "count_estimates": {
                    g.name: float(counts.get(g.index, 0)) for g in names
                },
            },
        )


class ExactEstimator:
    """Exact enumeration — the ground-truth oracle as a registry method."""

    name = "exact"

    def prepare(self, graph, config: EstimationConfig) -> Session:
        k = _resolve_k(config, 3)
        _reject_walk_options(config, self.name)
        return ExactSession(graph, k, config.budget)


class HardimanKatzirEstimator:
    """Hardiman–Katzir [11] clustering-coefficient walk."""

    name = "hardiman_katzir"

    def prepare(self, graph, config: EstimationConfig) -> Session:
        _resolve_k(config, 3, allowed=(3,), method=self.name)
        _reject_walk_options(config, self.name)
        return HardimanKatzirSession(
            graph, config.budget, seed=config.seed, seed_node=config.seed_node
        )


def register_builtin_estimators() -> None:
    """Populate the registry with the full method table (idempotent)."""
    builtin = [
        SRWEstimator(name)
        for name in (
            "srw1", "srw1nb", "srw1css", "srw1cssnb",
            "srw2", "srw2nb", "srw2css", "srw2cssnb",
            "srw3", "srw3nb", "srw3css", "srw3cssnb",
            "srw4", "srw4nb", "psrw", "srw",
        )
    ] + [
        GuiseEstimator(),
        WedgeEstimator(),
        WedgeMHRWEstimator(),
        PathSamplingEstimator(),
        HardimanKatzirEstimator(),
        ExactEstimator(),
    ]
    for estimator in builtin:
        register(estimator.name, estimator, overwrite=True)


register_builtin_estimators()
