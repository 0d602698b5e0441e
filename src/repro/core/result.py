"""The unified estimation result type.

Every estimator in the library — the SRW{d}[CSS][NB] framework methods,
PSRW/SRW, GUISE, wedge sampling, wedge-MHRW, 3-path sampling,
Hardiman–Katzir and the exact oracle — returns one :class:`Estimate`.
Method-specific extras (rejection rates, wedge tallies, API-call counts,
…) live in the ``meta`` dict and are readable as plain attributes
(``result.rejection_rate``), so method-specific results keep their
familiar feel without fragmenting the API.

Conventions
-----------
``concentrations`` is always a catalog-ordered array for ``k``; types an
estimator cannot observe are ``nan`` (3-path sampling's 3-star) or ``0``
(walk-unreachable types, paper footnote 3).  ``steps`` counts the budget
units consumed (walk transitions, MH proposals, or i.i.d. draws);
``samples`` counts the retained/valid samples behind the estimate.
``sums`` holds the re-weighted indicator sums S_i when the method has
them (the SRW family), from which :meth:`counts` derives absolute counts
via Eq. 4/7.  ``stderr`` carries per-graphlet standard errors when the
method can provide them (exact: zeros; i.i.d. samplers: binomial;
multi-chain SRW: between-chain).
"""

from __future__ import annotations

import numpy as np

from ..graphlets.catalog import graphlets

#: Estimate fields serialized by :meth:`Estimate.to_dict` (meta aside).
_ARRAY_FIELDS = ("sums", "sample_counts", "concentrations", "stderr")


def _jsonable(value):
    """Recursively convert numpy/tuple values into JSON-safe types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(v) for key, v in value.items()}
    return value


class Estimate:
    """Outcome of one estimation run, whatever the method.

    Parameters
    ----------
    method:
        Resolved method name (``"SRW2CSS"``, ``"guise"``, ``"exact"``, …).
    k:
        Graphlet size the concentrations refer to (None when unknown).
    steps:
        Budget units consumed (walk transitions / proposals / draws).
    samples:
        Valid samples retained (the denominator of the estimate).
    sums:
        Re-weighted indicator sums S_i (catalog order) for methods that
        have them; enables :meth:`counts`.
    sample_counts:
        Raw per-type sample tallies, when tracked.
    concentrations:
        Explicit concentration array for methods without sums; when
        omitted, concentrations derive from ``sums``.
    stderr:
        Per-graphlet standard errors, when available.
    meta:
        Method metadata (d, chains, rejection counts, API calls, …);
        values are also readable as attributes of the estimate.
    """

    def __init__(
        self,
        *,
        method,
        k=None,
        steps=0,
        samples=0,
        sums=None,
        sample_counts=None,
        concentrations=None,
        stderr=None,
        elapsed_seconds=0.0,
        meta=None,
    ):
        self.method = method
        self.k = k
        self.steps = int(steps)
        self.samples = int(samples)
        self.sums = None if sums is None else np.asarray(sums, dtype=np.float64)
        self.sample_counts = (
            None if sample_counts is None else np.asarray(sample_counts, dtype=np.int64)
        )
        self._concentrations = (
            None if concentrations is None else np.asarray(concentrations, dtype=np.float64)
        )
        self.stderr = None if stderr is None else np.asarray(stderr, dtype=np.float64)
        self.elapsed_seconds = float(elapsed_seconds)
        self.meta = dict(meta) if meta else {}

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def concentrations(self) -> np.ndarray:
        """Estimated concentrations c^_i, catalog order.

        Derived from ``sums`` (Eq. 5 / Eq. 8) unless the method supplied
        an explicit array.  Types unreachable under the chosen walk
        receive 0 (paper footnote 3); types invisible to the method are
        ``nan``.
        """
        if self._concentrations is not None:
            return self._concentrations
        if self.sums is None:
            raise ValueError(
                f"estimate from {self.method!r} carries neither concentrations "
                "nor re-weighted sums"
            )
        total = float(self.sums.sum())
        if total <= 0:
            return np.zeros_like(self.sums)
        return self.sums / total

    def concentration_dict(self):
        """Concentrations keyed by graphlet name (catalog order)."""
        if self.k is None:
            raise ValueError("estimate has no graphlet size k")
        values = self.concentrations
        return {g.name: float(values[g.index]) for g in graphlets(self.k)}

    def concentration_of(self, name: str) -> float:
        """Concentration of a graphlet selected by catalog name."""
        return self.concentration_dict()[name]

    def counts(self, relationship_edges) -> np.ndarray:
        """Estimated absolute counts C^_i (Eq. 4 / Eq. 7).

        Requires |R(d)| > 0 — for d <= 2 closed forms exist, see
        :func:`repro.relgraph.relationship_edge_count`.
        """
        if self.sums is None:
            raise ValueError(
                f"method {self.method!r} does not expose re-weighted sums; "
                "absolute counts via counts(relationship_edges) are unavailable "
                "(check meta['count_estimates'] / count_dict() instead)"
            )
        if self.steps <= 0:
            raise ValueError("no steps taken")
        if relationship_edges is None or relationship_edges <= 0:
            raise ValueError(
                f"relationship_edges must be a positive |R(d)|, got "
                f"{relationship_edges!r}; compute it with "
                f"repro.relgraph.relationship_edge_count(graph, d={self.d}) "
                "(closed forms exist for d <= 2), or pass a separate estimate "
                "of it under restricted access"
            )
        return 2.0 * relationship_edges * self.sums / self.steps

    def count_dict(self, relationship_edges=None):
        """Absolute count estimates keyed by graphlet name.

        Methods that estimate counts directly (3-path sampling, exact)
        store them in ``meta['count_estimates']``; sums-based methods
        need ``relationship_edges`` (see :meth:`counts`).
        """
        estimates = self.meta.get("count_estimates")
        if estimates is not None:
            return dict(estimates)
        if relationship_edges is None:
            raise ValueError(
                f"method {self.method!r} needs relationship_edges to turn "
                "sums into counts (Eq. 4/7)"
            )
        values = self.counts(relationship_edges)
        return {g.name: float(values[g.index]) for g in graphlets(self.k)}

    # ------------------------------------------------------------------
    # Compatibility accessors (the absorbed per-method result types)
    # ------------------------------------------------------------------
    @property
    def valid_samples(self) -> int:
        """Alias of ``samples`` (the SRW family's historical name)."""
        return self.samples

    @property
    def d(self):
        """Walk substrate dimension, when the method has one."""
        return self.meta.get("d")

    @property
    def chains(self) -> int:
        """Number of independent chains pooled into this estimate."""
        return int(self.meta.get("chains", 1))

    @property
    def unreachable(self):
        """Indices of types with alpha = 0 under the chosen walk."""
        return tuple(self.meta.get("unreachable", ()))

    @property
    def api_calls(self):
        """Measured API calls when run over a RestrictedGraph, else None."""
        return self.meta.get("api_calls")

    def __getattr__(self, name):
        # Fallback for method-specific stats recorded in meta
        # (rejection_rate, closed_wedges, total_weight, visits, ...).
        if name.startswith("_"):
            raise AttributeError(name)
        meta = self.__dict__.get("meta")
        if meta is not None and name in meta:
            return meta[name]
        raise AttributeError(
            f"{type(self).__name__} has no attribute {name!r} "
            f"(and meta has no such key; meta keys: {sorted(meta or ())})"
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict representation (round-trips via from_dict)."""
        data = {
            "method": self.method,
            "k": self.k,
            "steps": self.steps,
            "samples": self.samples,
            "sums": _jsonable(self.sums) if self.sums is not None else None,
            "sample_counts": (
                _jsonable(self.sample_counts) if self.sample_counts is not None else None
            ),
            "concentrations": (
                _jsonable(self._concentrations)
                if self._concentrations is not None
                else None
            ),
            "stderr": _jsonable(self.stderr) if self.stderr is not None else None,
            "elapsed_seconds": self.elapsed_seconds,
            "meta": _jsonable(self.meta),
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Estimate":
        """Rebuild an estimate from :meth:`to_dict` output.

        Integer-like keys of nested meta dicts (stringified for JSON
        safety, e.g. GUISE's per-size ``visits``) are revived as ints so
        ``rebuilt.visits[3]`` keeps working after a round-trip.
        """

        def arr(value, dtype=np.float64):
            return None if value is None else np.asarray(value, dtype=dtype)

        def revive_keys(value):
            if isinstance(value, dict):
                return {
                    (int(key) if isinstance(key, str) and key.isdigit() else key):
                    revive_keys(inner)
                    for key, inner in value.items()
                }
            return value

        return cls(
            method=data["method"],
            k=data.get("k"),
            steps=data.get("steps", 0),
            samples=data.get("samples", 0),
            sums=arr(data.get("sums")),
            sample_counts=arr(data.get("sample_counts"), np.int64),
            concentrations=arr(data.get("concentrations")),
            stderr=arr(data.get("stderr")),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            meta=revive_keys(data.get("meta", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Estimate(method={self.method!r}, k={self.k}, steps={self.steps}, "
            f"samples={self.samples})"
        )
