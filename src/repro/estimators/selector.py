"""``method="auto"``: pick the estimator from cheap graph statistics.

The selector is the *executable* form of the docs/METHODS.md "Choosing a
method" guide: exact enumeration when the graph is small enough to
enumerate outright, otherwise the paper's §6.2 recommendation
(``SRW1CSSNB`` for k = 3, ``SRW2CSS`` for k = 4, 5), with chains and the
CSR backend promoted when the workload benefits (multi-chain stderr for
variance-aware stopping, vectorized kernels on non-tiny graphs).

Every decision is a pure function of ``(num_nodes, num_edges, config)``
— no RNG, no timing — so auto-selected runs stay bit-reproducible and
``jobs=N`` experiment sweeps agree with serial ones.  The full decision
is returned as an inspectable :class:`SelectionReport` and recorded in
``Estimate.meta["selection"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..core.estimator import recommended_method
from ..core.session import EstimationConfig

#: Largest node count per k at which exact enumeration beats sampling
#: outright (enumeration is O(n * Delta^(k-1))-ish; these keep it well
#: under a second on commodity hardware).
EXACT_NODE_CEILING: Dict[int, int] = {3: 120, 4: 60, 5: 35}

#: Edge count above which the CSR backend / batched chains pay off.
LARGE_GRAPH_EDGES = 20_000

#: Chains promoted to when the run wants a between-chain stderr.
AUTO_CHAINS = 8

#: Minimum step cap before splitting over AUTO_CHAINS is worthwhile
#: (each chain should get a few hundred transitions to mix).
MIN_BUDGET_FOR_CHAINS = 4_000


@dataclass(frozen=True)
class SelectionReport:
    """The auto-selector's decision, with its reasons.

    ``apply`` folds the decision into an :class:`EstimationConfig`;
    ``to_dict`` is the JSON-safe form recorded in
    ``Estimate.meta["selection"]``.
    """

    method: str
    k: int
    chains: int
    backend: Optional[str]
    reasons: Tuple[str, ...]
    num_nodes: int
    num_edges: int

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "k": self.k,
            "chains": self.chains,
            "backend": self.backend,
            "reasons": list(self.reasons),
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
        }

    def apply(self, config: EstimationConfig) -> EstimationConfig:
        """The config with the selection folded in (non-destructive)."""
        return replace(
            config,
            method=self.method,
            k=self.k,
            chains=self.chains,
            backend=self.backend,
        )

    def describe(self) -> str:
        return (
            f"auto -> {self.method} (k={self.k}, chains={self.chains}, "
            f"backend={self.backend}); " + "; ".join(self.reasons)
        )


def select(graph, config: EstimationConfig) -> SelectionReport:
    """Resolve ``method="auto"`` for ``graph`` under ``config``.

    Caller-pinned fields win: an explicit ``k``, ``chains != 1`` or a
    non-None ``backend`` is kept verbatim, and only the unset dimensions
    are decided here.
    """
    num_nodes = int(graph.num_nodes)
    num_edges = int(graph.num_edges)
    reasons = []

    k = config.k
    if k is None:
        k = 3
        reasons.append("k defaulted to 3 (triangles and their kin)")

    ceiling = EXACT_NODE_CEILING.get(k, 0)
    if num_nodes <= ceiling and config.chains == 1:
        reasons.append(
            f"{num_nodes} nodes <= {ceiling}: exact enumeration is cheaper "
            f"than sampling at k={k}"
        )
        return SelectionReport(
            method="exact",
            k=k,
            chains=1,
            backend=config.backend,
            reasons=tuple(reasons),
            num_nodes=num_nodes,
            num_edges=num_edges,
        )

    method = recommended_method(k)
    reasons.append(
        f"{num_nodes} nodes > {ceiling}: sampling via the paper's §6.2 "
        f"recommendation for k={k} ({method})"
    )

    chains = config.chains
    if chains == 1:
        wants_stderr = config.target is not None and config.target.requires_stderr
        if (
            (wants_stderr or num_edges >= LARGE_GRAPH_EDGES)
            and config.budget >= MIN_BUDGET_FOR_CHAINS
        ):
            chains = AUTO_CHAINS
            reasons.append(
                f"chains={AUTO_CHAINS}: "
                + (
                    "the stopping target needs a between-chain stderr"
                    if wants_stderr
                    else f"{num_edges} edges >= {LARGE_GRAPH_EDGES}, batched "
                    "chains amortize the per-step cost"
                )
            )
    else:
        reasons.append(f"chains={chains} pinned by the caller")

    backend = config.backend
    if backend is None and (chains > 1 or num_edges >= LARGE_GRAPH_EDGES):
        backend = "csr"
        reasons.append("backend=csr: vectorized kernels for batched chains")

    return SelectionReport(
        method=method,
        k=k,
        chains=chains,
        backend=backend,
        reasons=tuple(reasons),
        num_nodes=num_nodes,
        num_edges=num_edges,
    )
