"""Theorem 3: Chernoff–Hoeffding sample-size bound.

    n >= xi * (W / Lambda) * (tau / eps^2) * log(||phi||_pie / delta)

with W = max 1/pi_e over M(l), Lambda = min(alpha_i C_i, alpha_min C^k),
tau the walk's 1/8-mixing time.  The bound is up to the constant ``xi``
from the underlying Markov-chain Chernoff bound (Chung et al. 2012); its
value lies in how the *factors* scale — the Figure 5 analysis (rare
graphlets with small alpha_i C_i dominate the error) reads straight off
Lambda.

Exact evaluation requires exact counts and the spectrum of G(d), so this
module targets small graphs; that is also how the paper uses the theorem
(as an analytic device, not a runtime component).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..exact import exact_counts
from ..graphs.graph import Graph
from ..relgraph.construct import relationship_graph, state_degree_fn
from ..walks.mixing import mixing_time_spectral
from .alpha import alpha_table


def _validate_failure_budget(epsilon: float, delta: float) -> None:
    """Reject out-of-range accuracy parameters, naming the culprit.

    Both Theorem 3 and the §4.1 CSS bound need ``0 < epsilon < 1`` and
    ``0 < delta < 1``; a non-positive value would silently produce a
    nonsensical (negative or infinite) sample size.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


@dataclass(frozen=True)
class BoundReport:
    """All Theorem 3 ingredients plus the resulting sample size."""

    k: int
    d: int
    graphlet_index: int
    epsilon: float
    delta: float
    tau: float  # mixing time tau(1/8) of the walk on G(d)
    w: float  # max 1/pi_e over the expanded state space (upper bound)
    lam: float  # Lambda = min(alpha_i C_i, alpha_min C^k)
    sample_size: float

    def describe(self) -> str:
        return (
            f"Theorem 3 bound for g{self.k}_{self.graphlet_index + 1} under "
            f"SRW{self.d}: n >= {self.sample_size:.3g} "
            f"(tau={self.tau:.3g}, W={self.w:.3g}, Lambda={self.lam:.3g}, "
            f"eps={self.epsilon}, delta={self.delta})"
        )


def sample_size_bound(
    graph: Graph,
    k: int,
    d: int,
    graphlet_index: int,
    epsilon: float = 0.1,
    delta: float = 0.1,
    xi: float = 1.0,
    counts: Optional[Dict[int, int]] = None,
) -> BoundReport:
    """Evaluate the Theorem 3 bound on a (small) graph.

    ``W`` is upper-bounded by ``2|R(d)| * Delta(G(d))^{l-2}`` (the maximum
    of the inverse stationary probability over windows, using the maximum
    state degree for every middle position), matching how the theorem is
    used qualitatively in §3.3/§6.2.

    Parameters
    ----------
    counts:
        Pre-computed exact counts ``C_i^k`` (else computed here — the
        expensive part for k = 5).
    """
    _validate_failure_budget(epsilon, delta)
    alphas = alpha_table(k, d)
    if graphlet_index < 0 or graphlet_index >= len(alphas):
        raise ValueError(f"graphlet index {graphlet_index} out of range")
    if alphas[graphlet_index] == 0:
        raise ValueError(
            f"graphlet {graphlet_index} is unreachable under SRW{d} (alpha = 0); "
            "the bound is vacuous"
        )
    if counts is None:
        counts = exact_counts(graph, k)
    total = sum(counts.values())
    if counts[graphlet_index] == 0:
        raise ValueError(f"graphlet {graphlet_index} does not occur in the graph")

    relgraph, states = relationship_graph(graph, d)
    tau = mixing_time_spectral(relgraph, epsilon=0.125)
    l = k - d + 1
    two_r = 2.0 * relgraph.num_edges
    w = two_r * (relgraph.max_degree() ** max(0, l - 2))
    reachable_alphas = [a for a in alphas if a > 0]
    lam = min(
        alphas[graphlet_index] * counts[graphlet_index],
        min(reachable_alphas) * total,
    )
    # ||phi||_pie = 1 when the walk starts in stationarity; keep that
    # convention (the log term is otherwise initial-distribution noise).
    sample_size = xi * (w / lam) * (tau / epsilon**2) * math.log(1.0 / delta)
    return BoundReport(
        k=k,
        d=d,
        graphlet_index=graphlet_index,
        epsilon=epsilon,
        delta=delta,
        tau=tau,
        w=w,
        lam=lam,
        sample_size=sample_size,
    )


def css_sample_size_bound(
    graph: Graph,
    k: int,
    d: int,
    graphlet_index: int,
    epsilon: float = 0.1,
    delta: float = 0.1,
    xi: float = 1.0,
    counts: Optional[Dict[int, int]] = None,
) -> BoundReport:
    """The §4.1 bound for the CSS estimator.

    Replaces W = max 1/pi_e with W' = max over *subgraphs* of 1/p(X) —
    computed exactly by enumerating the graph's k-node subgraphs and
    evaluating the CSS sampling probability of each (p(X) is constant over
    the corresponding-state class C(s), so one evaluation per subgraph
    suffices).  Since p(X) >= alpha_i * min_{X' in C(s)} pi_e(X'), we have
    W' <= W and the CSS bound is never worse (the paper's argument for
    CSS's efficiency).  Small graphs only.
    """
    _validate_failure_budget(epsilon, delta)
    from ..exact.enumerate import enumerate_connected_subgraphs
    from ..graphlets.catalog import induced_bitmask
    from .css import sampling_weight

    alphas = alpha_table(k, d)
    if alphas[graphlet_index] == 0:
        raise ValueError(
            f"graphlet {graphlet_index} is unreachable under SRW{d}"
        )
    if counts is None:
        counts = exact_counts(graph, k)
    if counts[graphlet_index] == 0:
        raise ValueError(f"graphlet {graphlet_index} does not occur in the graph")

    relgraph, states = relationship_graph(graph, d)
    tau = mixing_time_spectral(relgraph, epsilon=0.125)
    two_r = 2.0 * relgraph.num_edges
    degree_of_state = state_degree_fn(relgraph, states)

    w_prime = 0.0
    for nodes in enumerate_connected_subgraphs(graph, k):
        node_list = sorted(nodes)
        mask = induced_bitmask(graph, node_list)
        p_tilde = sampling_weight(mask, node_list, k, d, degree_of_state)
        if p_tilde > 0:
            w_prime = max(w_prime, two_r / p_tilde)

    lam = float(counts[graphlet_index])
    sample_size = xi * (w_prime / lam) * (tau / epsilon**2) * math.log(1.0 / delta)
    return BoundReport(
        k=k,
        d=d,
        graphlet_index=graphlet_index,
        epsilon=epsilon,
        delta=delta,
        tau=tau,
        w=w_prime,
        lam=lam,
        sample_size=sample_size,
    )


def weighted_concentration(
    graph: Graph,
    k: int,
    d: int,
    counts: Optional[Dict[int, int]] = None,
) -> Dict[int, float]:
    """The paper's §6.2 'weighted concentration'
    ``alpha_i C_i / sum_j alpha_j C_j`` — the probability mass the walk on
    G(d) puts on each graphlet type, which explains why smaller d is more
    accurate for rare graphlets (Figure 5)."""
    alphas = alpha_table(k, d)
    if counts is None:
        counts = exact_counts(graph, k)
    weighted = {i: alphas[i] * counts[i] for i in counts}
    total = sum(weighted.values())
    if total == 0:
        raise ValueError("no graphlets reachable under this walk")
    return {i: value / total for i, value in weighted.items()}
