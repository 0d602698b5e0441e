"""Restricted-access graph wrapper.

The paper's deployment scenario (§1) assumes the graph is reachable only
through OSN-style APIs that return a node's neighbor list.
:class:`RestrictedGraph` models that interface: the only operations are
``neighbors(v)`` / ``degree(v)`` on already-discovered nodes plus a seed
node, and every distinct neighbor-list retrieval is counted as one API call.

All random-walk estimators in this library are written against this
interface, which both enforces the access model and lets experiments report
API-call budgets (used by the Figure 8 reproduction, where the adapted wedge
sampler needs 3 API calls per walk step versus 1 for our framework).
"""

from __future__ import annotations

import random
from typing import List, Set

from .graph import Graph


class AccessViolation(RuntimeError):
    """Raised when code touches a node that has not been discovered yet."""


class RestrictedGraph:
    """API-access view of a :class:`Graph` with call accounting.

    Parameters
    ----------
    graph:
        The hidden underlying graph.
    seed_node:
        The initially known node (e.g. the crawler's start account).  If
        omitted, node 0 is used.
    enforce:
        When true (default), accessing an undiscovered node raises
        :class:`AccessViolation`.  A node is *discovered* once it appears in
        some retrieved neighbor list (or is the seed).
    """

    def __init__(
        self,
        graph: Graph,
        seed_node: int = 0,
        enforce: bool = True,
    ) -> None:
        if not 0 <= seed_node < graph.num_nodes:
            raise ValueError(f"seed node {seed_node} out of range")
        self._graph = graph
        self._enforce = enforce
        self._discovered: Set[int] = {seed_node}
        self._fetched: Set[int] = set()
        self._api_calls = 0
        self.seed_node = seed_node

    # ------------------------------------------------------------------
    # The API surface available to crawlers
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> List[int]:
        """Retrieve the neighbor list of ``v`` (one API call if not cached)."""
        self._check(v)
        if v not in self._fetched:
            self._api_calls += 1
            self._fetched.add(v)
            self._discovered.update(self._graph.neighbors(v))
        return self._graph.neighbors(v)

    def degree(self, v: int) -> int:
        """Degree of ``v``; fetches the neighbor list (APIs return it whole)."""
        return len(self.neighbors(v))

    def neighbor_set(self, v: int) -> Set[int]:
        """Neighbor set of ``v`` (one API call if not cached; do not mutate).

        Present so graphlet classification code can treat a
        :class:`RestrictedGraph` like a :class:`Graph`; the underlying
        retrieval cost is still accounted for.
        """
        self.neighbors(v)
        return self._graph.neighbor_set(v)

    def random_neighbor(self, v: int, rng: random.Random) -> int:
        """Uniformly random neighbor of ``v``."""
        neighbors = self.neighbors(v)
        if not len(neighbors):
            raise ValueError(f"node {v} has no neighbors")
        return int(neighbors[rng.randrange(len(neighbors))])

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency test via the fetched neighbor list of ``u`` or ``v``.

        Fetches ``u``'s list if neither endpoint has been fetched yet.
        """
        if u in self._fetched:
            return self._graph.has_edge(u, v)
        if v in self._fetched:
            return self._graph.has_edge(v, u)
        self.neighbors(u)
        return self._graph.has_edge(u, v)

    def full_access_csr(self):
        """The hidden graph's CSR form, for the vectorized window
        pipeline's probes.  Probes through it cost no API calls; the
        walk's own fetches through this wrapper are the crawl's cost."""
        return self._graph.full_access_csr()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def api_calls(self) -> int:
        """Number of distinct neighbor-list retrievals so far."""
        return self._api_calls

    @property
    def discovered_nodes(self) -> int:
        """Number of node ids observed so far."""
        return len(self._discovered)

    @property
    def fetched_nodes(self) -> int:
        """Number of nodes whose full neighbor list has been retrieved."""
        return len(self._fetched)

    def coverage(self) -> float:
        """Fraction of the hidden graph's nodes discovered so far."""
        return len(self._discovered) / max(1, self._graph.num_nodes)

    def reset_accounting(self) -> None:
        """Zero the API-call counter (keeps the discovery state)."""
        self._api_calls = 0

    def _check(self, v: int) -> None:
        if self._enforce and v not in self._discovered:
            raise AccessViolation(
                f"node {v} has not been discovered through the API yet"
            )
