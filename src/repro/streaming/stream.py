"""Seeded synthetic edge-stream workloads.

:class:`EdgeStreamSpec` describes a reproducible churn process over a
generated base graph: ``batches`` rounds, each deleting
``deletes_per_batch`` uniformly chosen live edges and inserting
``inserts_per_batch`` uniformly chosen absent edges (rejection-sampled;
node set fixed).  Everything is a pure function of the spec — the
deletes of batch ``t`` are drawn from the live edge set *after* batches
``< t``, and the RNG is a string-seeded :class:`random.Random`, so two
replays of the same spec produce bit-identical batches on any machine.

The spec is the shared workload substrate for the ``repro monitor`` CLI,
the ``stream-smoke`` bench suite (via the ``stream:`` graph-source
grammar of :func:`repro.experiments.spec.resolve_graph`), the refresh
benchmark and the determinism tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from ..graphs import CSRGraph
from ..graphs.delta import DeltaCSRGraph

Edge = Tuple[int, int]


@dataclass(frozen=True)
class EdgeBatch:
    """One round of edge churn: the inserts and deletes applied together."""

    index: int
    inserts: Tuple[Edge, ...]
    deletes: Tuple[Edge, ...]


@dataclass(frozen=True)
class EdgeStreamSpec:
    """A reproducible synthetic edge stream over a generated base graph.

    Parameters
    ----------
    graph:
        Graph-source string resolved by
        :func:`repro.experiments.spec.resolve_graph` (``"ba:400:3:5"``,
        a dataset name, ...); the stream churns its edges.
    batches:
        Number of update batches.
    inserts_per_batch / deletes_per_batch:
        Edges inserted / deleted per batch.  Deletes are drawn first
        (from the pre-batch live set), inserts are rejection-sampled
        from the absent pairs, never resurrecting a same-batch delete.
    seed:
        Stream seed (independent of the base graph's generator seed).
    """

    graph: str = "ba:400:3:5"
    batches: int = 6
    inserts_per_batch: int = 12
    deletes_per_batch: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batches < 0:
            raise ValueError(f"batches must be >= 0, got {self.batches}")
        if self.inserts_per_batch < 0 or self.deletes_per_batch < 0:
            raise ValueError("per-batch insert/delete counts must be >= 0")

    def base_graph(self) -> CSRGraph:
        """The (immutable CSR) graph the stream starts from."""
        from ..experiments.spec import resolve_graph  # lazy: avoids a cycle

        return CSRGraph.from_graph(resolve_graph(self.graph))

    def edge_batches(self) -> Tuple[EdgeBatch, ...]:
        """Materialize every batch (deterministic; pure function of self)."""
        return self._batches_over(self.base_graph())

    def _batches_over(self, base: CSRGraph) -> Tuple[EdgeBatch, ...]:
        """:meth:`edge_batches` over an already built :meth:`base_graph`."""
        n = base.num_nodes
        if n < 2 and self.inserts_per_batch:
            raise ValueError("cannot insert edges into a graph with < 2 nodes")
        # String seeding goes through sha512, so the stream is stable
        # across processes regardless of PYTHONHASHSEED.
        rng = random.Random(f"edge-stream:{self.seed}:{self.graph}")
        # Live edges as a list (index-sampled, swap-removed) plus a set
        # for membership — never iterate the set, its order is not
        # deterministic across runs.
        live = list(base.edges())
        live_set = set(live)
        out = []
        for index in range(self.batches):
            deletes = []
            for _ in range(self.deletes_per_batch):
                if not live:
                    break
                i = rng.randrange(len(live))
                edge = live[i]
                live[i] = live[-1]
                live.pop()
                live_set.discard(edge)
                deletes.append(edge)
            banned = set(deletes)
            inserts = []
            attempts = 0
            while len(inserts) < self.inserts_per_batch:
                attempts += 1
                if attempts > 1000 * (self.inserts_per_batch + 1):
                    raise ValueError(
                        "graph too dense to rejection-sample "
                        f"{self.inserts_per_batch} absent edges"
                    )
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u == v:
                    continue
                edge = (u, v) if u < v else (v, u)
                if edge in live_set or edge in banned:
                    continue
                inserts.append(edge)
                live.append(edge)
                live_set.add(edge)
            out.append(
                EdgeBatch(index=index, inserts=tuple(inserts), deletes=tuple(deletes))
            )
        return tuple(out)

    def replay(self) -> DeltaCSRGraph:
        """Apply every batch to a fresh overlay on the base graph."""
        base = self.base_graph()
        delta = DeltaCSRGraph(base)
        for batch in self._batches_over(base):
            delta.apply(inserts=batch.inserts, deletes=batch.deletes)
        return delta

    def churned_graph(self) -> CSRGraph:
        """The post-stream graph as an immutable compacted CSR."""
        return self.replay().compact()
